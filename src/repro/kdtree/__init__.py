"""``repro.kdtree`` — static cache-oblivious (vEB-layout) kd-tree.

Module (1) of ParGeo: construction (Alg. 1), data-parallel k-NN
(App. C.1.3), range search, and parallel batch deletion (Alg. 2).
"""

from .allnn import all_nearest_neighbors
from .batch import (
    BatchKNNBuffers,
    batched_knn,
    batched_knn_into,
    resolve_engine,
)
from .build import build_batched
from .delete import erase
from .knn import extract_knn_results, knn, knn_into, knn_single
from .knnbuffer import KNNBuffer
from .range_search import (
    range_count_box,
    range_query_ball,
    range_query_ball_batch,
    range_query_batch,
    range_query_box,
)
from .tree import KDTree, OBJECT_MEDIAN, SPATIAL_MEDIAN, hyperceiling

__all__ = [
    "BatchKNNBuffers",
    "KDTree",
    "KNNBuffer",
    "OBJECT_MEDIAN",
    "all_nearest_neighbors",
    "SPATIAL_MEDIAN",
    "batched_knn",
    "batched_knn_into",
    "build_batched",
    "erase",
    "resolve_engine",
    "extract_knn_results",
    "hyperceiling",
    "knn",
    "knn_into",
    "knn_single",
    "range_count_box",
    "range_query_ball",
    "range_query_ball_batch",
    "range_query_batch",
    "range_query_box",
]
