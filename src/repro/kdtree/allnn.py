"""All-nearest-neighbors: every point's nearest other point.

The EMST's base case, Boruvka steps and the k-NN graph with k=1 ask
this of a whole point set at once, so it runs as one vectorized 1-NN
batch through the frontier engine of :mod:`repro.kdtree.batch`.
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from .tree import KDTree

__all__ = ["all_nearest_neighbors"]


def all_nearest_neighbors(points) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbor of every point (excluding itself).

    Returns (dists, ids): Euclidean distance and index of each point's
    nearest other point.  Each query bans its own id, so duplicates
    still pair up with each other.
    """
    from .batch import batched_allnn_on_tree

    pts = as_array(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    return batched_allnn_on_tree(KDTree(pts, leaf_size=16))
