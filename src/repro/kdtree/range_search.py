"""Orthogonal (box) and spherical range search over the kd-tree.

The traversal takes whole subtrees whose bounding box is contained in
the query region, skips disjoint subtrees, and recurses on the rest —
the standard data-parallel range search ParGeo performs.
"""

from __future__ import annotations

import math

import numpy as np

from ..parlay.workdepth import charge
from .tree import KDTree, NodeGeometry, box_dist2

__all__ = [
    "ball_r2",
    "ball_r2s",
    "range_query_box",
    "range_query_ball",
    "range_count_box",
]


def ball_r2(radius: float) -> float:
    """The squared radius every ball test compares ``d2 <= r2`` against.

    A negative radius bounds the empty set, so it maps to ``-inf``: no
    squared distance or box mindist is at or below it, and the search
    prunes at the root.  Squaring it would answer the ball of radius
    ``|radius|``.
    """
    r = float(radius)
    return -math.inf if r < 0 else r ** 2


def ball_r2s(radii) -> np.ndarray:
    """:func:`ball_r2` over an array of radii."""
    r = np.asarray(radii, dtype=np.float64)
    r2 = np.square(r)
    r2[r < 0] = -np.inf
    return r2


def _collect_box(
    tree: KDTree, idx: int, lo: np.ndarray, hi: np.ndarray, out: list, geo: NodeGeometry
) -> None:
    if idx < 0 or tree.live[idx] == 0:
        return
    charge(2 * tree.dim + 4, 1)  # per-node box arithmetic
    disjoint, contained = geo(idx)
    if disjoint:
        return
    if contained:
        out.append(tree.node_points(idx))  # take all
        return
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        if len(ids):
            pts = tree.points[ids]
            charge(len(ids) * tree.dim)
            mask = ((pts >= lo) & (pts <= hi)).all(axis=1)
            out.append(ids[mask])
        return
    _collect_box(tree, int(tree.left[idx]), lo, hi, out, geo)
    _collect_box(tree, int(tree.right[idx]), lo, hi, out, geo)


def range_query_box(tree: KDTree, lo, hi) -> np.ndarray:
    """Ids of live points inside the closed box [lo, hi]."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)

    def tests(nlo, nhi):
        return (
            ((nlo > hi) | (nhi < lo)).any(axis=1).tolist(),
            ((nlo >= lo) & (nhi <= hi)).all(axis=1).tolist(),
        )

    out: list = []
    _collect_box(tree, tree.root, lo, hi, out, NodeGeometry(tree, tests))
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def range_count_box(tree: KDTree, lo, hi) -> int:
    """Number of live points inside the closed box [lo, hi]."""
    return len(range_query_box(tree, lo, hi))


def _collect_ball(
    tree: KDTree, idx: int, c: np.ndarray, r2: float, out: list, geo: NodeGeometry
) -> None:
    if idx < 0 or tree.live[idx] == 0:
        return
    charge(2 * tree.dim + 4, 1)  # per-node box arithmetic
    disjoint, contained = geo(idx)
    if disjoint:
        return
    if contained:
        out.append(tree.node_points(idx))
        return
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        if len(ids):
            pts = tree.points[ids]
            charge(len(ids) * tree.dim)
            diff = pts - c
            d2 = np.einsum("ij,ij->i", diff, diff)
            out.append(ids[d2 <= r2])
        return
    _collect_ball(tree, int(tree.left[idx]), c, r2, out, geo)
    _collect_ball(tree, int(tree.right[idx]), c, r2, out, geo)


def range_query_ball(tree: KDTree, center, radius: float) -> np.ndarray:
    """Ids of live points within Euclidean distance ``radius`` of center."""
    c = np.asarray(center, dtype=np.float64)
    r2 = ball_r2(radius)

    def tests(nlo, nhi):
        near2, far2 = box_dist2(nlo, nhi, c)
        return (near2 > r2).tolist(), (far2 <= r2).tolist()

    out: list = []
    _collect_ball(tree, tree.root, c, r2, out, NodeGeometry(tree, tests))
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def range_query_batch(
    tree: KDTree, los, his, grain: int = 16, engine: str | None = None
) -> list[np.ndarray]:
    """Data-parallel batch of box queries (one result list per box).

    Queries run in blocks across the scheduler — the paper's range
    search benchmark shape (parallel across queries).  ``engine``
    selects between the vectorized frontier traversal ("batched") and
    the per-query recursion ("recursive"); ``None`` picks by batch size
    (:func:`~repro.kdtree.batch.resolve_engine`).  Results and charges
    are identical.
    """
    from .batch import batched_range_query_batch, resolve_engine

    los = np.asarray(los, dtype=np.float64)
    his = np.asarray(his, dtype=np.float64)
    m = len(los)
    if resolve_engine(engine, m, "range") == "batched":
        return batched_range_query_batch(tree, los, his, grain=grain)

    from ..parlay.scheduler import get_scheduler
    from ..parlay.primitives import query_blocks

    results: list = [None] * m
    sched = get_scheduler()
    blocks = query_blocks(m, grain=grain)

    def run_block(b: int) -> None:
        lo_i, hi_i = blocks[b]
        for i in range(lo_i, hi_i):
            results[i] = range_query_box(tree, los[i], his[i])

    sched.parallel_for(len(blocks), run_block)
    return results


def range_query_ball_batch(
    tree: KDTree, centers, radii, grain: int = 16, engine: str | None = None
) -> list[np.ndarray]:
    """Data-parallel batch of ball queries (per-query radii allowed)."""
    from .batch import batched_range_query_ball_batch, resolve_engine

    centers = np.asarray(centers, dtype=np.float64)
    if resolve_engine(engine, len(centers), "range") == "batched":
        return batched_range_query_ball_batch(tree, centers, radii, grain=grain)

    from ..parlay.scheduler import get_scheduler
    from ..parlay.primitives import query_blocks

    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (len(centers),))
    results: list = [None] * len(centers)
    sched = get_scheduler()
    blocks = query_blocks(len(centers), grain=grain)

    def run_block(b: int) -> None:
        lo_i, hi_i = blocks[b]
        for i in range(lo_i, hi_i):
            results[i] = range_query_ball(tree, centers[i], float(radii[i]))

    sched.parallel_for(len(blocks), run_block)
    return results
