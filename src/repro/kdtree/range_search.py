"""Orthogonal (box) and spherical (ball) range search over the kd-tree.

The traversal takes whole subtrees whose bounding box is contained in
the query region, skips disjoint subtrees, and recurses on the rest —
the standard data-parallel range search ParGeo performs.  Box and ball
differ only in the region tests, so the query shape lives in two region
types, :class:`Box` and :class:`Ball`, each a batch of per-query arrays
with a ``label``, ``take(rows)`` (a sub-batch, for shard slabs), and
``node_test`` / ``point_test`` over rows of node boxes / points for the
query ``rows`` (one index in the per-query walk, one per row in the
lock-step engine and the shard planner).  Every layer — walk, lock-step
engine, BDL tree, sharded index, ``execute_requests`` — has one range
implementation over a region; the public box/ball names call into it.
"""

from __future__ import annotations

import math

import numpy as np

from ..parlay.primitives import query_blocks
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge
from .tree import KDTree, NodeGeometry, box_dist2

__all__ = [
    "Ball",
    "Box",
    "ball_r2",
    "ball_r2s",
    "range_query_box",
    "range_query_ball",
    "range_count_box",
    "range_query_regions",
]


def ball_r2(radius: float) -> float:
    """The squared radius every ball test compares ``d2 <= r2`` against.

    A negative radius bounds the empty set, so it maps to ``-inf``: no
    squared distance or box mindist is at or below it, and the search
    prunes at the root.  Squaring it would answer the ball of radius
    ``|radius|``.
    """
    r = float(radius)
    return -math.inf if r < 0 else r * r


def ball_r2s(radii) -> np.ndarray:
    """:func:`ball_r2` over an array of radii."""
    r = np.asarray(radii, dtype=np.float64)
    r2 = np.square(r)
    r2[r < 0] = -np.inf
    return r2


class Box:
    """A batch of closed boxes ``[lo[i], hi[i]]``."""

    label = "box"
    #: the lock-step entry point in :mod:`.batch` for this shape
    lockstep = "batched_range_query_batch"

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def args(self) -> tuple:
        """The batch as the public box entry points take it."""
        return self.lo, self.hi

    def take(self, rows) -> Box:
        return Box(self.lo[rows], self.hi[rows])

    def node_test(self, nlo, nhi, rows) -> tuple:
        lo, hi = self.lo[rows], self.hi[rows]
        return (
            ((nlo > hi) | (nhi < lo)).any(axis=1),
            ((nlo >= lo) & (nhi <= hi)).all(axis=1),
        )

    def point_test(self, pts, rows) -> np.ndarray:
        return ((pts >= self.lo[rows]) & (pts <= self.hi[rows])).all(axis=1)


class Ball:
    """A batch of closed balls ``||p - center[i]|| <= radius[i]``.

    ``r2`` is :func:`ball_r2s` of the radii: a negative radius holds no
    point.  Node tests reduce with :func:`~.tree.box_dist2`'s
    ``einsum``, the point test with the same ``einsum`` over rows, so
    every caller rounds a row identically.
    """

    label = "ball"
    lockstep = "batched_range_query_ball_batch"

    __slots__ = ("center", "radius", "r2")

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = np.broadcast_to(
            np.asarray(radius, dtype=np.float64), (len(self.center),)
        )
        self.r2 = ball_r2s(self.radius)

    def __len__(self) -> int:
        return len(self.center)

    @property
    def args(self) -> tuple:
        """The batch as the public ball entry points take it."""
        return self.center, self.radius

    def take(self, rows) -> Ball:
        return Ball(self.center[rows], self.radius[rows])

    def node_test(self, nlo, nhi, rows) -> tuple:
        near2, far2 = box_dist2(nlo, nhi, self.center[rows])
        r2 = self.r2[rows]
        return ~(near2 <= r2), far2 <= r2  # a NaN prunes, as disjoint

    def point_test(self, pts, rows) -> np.ndarray:
        diff = pts - self.center[rows]
        return np.einsum("ij,ij->i", diff, diff) <= self.r2[rows]


def _collect(
    tree: KDTree, idx: int, region, i: int, out: list, geo: NodeGeometry
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
            charge(len(ids) * tree.dim)
            out.append(ids[region.point_test(tree.points[ids], i)])
        return
    _collect(tree, int(tree.left[idx]), region, i, out, geo)
    _collect(tree, int(tree.right[idx]), region, i, out, geo)


def _walk(tree: KDTree, region, i: int) -> np.ndarray:
    """Ids of live points in query ``i`` of ``region``: one tree walk."""

    def tests(nlo, nhi):
        disjoint, contained = region.node_test(nlo, nhi, i)
        return disjoint.tolist(), contained.tolist()

    out: list = []
    _collect(tree, tree.root, region, i, out, NodeGeometry(tree, tests))
    if not out:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(out)


def range_query_box(tree: KDTree, lo, hi) -> np.ndarray:
    """Ids of live points inside the closed box [lo, hi]."""
    return _walk(tree, Box([lo], [hi]), 0)


def range_count_box(tree: KDTree, lo, hi) -> int:
    """Number of live points inside the closed box [lo, hi]."""
    return len(range_query_box(tree, lo, hi))


def range_query_ball(tree: KDTree, center, radius: float) -> np.ndarray:
    """Ids of live points within Euclidean distance ``radius`` of center."""
    return _walk(tree, Ball([center], radius), 0)


def range_query_regions(tree: KDTree, region, grain: int = 16) -> list[np.ndarray]:
    """Data-parallel batch of region queries (one id array per query).

    Queries run in blocks across the scheduler — the paper's range
    search benchmark shape (parallel across queries).  The batch size
    picks the vectorized frontier traversal or the per-query walk
    (:func:`~repro.kdtree.batch.resolve_engine`); results and charges
    are identical.  The lock-step engine is entered through the shape's
    public entry point (``region.lockstep``, looked up on :mod:`.batch`
    at call time), so a profiler wrapping those names sees every call.
    """
    from . import batch

    m = len(region)
    if batch.resolve_engine(m, "range") == "batched":
        return getattr(batch, region.lockstep)(tree, *region.args, grain=grain)

    results: list = [None] * m
    blocks = query_blocks(m, grain=grain)

    def run_block(b: int) -> None:
        lo_i, hi_i = blocks[b]
        for i in range(lo_i, hi_i):
            results[i] = _walk(tree, region, i)

    get_scheduler().parallel_for(len(blocks), run_block)
    return results


def range_query_batch(tree: KDTree, los, his, grain: int = 16) -> list[np.ndarray]:
    """Data-parallel batch of box queries (one result list per box)."""
    return range_query_regions(tree, Box(los, his), grain)


def range_query_ball_batch(tree: KDTree, centers, radii, grain: int = 16) -> list[np.ndarray]:
    """Data-parallel batch of ball queries (per-query radii allowed)."""
    return range_query_regions(tree, Ball(centers, radii), grain)
