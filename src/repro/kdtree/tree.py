"""Static kd-tree in van Emde Boas (cache-oblivious) layout.

Implements paper Algorithm 1 (parallel vEB construction): nodes live in
one contiguous array; each recursive step lays out the top "half" of the
tree (``l_t`` levels) followed by the ``2^{l_t}`` bottom subtrees
consecutively, which is exactly the vEB recursive layout of Agarwal et
al.  Splits are either by **object median** (median coordinate among the
points) or **spatial median** (midpoint of the node's box).

The tree stores a permutation of point indices; leaves reference
contiguous slices of it.  Deletion (paper Algorithm 2) tombstones points
and contracts the structure; see :mod:`repro.kdtree.delete`.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.bbox import BBox
from ..core.points import as_array
from ..obs.span import span
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge, fork_costs
from .build import build_batched

__all__ = [
    "KDTree",
    "NodeGeometry",
    "box_dist2",
    "hyperceiling",
    "SPATIAL_MEDIAN",
    "OBJECT_MEDIAN",
]

OBJECT_MEDIAN = "object"
SPATIAL_MEDIAN = "spatial"

#: Subproblems below this size build sequentially (task grain).
_SEQ_CUTOFF = 4096

#: Node slots per geometry chunk (log2): see :class:`NodeGeometry`.
_CHUNK_BITS = 8
_CHUNK = 1 << _CHUNK_BITS


def hyperceiling(n: int) -> int:
    """Smallest power of two >= n (paper footnote 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class NodeGeometry:
    """One query's node-vs-query tests, computed a vEB chunk at a time.

    A single-query tree walk asks one question of every node it visits
    (is the node's box disjoint from / inside the query region?).
    Answering it per node costs several numpy calls on d-element rows.
    Instead, the first visit to a node evaluates ``tests(box_lo, box_hi)``
    over the node's whole chunk of :data:`_CHUNK` consecutive vEB slots
    — row-wise array arithmetic returning two per-slot sequences — and
    later visits in that chunk read entries.  The vEB layout keeps a
    subtree, and a root-to-leaf path, within few chunks; a serving
    shard's tree (at most 255 slots) is a single chunk.  Chunks are
    computed lazily: a table for every node would cost more than the
    walk visits on a large tree.
    """

    __slots__ = ("_tree", "_tests", "_chunks")

    def __init__(self, tree: KDTree, tests):
        self._tree = tree
        self._tests = tests
        self._chunks: dict = {}

    def __call__(self, idx: int) -> tuple:
        """The two test values of node ``idx``."""
        c = idx >> _CHUNK_BITS
        ab = self._chunks.get(c)
        if ab is None:
            s = c << _CHUNK_BITS
            t = self._tree
            ab = self._chunks[c] = self._tests(
                t.box_lo[s : s + _CHUNK], t.box_hi[s : s + _CHUNK]
            )
        j = idx & (_CHUNK - 1)
        return ab[0][j], ab[1][j]


def box_dist2(box_lo: np.ndarray, box_hi: np.ndarray, q: np.ndarray) -> tuple:
    """Squared min and max distances from ``q`` to each box row.

    Rows reduce with ``einsum("ij,ij->i")``, exactly as the lock-step
    engine does, so pruning and tie decisions round identically on
    both sides.  ``|q - lo| == |lo - q|``, so the far-corner distance
    reuses the differences.
    """
    below = box_lo - q
    above = q - box_hi
    gap = np.maximum(below, 0.0) + np.maximum(above, 0.0)
    far = np.maximum(np.abs(below), np.abs(above))
    return np.einsum("ij,ij->i", gap, gap), np.einsum("ij,ij->i", far, far)


class KDTree:
    """A static kd-tree over an (n, d) point array.

    Parameters
    ----------
    points:
        (n, d) array or PointSet.  The tree keeps a reference (it does
        not copy coordinates).
    split:
        ``'object'`` (object median) or ``'spatial'`` (spatial median).
    leaf_size:
        Target maximum points per leaf.

    The split rule picks the builder: object-median trees build
    level-at-a-time (:func:`~repro.kdtree.build.build_batched`);
    spatial-median trees have data-dependent structure and build by the
    per-node recursion below.
    """

    def __init__(self, points, split: str = OBJECT_MEDIAN, leaf_size: int = 16, gids=None):
        pts = as_array(points)
        if split not in (OBJECT_MEDIAN, SPATIAL_MEDIAN):
            raise ValueError(f"unknown split rule {split!r}")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = pts
        # global point ids (used by BDL-trees whose points span many
        # static trees); defaults to local indices
        if gids is None:
            self.gids = np.arange(len(pts), dtype=np.int64)
        else:
            self.gids = np.asarray(gids, dtype=np.int64)
            if len(self.gids) != len(pts):
                raise ValueError("gids length mismatch")
        self.split = split
        self.leaf_size = leaf_size
        n, d = pts.shape
        self.n_points = n
        self.dim = d

        # number of levels: enough that a balanced tree has <= leaf_size
        # points per leaf
        if n == 0:
            levels = 1
        else:
            levels = max(1, math.ceil(math.log2(max(1, n / leaf_size))) + 1)
        self.levels = levels
        nslots = (1 << levels) - 1

        # flat node storage (vEB order = array order)
        self.split_dim = np.full(nslots, -1, dtype=np.int32)
        self.split_val = np.zeros(nslots, dtype=np.float64)
        self.left = np.full(nslots, -1, dtype=np.int64)
        self.right = np.full(nslots, -1, dtype=np.int64)
        self.is_leaf = np.zeros(nslots, dtype=bool)
        self.used = np.zeros(nslots, dtype=bool)
        self.start = np.zeros(nslots, dtype=np.int64)
        self.end = np.zeros(nslots, dtype=np.int64)
        self.box_lo = np.zeros((nslots, d), dtype=np.float64)
        self.box_hi = np.zeros((nslots, d), dtype=np.float64)
        self.live = np.zeros(nslots, dtype=np.int64)

        self.perm = np.arange(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.n_alive = n
        self.root = 0 if n > 0 else -1
        # monotonic mutation counter: bumped whenever the live point set
        # changes, so result caches keyed on it can never serve stale data
        self.version = 0

        if n > 0:
            with span("kdtree.build", batch=n, split=split):
                if split == OBJECT_MEDIAN:
                    build_batched(self)
                else:
                    self._build()

    # ------------------------------------------------------------------
    # Construction (paper Algorithm 1)
    # ------------------------------------------------------------------
    def _set_node(self, idx: int, lo: int, hi: int) -> None:
        self.used[idx] = True
        self.start[idx] = lo
        self.end[idx] = hi
        self.live[idx] = hi - lo
        seg = self.points[self.perm[lo:hi]]
        charge(max(hi - lo, 1))
        self.box_lo[idx] = seg.min(axis=0)
        self.box_hi[idx] = seg.max(axis=0)

    def _partition(self, lo: int, hi: int, dim: int) -> tuple[int, float]:
        """Partition perm[lo:hi] about a split on ``dim``.

        Returns (mid, split_val): left child gets [lo, mid), right
        [mid, hi), points with coordinate <= split_val on the left.
        Charges the parallel-partition cost W=m, D=log m.
        """
        m = hi - lo
        charge(m, math.log2(m) if m > 1 else 1.0)
        seg = self.perm[lo:hi]
        vals = self.points[seg, dim]
        if self.split == SPATIAL_MEDIAN:
            sv = 0.5 * (float(vals.min()) + float(vals.max()))
            mask = vals <= sv
            nl = int(np.count_nonzero(mask))
            if nl == 0 or nl == m:
                # degenerate spatial split: fall back to object median
                return self._object_partition(lo, hi, seg, vals)
            left_ids = seg[mask]  # copies: seg views perm, which we overwrite
            right_ids = seg[~mask]
            self.perm[lo : lo + nl] = left_ids
            self.perm[lo + nl : hi] = right_ids
            return lo + nl, sv
        return self._object_partition(lo, hi, seg, vals)

    def _object_partition(self, lo, hi, seg, vals) -> tuple[int, float]:
        m = hi - lo
        half = m // 2
        order = np.argpartition(vals, half)
        self.perm[lo:hi] = seg[order]
        sv = float(vals[order[half]])
        return lo + half, sv

    def _build(self) -> None:
        sched = get_scheduler()

        def build_rec(
            lo: int,
            hi: int,
            idx: int,
            cdim: int,
            l: int,
            top: bool,
            frontier_out: list,
        ) -> None:
            """BuildvEBRecursive (paper Alg. 1).

            ``frontier_out`` collects (node, lo, mid, hi) for base-case
            internal nodes of a TOP build, so the caller can wire their
            children to the roots of the bottom subtrees.  Each forked
            task collects into its own local list, merged in task order
            after the join — frontier order (and hence vEB slot
            assignment) is deterministic on every backend.
            """
            m = hi - lo
            if l == 1:
                if top and m >= 2:
                    # internal node: parallel median partition on cdim
                    self._set_node(idx, lo, hi)
                    mid, sv = self._partition(lo, hi, cdim)
                    self.split_dim[idx] = cdim
                    self.split_val[idx] = sv
                    # children are wired by the caller (frontier)
                    frontier_out.append((idx, lo, mid, hi))
                else:
                    self._set_node(idx, lo, hi)
                    self.is_leaf[idx] = True
                return
            if m <= self.leaf_size or m < 2:
                # short subtree: make a leaf here; descendant slots unused
                self._set_node(idx, lo, hi)
                self.is_leaf[idx] = True
                return

            lb = hyperceiling((l + 1) // 2)
            lt = l - lb

            # build top half (collects a frontier of split ranges)
            frontier: list = []
            build_rec(lo, hi, idx, cdim, lt, True, frontier)

            # lay out bottom subtrees consecutively after the top half
            idx_b = idx + (1 << lt) - 1
            subtree_slots = (1 << lb) - 1
            tasks = []
            pos = idx_b
            for (pidx, plo, pmid, phi) in frontier:
                for child, (clo, chi) in (("L", (plo, pmid)), ("R", (pmid, phi))):
                    cidx = pos
                    pos += subtree_slots
                    if chi - clo == 0:
                        continue
                    if child == "L":
                        self.left[pidx] = cidx
                    else:
                        self.right[pidx] = cidx
                    ndim = (cdim + lt) % self.dim
                    tasks.append((clo, chi, cidx, ndim, lb, top))

            def run_task(a):
                local: list = []
                build_rec(*a, local)
                return local

            thunks = [(lambda a=a: run_task(a)) for a in tasks]
            if m > _SEQ_CUTOFF and len(tasks) > 1:
                locals_by_task = sched.parallel_do(thunks)
            else:
                # inline execution, parallel cost composition (the
                # subtree builds are independent either way)
                locals_by_task = fork_costs(thunks)
            for local in locals_by_task:
                frontier_out.extend(local)

        build_rec(0, self.n_points, 0, 0, self.levels, False, [])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node_box(self, idx: int) -> BBox:
        return BBox(self.box_lo[idx], self.box_hi[idx])

    def node_points(self, idx: int, alive_only: bool = True) -> np.ndarray:
        """Point ids stored under node ``idx``."""
        ids = self.perm[self.start[idx] : self.end[idx]]
        if alive_only:
            ids = ids[self.alive[ids]]
        return ids

    def gather_alive(self) -> np.ndarray:
        """Ids of all non-deleted points in the tree."""
        return self.perm[self.alive[self.perm]]

    def size(self) -> int:
        return self.n_alive

    def height(self) -> int:
        """Actual height of the built tree (root = height 1)."""
        if self.root < 0:
            return 0

        def h(i: int) -> int:
            if i < 0:
                return 0
            if self.is_leaf[i]:
                return 1
            return 1 + max(h(int(self.left[i])), h(int(self.right[i])))

        return h(self.root)

    def check_invariants(self) -> None:
        """Validate structural invariants (used by tests)."""
        if self.root < 0:
            return
        seen: list[int] = []

        def rec(i: int, lo_req: np.ndarray, hi_req: np.ndarray) -> int:
            assert self.used[i], f"unused node {i} reachable"
            ids = self.perm[self.start[i] : self.end[i]]
            pts = self.points[ids]
            assert np.all(pts >= self.box_lo[i] - 1e-12)
            assert np.all(pts <= self.box_hi[i] + 1e-12)
            seen.extend(ids.tolist())
            if self.is_leaf[i]:
                return len(ids)
            d = int(self.split_dim[i])
            sv = float(self.split_val[i])
            total = 0
            li, ri = int(self.left[i]), int(self.right[i])
            if li >= 0:
                lids = self.perm[self.start[li] : self.end[li]]
                assert np.all(self.points[lids, d] <= sv + 1e-12)
                total += rec(li, lo_req, hi_req)
            if ri >= 0:
                rids = self.perm[self.start[ri] : self.end[ri]]
                assert np.all(self.points[rids, d] >= sv - 1e-12)
                total += rec(ri, lo_req, hi_req)
            # internal node ranges must cover exactly the children
            assert total == len(ids), f"node {i}: child sizes {total} != {len(ids)}"
            return len(ids)

        n_seen = rec(self.root, self.box_lo[self.root], self.box_hi[self.root])
        assert n_seen == self.n_points

    # -- queries are provided by the sibling modules and re-exported on the
    #    class for convenience --------------------------------------------
    def knn(self, queries, k: int, exclude_self: bool = False):
        from .knn import knn as _knn

        return _knn(self, queries, k, exclude_self=exclude_self)

    def knn_into(self, queries, buffers, exclude_self: bool = False):
        from .knn import knn_into as _knn_into

        return _knn_into(self, queries, buffers, exclude_self=exclude_self)

    def range_query_box(self, lo, hi):
        from .range_search import range_query_box as _rq

        return _rq(self, lo, hi)

    def range_query_ball(self, center, radius):
        from .range_search import range_query_ball as _rb

        return _rb(self, center, radius)

    def erase(self, point_coords, out: list | None = None) -> int:
        from .delete import erase as _erase

        return _erase(self, point_coords, out)
