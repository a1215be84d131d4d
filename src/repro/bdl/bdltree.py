"""The BDL-tree: a parallel batch-dynamic kd-tree (paper §5, App. C).

The BDL-tree applies the logarithmic method (Bentley–Saxe) to the static
vEB kd-tree: a small *buffer tree* of capacity ``X`` plus static trees
of capacities ``X·2^0, X·2^1, …``.  A bitmask ``F`` marks which static
trees are occupied.

**Batch insert** (Alg. 3): points are staged through the buffer; every
``X`` staged points convert into "units".  ``F_new = F + units`` — the
bitwise difference tells exactly which trees to destroy and which to
build; destroyed trees' points plus the new points are rebuilt into the
new trees, each construction running in parallel.

**Batch delete** (Alg. 4): erase the batch from every tree in parallel;
gather trees that dropped below half capacity; reinsert their points.

**k-NN** (App. C.4): one k-NN buffer per query, reused across the
log-structure's trees, so results merge across trees.
"""

from __future__ import annotations

import numpy as np

from ..core.bbox import TouchedRegion, _LastTouched
from ..core.points import as_array
from ..kdtree.delete import _match_rows
from ..kdtree.knnbuffer import KNNBuffer
from ..kdtree.tree import KDTree, OBJECT_MEDIAN
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge

__all__ = ["BDLTree"]


class BDLTree:
    """Batch-dynamic kd-tree built from a log-structured set of kd-trees.

    Parameters
    ----------
    dim:
        Dimensionality of the points.
    buffer_size:
        The buffer-tree capacity ``X`` (the paper's tuning constant).
    split:
        Split rule for the underlying static trees ('object'/'spatial').
    leaf_size:
        Leaf capacity of the static trees.
    """

    def __init__(
        self,
        dim: int,
        buffer_size: int = 1024,
        split: str = OBJECT_MEDIAN,
        leaf_size: int = 16,
    ):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.dim = dim
        self.X = buffer_size
        self.split = split
        self.leaf_size = leaf_size

        # buffer tree contents (kept as arrays; X is small)
        self.buf_pts = np.empty((0, dim), dtype=np.float64)
        self.buf_gids = np.empty(0, dtype=np.int64)

        # static trees: index i has capacity X * 2^i; None when empty
        self.trees: list[KDTree | None] = []
        self.next_gid = 0
        # monotonic mutation counter: bumped once per batch insert/erase
        # that changes the live point set (version-keyed result caches —
        # repro.serve — rely on it to never serve stale answers)
        self.version = 0
        # the last effective mutation's TouchedRegion arguments; the
        # region is built when ``last_touched`` is read
        self._touched: tuple | TouchedRegion | None = None

    @classmethod
    def _from_parts(
        cls,
        *,
        dim: int,
        buffer_size: int,
        split: str,
        leaf_size: int,
        next_gid: int,
        version: int,
        buf_pts: np.ndarray,
        buf_gids: np.ndarray,
        trees: list[KDTree | None],
    ) -> "BDLTree":
        """Reassemble a BDL-tree around existing state (no copies, no build).

        Used by :mod:`repro.cluster.snapshot` to reconstruct a read-only
        queryable view inside worker processes from shared-memory-backed
        arrays.  The caller owns the lifetime of the arrays; the result
        must not be mutated.
        """
        self = cls.__new__(cls)
        self.dim = dim
        self.X = buffer_size
        self.split = split
        self.leaf_size = leaf_size
        self.buf_pts = buf_pts
        self.buf_gids = buf_gids
        self.trees = trees
        self.next_gid = next_gid
        self.version = version
        self._touched = None
        return self

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    #: Key-range of the last effective mutation (see
    #: :class:`~repro.core.bbox.TouchedRegion`).
    last_touched = _LastTouched()

    def capacity(self, i: int) -> int:
        return self.X * (1 << i)

    @property
    def bitmask(self) -> int:
        """Bitmask F of occupied static trees (bit i = tree i in use)."""
        f = 0
        for i, t in enumerate(self.trees):
            if t is not None and t.size() > 0:
                f |= 1 << i
        return f

    def size(self) -> int:
        """Number of live points across the whole structure."""
        return len(self.buf_pts) + sum(
            t.size() for t in self.trees if t is not None
        )

    def __len__(self) -> int:
        return self.size()

    def gather_points(self) -> tuple[np.ndarray, np.ndarray]:
        """All live (coords, gids) across buffer and static trees."""
        chunks_p = [self.buf_pts]
        chunks_g = [self.buf_gids]
        for t in self.trees:
            if t is not None and t.size() > 0:
                ids = t.gather_alive()
                chunks_p.append(t.points[ids])
                chunks_g.append(t.gids[ids])
        return np.vstack(chunks_p), np.concatenate(chunks_g)

    # ------------------------------------------------------------------
    # batch insertion (paper Algorithm 3)
    # ------------------------------------------------------------------
    def insert(self, points, gids=None) -> np.ndarray:
        """Insert a batch of points; returns their assigned global ids.

        ``gids`` optionally fixes the global ids of the batch (one per
        point) instead of drawing fresh ones from the internal counter —
        used by sharded indexes whose id space spans many BDL-trees.
        """
        pts = as_array(points)
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        m = len(pts)
        if gids is None:
            gids = np.arange(self.next_gid, self.next_gid + m, dtype=np.int64)
            self.next_gid += m
        else:
            gids = np.asarray(gids, dtype=np.int64)
            if gids.shape != (m,):
                raise ValueError("gids must have one id per inserted point")
            if m:
                self.next_gid = max(self.next_gid, int(gids.max()) + 1)
        if m == 0:
            return gids
        self._insert_with_ids(pts, gids)
        self.version += 1
        # a copy: the caller may reuse its array before the region is read
        self._touched = ("insert", pts.copy(), m, self.version)
        return gids

    def _insert_with_ids(self, pts: np.ndarray, gids: np.ndarray) -> None:
        charge(len(pts))
        # stage through the buffer: keep (buffer + batch) mod X points
        # buffered, convert the rest into whole units of X
        all_pts = np.vstack([self.buf_pts, pts])
        all_gids = np.concatenate([self.buf_gids, gids])
        total = len(all_pts)
        keep = total % self.X
        move = total - keep

        self.buf_pts = all_pts[move:]
        self.buf_gids = all_gids[move:]
        if move == 0:
            return
        units = move // self.X

        f = self.bitmask
        f_new = f + units
        destroy = f & ~f_new
        build = f_new & ~f

        # gather source points: destroyed trees + the staged points
        pool_p = [all_pts[:move]]
        pool_g = [all_gids[:move]]
        for i in range(len(self.trees)):
            if destroy >> i & 1:
                t = self.trees[i]
                if t is not None:
                    ids = t.gather_alive()
                    pool_p.append(t.points[ids])
                    pool_g.append(t.gids[ids])
                self.trees[i] = None
        src_p = np.vstack(pool_p)
        src_g = np.concatenate(pool_g)

        # build the new trees in parallel, largest first; if earlier
        # deletions left the destroyed trees under-full, the largest new
        # tree absorbs the shortfall
        bits = [i for i in range(f_new.bit_length()) if build >> i & 1]
        while len(self.trees) < f_new.bit_length():
            self.trees.append(None)

        plans = []
        offset = 0
        for i in sorted(bits):
            c = min(self.capacity(i), len(src_p) - offset)
            plans.append((i, offset, offset + c))
            offset += c
        # any residue goes to the largest new tree
        if offset < len(src_p) and plans:
            i, lo, hi = plans[-1]
            plans[-1] = (i, lo, len(src_p))

        sched = get_scheduler()

        def build_one(plan):
            i, lo, hi = plan
            if hi > lo:
                self.trees[i] = KDTree(
                    src_p[lo:hi],
                    split=self.split,
                    leaf_size=self.leaf_size,
                    gids=src_g[lo:hi],
                )

        if len(plans) > 1:
            sched.parallel_do([(lambda p=p: build_one(p)) for p in plans])
        elif plans:
            build_one(plans[0])

    # ------------------------------------------------------------------
    # batch deletion (paper Algorithm 4)
    # ------------------------------------------------------------------
    def erase(self, points, out: list | None = None) -> int:
        """Delete a batch of points by coordinates; returns #deleted.

        ``out``, when given, receives the global ids of the deleted
        points (in no particular order).
        """
        q = as_array(points)
        if q.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        if len(q) == 0:
            return 0
        sched = get_scheduler()
        deleted = 0

        # 1. erase from the buffer
        if len(self.buf_pts):
            hit = _match_rows(self.buf_pts, q)
            if hit.any():
                k = int(np.count_nonzero(hit))
                if out is not None:
                    out.extend(self.buf_gids[hit].tolist())
                self.buf_pts = self.buf_pts[~hit]
                self.buf_gids = self.buf_gids[~hit]
                deleted += k

        # 2. erase from each nonempty static tree in parallel
        live_trees = [t for t in self.trees if t is not None and t.size() > 0]
        counts = sched.map_tasks(lambda t: t.erase(q, out), live_trees)
        deleted += sum(counts)

        # 3. gather under-half-capacity trees and reinsert their points
        re_p = []
        re_g = []
        for i, t in enumerate(self.trees):
            if t is None:
                continue
            if t.size() < self.capacity(i) / 2:
                ids = t.gather_alive()
                if len(ids):
                    re_p.append(t.points[ids])
                    re_g.append(t.gids[ids])
                self.trees[i] = None
        if re_p:
            self._insert_with_ids(np.vstack(re_p), np.concatenate(re_g))
        if deleted:
            self.version += 1
            self._touched = ("erase", q.copy(), deleted, self.version)
        return deleted

    # ------------------------------------------------------------------
    # data-parallel k-NN (paper App. C.4)
    # ------------------------------------------------------------------
    def knn(
        self,
        queries,
        k: int,
        exclude_self: bool = False,
        bound: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of each query across all trees.

        Returns (squared distances, global ids), each (m, k) sorted by
        distance per row.  The batch size picks the per-tree search
        (vectorized frontier or per-query walk,
        :func:`~repro.kdtree.batch.resolve_engine`).  Results and
        charges are identical.

        ``bound`` is an optional per-query *exclusive* squared-distance
        cutoff: candidates at ``d2 >= bound[i]`` are pruned and rows
        may come back underfull (inf/-1 padded).  A sharded index's
        fan-out phase uses it so shards outside the candidate ball
        prune near the root instead of running a full search.  Both
        engines honour it: a seeded row keeps pruning while underfull.
        """
        from ..kdtree.batch import resolve_engine

        qs = as_array(queries)
        m = len(qs)
        if resolve_engine(m, "knn") == "batched":
            return self._knn_batched(qs, k, exclude_self, bound)
        kk = k + 1 if exclude_self else k
        buffers = [KNNBuffer(kk) for _ in range(m)]
        if bound is not None:
            # seed the pruning bound: the search only ever tightens it
            seeds = np.broadcast_to(np.asarray(bound, dtype=np.float64), (m,))
            for b, r in zip(buffers, seeds):
                b.bound = float(r)

        # iterate over the non-empty trees sequentially; each k-NN call
        # is internally data-parallel and reuses the same buffers
        from ..kdtree.knn import knn_into

        for t in self.trees:
            if t is not None and t.size() > 0:
                knn_into(t, qs, buffers)

        # the buffer tree: brute-force scan (it holds < X points)
        if len(self.buf_pts):
            charge(m * len(self.buf_pts))
            for i in range(m):
                diff = self.buf_pts - qs[i]
                d2 = np.einsum("ij,ij->i", diff, diff)
                buffers[i].insert_batch(d2, self.buf_gids)

        from ..kdtree.knn import extract_knn_results

        return extract_knn_results(buffers, k, exclude_self)

    def _knn_batched(
        self, queries, k: int, exclude_self: bool, bound: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array-at-a-time k-NN: one batch buffer set shared across the
        log-structure's trees, then a vectorized buffer-tree scan."""
        from ..kdtree.batch import BatchKNNBuffers, batched_knn_into

        qs = as_array(queries)
        m = len(qs)
        kk = k + 1 if exclude_self else k
        buf = BatchKNNBuffers(m, kk)
        if bound is not None:
            # seed the pruning bound: the search only ever tightens it
            # (_compact takes the max of the k best, all < the seed)
            buf.bound[:] = np.asarray(bound, dtype=np.float64)

        for t in self.trees:
            if t is not None and t.size() > 0:
                batched_knn_into(t, qs, buf)

        nb = len(self.buf_pts)
        if nb:
            charge(m * nb)
            rows = np.arange(m, dtype=np.int64)
            lens = np.full(m, nb, dtype=np.int64)
            # chunk the (m, nb) cross-distance matrix to bound memory
            step = max(1, (1 << 22) // max(nb, 1))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                diff = self.buf_pts[None, :, :] - qs[lo:hi, None, :]
                d2 = np.einsum("ijk,ijk->ij", diff, diff).ravel()
                g = np.tile(self.buf_gids, hi - lo)
                buf.insert_grouped(rows[lo:hi], d2, g, lens[lo:hi])
            # the recursive path charges each query's insert serially
            buf.flush_serial()

        return buf.extract(k, exclude_self)

    # ------------------------------------------------------------------
    # range search across the log-structure
    # ------------------------------------------------------------------
    def range_query_box(self, lo, hi) -> np.ndarray:
        """Global ids of live points in the closed box [lo, hi]."""
        from ..kdtree.range_search import range_query_box

        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        parts = []
        for t in self.trees:
            if t is not None and t.size() > 0:
                local = range_query_box(t, lo, hi)
                if len(local):
                    parts.append(t.gids[local])
        if len(self.buf_pts):
            charge(len(self.buf_pts))
            mask = np.all((self.buf_pts >= lo) & (self.buf_pts <= hi), axis=1)
            if mask.any():
                parts.append(self.buf_gids[mask])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def range_query_ball(self, center, radius: float) -> np.ndarray:
        """Global ids of live points within ``radius`` of ``center``."""
        from ..kdtree.range_search import ball_r2, range_query_ball

        c = np.asarray(center, dtype=np.float64)
        parts = []
        for t in self.trees:
            if t is not None and t.size() > 0:
                local = range_query_ball(t, c, radius)
                if len(local):
                    parts.append(t.gids[local])
        if len(self.buf_pts):
            charge(len(self.buf_pts))
            diff = self.buf_pts - c
            d2 = np.einsum("ij,ij->i", diff, diff)
            mask = d2 <= ball_r2(radius)
            if mask.any():
                parts.append(self.buf_gids[mask])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # batched range search (array-at-a-time across the log-structure)
    # ------------------------------------------------------------------
    def range_query_box_batch(self, los, his) -> list[np.ndarray]:
        """Per-query global ids for a batch of box queries.

        Each query's hits concatenate in the same order as the
        single-query path (static trees in slot order, then the buffer
        tree), so row ``i`` is bitwise-identical to
        ``range_query_box(los[i], his[i])``.
        """
        from ..kdtree.range_search import range_query_batch

        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        m = len(los)
        parts: list[list[np.ndarray]] = [[] for _ in range(m)]
        for t in self.trees:
            if t is not None and t.size() > 0:
                for i, local in enumerate(range_query_batch(t, los, his)):
                    if len(local):
                        parts[i].append(t.gids[local])
        if len(self.buf_pts):
            charge(m * len(self.buf_pts))
            inside = np.all(
                (self.buf_pts[None, :, :] >= los[:, None, :])
                & (self.buf_pts[None, :, :] <= his[:, None, :]),
                axis=2,
            )
            for i in np.flatnonzero(inside.any(axis=1)):
                parts[i].append(self.buf_gids[inside[i]])
        return [
            np.concatenate(p) if p else np.empty(0, dtype=np.int64) for p in parts
        ]

    def range_query_ball_batch(self, centers, radii) -> list[np.ndarray]:
        """Per-query global ids for a batch of ball queries."""
        from ..kdtree.range_search import ball_r2s, range_query_ball_batch

        cs = np.asarray(centers, dtype=np.float64)
        m = len(cs)
        rr = np.broadcast_to(np.asarray(radii, dtype=np.float64), (m,))
        parts: list[list[np.ndarray]] = [[] for _ in range(m)]
        for t in self.trees:
            if t is not None and t.size() > 0:
                for i, local in enumerate(range_query_ball_batch(t, cs, rr)):
                    if len(local):
                        parts[i].append(t.gids[local])
        if len(self.buf_pts):
            charge(m * len(self.buf_pts))
            diff = self.buf_pts[None, :, :] - cs[:, None, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            inside = d2 <= ball_r2s(rr)[:, None]
            for i in np.flatnonzero(inside.any(axis=1)):
                parts[i].append(self.buf_gids[inside[i]])
        return [
            np.concatenate(p) if p else np.empty(0, dtype=np.int64) for p in parts
        ]

