"""`ShardedIndex` — the sharded spatial index facade.

Partitions a dataset into Hilbert-range shards
(:class:`~repro.cluster.partitioner.HilbertPartitioner`), each a
batch-dynamic :class:`~repro.cluster.shard.Shard`, and answers the full
existing query API by scatter-gather with geometric pruning
(:mod:`repro.cluster.router`):

* **box / ball** — one path for both region shapes: only shards whose
  bounding boxes the region's node test does not find disjoint are
  visited;
* **kNN** — two-phase: probe each query's *home shard* (the one its
  Hilbert code routes to) for a candidate k-th distance, then fan out
  only to shards whose box mindist is within that candidate ball, and
  merge canonically.  The pruning invariant: a skipped shard has
  ``mindist² > r²`` for the home shard's k-th candidate distance ``r``,
  and every true top-k point lies within ``r`` of the query, so skipped
  shards cannot contribute.

The index is **batch-dynamic**: inserts and erases route per shard
(routing is stable — the partitioner's quantization bounds are frozen
at build), every mutation bumps the monotonic ``version`` counter (so
:class:`~repro.serve.service.GeometryService`'s versioned result cache
can never serve a stale answer), and shards whose size exceeds a skew
threshold are split at their median Hilbert code.

The query surface matches what :func:`repro.kdtree.batch.execute_requests`
dispatches on (``dim`` / ``version`` / ``knn`` /
``range_query_box[_batch]`` / ``range_query_ball[_batch]``), so a
``ShardedIndex`` registers directly into ``GeometryService`` and the
service's coalesced slabs scatter across shards transparently.  Global
ids are returned everywhere; range results come back sorted ascending
by id (the canonical gather order).
"""

from __future__ import annotations

import numpy as np

from ..core.bbox import TouchedRegion, _LastTouched
from ..core.points import as_array
from ..kdtree.build import shared_skeletons
from ..kdtree.range_search import Ball, Box
from ..obs.registry import MetricsRegistry
from ..obs.span import span
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge
from .partitioner import HilbertPartitioner
from .router import bbox_mindist2, merge_knn, plan_range, scatter
from .shard import Shard
from .snapshot import SnapshotManager

__all__ = ["ShardedIndex"]

#: Histogram buckets for the shards-touched-per-query fraction.
_TOUCH_BUCKETS = tuple(i / 16 for i in range(1, 17))


def _check_finite(pts: np.ndarray) -> None:
    """Reject NaN/inf coordinates before they reach routing: they have
    no Hilbert code, would poison a shard's bounding box, and a NaN
    point could never be erased again (NaN != NaN)."""
    if not np.isfinite(pts).all():
        raise ValueError("ShardedIndex points must have finite coordinates")


class ShardedIndex:
    """A Hilbert-sharded, batch-dynamic spatial index.

    Parameters
    ----------
    points:
        (n, d) build set (also fixes the routing bounds).
    n_shards:
        Initial shard count (rebalancing may grow it).
    bits:
        Per-dimension Hilbert resolution (default ``62 // d``).
    buffer_size, leaf_size:
        Tuning constants of the per-shard BDL-trees.  ``buffer_size``
        defaults to ``None`` — each shard auto-sizes its flush
        threshold to its build batch so a fresh build leaves (almost)
        nothing in the brute-force buffer.
    skew_threshold:
        A shard is split when its size exceeds
        ``max(skew_threshold * mean_size, rebalance_min)``.
    rebalance_min:
        Absolute size floor below which shards are never split.
    registry:
        Metrics registry to publish shard gauges / pruning histograms
        on (a private one is created when omitted).
    """

    def __init__(
        self,
        points,
        n_shards: int = 8,
        *,
        bits: int | None = None,
        buffer_size: int | None = None,
        leaf_size: int = 16,
        skew_threshold: float = 4.0,
        rebalance_min: int = 1024,
        registry: MetricsRegistry | None = None,
    ):
        pts = as_array(points)
        n, d = pts.shape
        if n == 0:
            raise ValueError("ShardedIndex needs a non-empty build set")
        _check_finite(pts)
        if skew_threshold <= 1.0:
            raise ValueError("skew_threshold must be > 1")
        self.dim = d
        self.buffer_size = buffer_size
        self.leaf_size = leaf_size
        self.skew_threshold = float(skew_threshold)
        self.rebalance_min = int(rebalance_min)
        self.part = HilbertPartitioner(pts, n_shards, bits=bits)
        self.next_gid = n
        # monotonic mutation counter (versioned result caches key on it)
        self.version = 0
        # the last effective mutation's TouchedRegion arguments; the
        # region is built when ``last_touched`` is read
        self._touched: tuple | TouchedRegion | None = None
        # shared-memory snapshots of per-shard query state, packed
        # lazily (processes backend only) and re-packed on version bump
        self._snaps = SnapshotManager()

        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        reg.gauge("cluster_shards", "live shard count").set_function(
            lambda: len(self.shards)
        )
        reg.gauge("cluster_points", "live points across all shards").set_function(
            self.size
        )
        reg.gauge("cluster_shard_size_max", "largest shard").set_function(
            lambda: max((s.size() for s in self.shards), default=0)
        )
        reg.gauge("cluster_shard_size_min", "smallest shard").set_function(
            lambda: min((s.size() for s in self.shards), default=0)
        )
        self._m_queries = reg.counter("cluster_queries", "queries routed")
        self._m_visits = reg.counter(
            "cluster_shard_visits", "shard visits summed over queries"
        )
        self._m_rebalances = reg.counter("cluster_rebalances", "shard splits")
        self._m_touched = reg.histogram(
            "cluster_touched_frac",
            "fraction of shards touched per query",
            buckets=_TOUCH_BUCKETS,
        )

        gids = np.arange(n, dtype=np.int64)
        owner = self.part.owners(self.part.build_codes)
        S = self.part.n_shards
        # equal-size shard trees share one skeleton (kdtree.build)
        with shared_skeletons(), span("cluster.build", cat="cluster", batch=n, shards=S):
            self.shards: list[Shard] = get_scheduler().parallel_do(
                [
                    (
                        lambda s=s: Shard(
                            d,
                            pts[owner == s],
                            gids[owner == s],
                            buffer_size=buffer_size,
                            leaf_size=leaf_size,
                        )
                    )
                    for s in range(S)
                ]
            )
        self._restack()
        self._maybe_rebalance()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def size(self) -> int:
        return sum(s.size() for s in self.shards)

    def __len__(self) -> int:
        return self.size()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_sizes(self) -> list[int]:
        return [s.size() for s in self.shards]

    def gather_points(self) -> tuple[np.ndarray, np.ndarray]:
        """All live (coords, gids) across every shard."""
        parts = [s.gather() for s in self.shards if s.size() > 0]
        if not parts:
            return (np.empty((0, self.dim)), np.empty(0, dtype=np.int64))
        return (
            np.vstack([p for p, _ in parts]),
            np.concatenate([g for _, g in parts]),
        )

    def pruning_stats(self) -> dict:
        """Aggregate pruning effectiveness since construction."""
        q = self._m_queries.value
        v = self._m_visits.value
        return {
            "queries": int(q),
            "shard_visits": int(v),
            "shards": len(self.shards),
            "mean_touched_frac": (v / (q * len(self.shards))) if q else 0.0,
        }

    #: Key-range and shard ids of the last effective mutation.
    last_touched = _LastTouched()

    def _restack(self) -> None:
        """(Re)build the shard table from the shards: (S, d) box arrays
        ``_lo`` / ``_hi`` and live sizes ``_sizes``.

        Each shard's ``lo`` / ``hi`` become views of its table rows, so
        the mutation path updates the table once per batch and the
        shards read the same boxes.  Runs at construction and after a
        split; inserts and erases update the rows in place.
        """
        self._lo = np.stack([s.lo for s in self.shards])
        self._hi = np.stack([s.hi for s in self.shards])
        self._sizes = np.array([s.size() for s in self.shards], dtype=np.int64)
        for i, sh in enumerate(self.shards):
            sh.lo, sh.hi = self._lo[i], self._hi[i]

    def _boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """The shard table's (S, d) box arrays (read-only to callers)."""
        return self._lo, self._hi

    def _occupied(self) -> np.ndarray:
        return self._sizes > 0

    def _group(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, list]:
        """Route a batch and group its rows by owning shard.

        Returns ``(order, starts, targets, bounds)``: ``pts[order]``
        holds the rows grouped by ascending owner, input order kept
        within a group (one stable argsort), group ``j`` is rows
        ``bounds[j]:bounds[j + 1]`` of it and belongs to shard
        ``targets[j]`` — the rows and order ``pts[owner == s]`` selects.
        """
        owner = self.part.route(pts)
        order = np.argsort(owner, kind="stable")
        so = owner[order]
        starts = np.flatnonzero(np.concatenate(([True], so[1:] != so[:-1])))
        return order, starts, so[starts].tolist(), starts.tolist() + [len(pts)]

    def _observe(self, touched: np.ndarray) -> None:
        S = len(self.shards)
        self._m_queries.inc(len(touched))
        self._m_visits.inc(float(touched.sum()))
        for f in touched / S:
            self._m_touched.observe(float(f))

    def close(self) -> None:
        """Unlink this index's shared-memory snapshots (idempotent)."""
        self._snaps.release_all()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # two-phase kNN
    # ------------------------------------------------------------------
    def knn(
        self,
        queries,
        k: int,
        exclude_self: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of each query: (sq-dists, global ids), (m, k).

        Rows are sorted by distance with ties broken by ascending global
        id — the canonical merge order, independent of the sharding.
        """
        qs = as_array(queries)
        m = len(qs)
        kk = k + 1 if exclude_self else k
        if m == 0:
            return np.empty((0, k)), np.empty((0, k), dtype=np.int64)

        with span("cluster.knn", cat="cluster", batch=m, shards=len(self.shards)):
            home = self.part.route(qs)
            probe = np.zeros((m, len(self.shards)), dtype=bool)
            probe[np.arange(m), home] = True

            # phase 1: probe each query's home shard for a candidate
            # kk-th distance (inf when the home shard is underfull)
            probe_out = scatter(
                probe, self.shards, self._snaps, "knn", "knn.probe",
                lambda qidx: (qs[qidx], kk, None),
            )
            r2 = np.full(m, np.inf)
            parts = []
            for _, qidx, (d2, gid) in probe_out:
                r2[qidx] = d2[:, kk - 1]
                parts.append((qidx, d2, gid))

            # phase 2: fan out only to shards whose box intersects the
            # candidate ball (<= keeps boundary ties safe).  The search
            # is seeded with the candidate radius — nextafter keeps
            # d2 == r2 ties — so non-contributing shards prune near
            # their root instead of running a full search.
            lo, hi = self._boxes()
            fan = bbox_mindist2(lo, hi, qs) <= r2[:, None]
            fan &= self._occupied()[None, :]
            fan[np.arange(m), home] = False
            cutoff = np.nextafter(r2, np.inf)

            for _, qidx, res in scatter(
                fan, self.shards, self._snaps, "knn", "knn.fanout",
                lambda qidx: (qs[qidx], kk, cutoff[qidx]),
            ):
                parts.append((qidx, res[0], res[1]))

            d2, gid = merge_knn(m, kk, parts)
            self._observe(1 + fan.sum(axis=1))

        if not exclude_self:
            return d2, gid
        # same drop rule as the monolithic extract: shift out the
        # closest hit when it is the query point itself
        hit = (gid[:, 0] >= 0) & (d2[:, 0] <= 1e-18)
        cols = np.where(hit, 1, 0)[:, None] + np.arange(k)[None, :]
        return np.take_along_axis(d2, cols, axis=1), np.take_along_axis(
            gid, cols, axis=1
        )

    # ------------------------------------------------------------------
    # degraded home-shard-only kNN (overload escape hatch)
    # ------------------------------------------------------------------
    def knn_home(
        self,
        queries,
        k: int,
        exclude_self: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """*Approximate* kNN answered from each query's home shard only.

        This is phase 1 of :meth:`knn` without the fan-out: each query
        visits exactly the shard its Hilbert code routes to, so the
        cost is bounded by one shard search regardless of how wide the
        exact fan-out would have been — the degraded path the serving
        front-end switches to under overload.

        The answer is exact kNN *restricted to the home shard's live
        points*: every returned (distance, id) pair is a real point at
        its true squared distance, and rank-for-rank the distances are
        >= the exact answer's (the candidate set is a subset).  Rows
        are padded with ``inf``/``-1`` when the home shard holds fewer
        than ``k`` points.  Callers must label results as approximate —
        the serving layer never returns them unlabelled.
        """
        qs = as_array(queries)
        m = len(qs)
        kk = k + 1 if exclude_self else k
        if m == 0:
            return np.empty((0, k)), np.empty((0, k), dtype=np.int64)

        with span("cluster.knn_home", cat="cluster", batch=m,
                  shards=len(self.shards)):
            home = self.part.route(qs)
            probe = np.zeros((m, len(self.shards)), dtype=bool)
            probe[np.arange(m), home] = True
            probe &= self._occupied()[None, :]

            parts = [
                (qidx, d2, gid)
                for _, qidx, (d2, gid) in scatter(
                    probe, self.shards, self._snaps, "knn", "knn.home",
                    lambda qidx: (qs[qidx], kk, None),
                )
            ]
            d2, gid = merge_knn(m, kk, parts)
            self._observe(probe.sum(axis=1))

        if not exclude_self:
            return d2, gid
        hit = (gid[:, 0] >= 0) & (d2[:, 0] <= 1e-18)
        cols = np.where(hit, 1, 0)[:, None] + np.arange(k)[None, :]
        return np.take_along_axis(d2, cols, axis=1), np.take_along_axis(
            gid, cols, axis=1
        )

    # ------------------------------------------------------------------
    # pruned range search
    # ------------------------------------------------------------------
    def range_query_box_batch(self, los, his) -> list[np.ndarray]:
        """Per-query global ids inside closed boxes, sorted ascending."""
        return self._range(Box(np.atleast_2d(los), np.atleast_2d(his)))

    def range_query_ball_batch(self, centers, radii) -> list[np.ndarray]:
        """Per-query global ids within the radii, sorted ascending."""
        return self._range(Ball(np.atleast_2d(centers), radii))

    def range_query_box(self, lo, hi) -> np.ndarray:
        return self.range_query_box_batch([lo], [hi])[0]

    def range_query_ball(self, center, radius: float) -> np.ndarray:
        return self.range_query_ball_batch([center], [radius])[0]

    def _range(self, region) -> list[np.ndarray]:
        """Plan, scatter and gather one region batch.

        Each planned shard's slab is the sub-batch of its queries, run
        through the shard tree's ``range_query_<label>_batch``.
        """
        m = len(region)
        if m == 0:
            return []
        label = region.label
        with span(f"cluster.{label}", cat="cluster", batch=m, shards=len(self.shards)):
            mask = plan_range(region, *self._boxes()) & self._occupied()[None, :]
            out = self._gather_range(m, scatter(
                mask, self.shards, self._snaps, label, label,
                lambda qidx: region.take(qidx).args,
            ))
            self._observe(mask.sum(axis=1))
        return out

    @staticmethod
    def _gather_range(m: int, parts) -> list[np.ndarray]:
        hits: list[list[np.ndarray]] = [[] for _ in range(m)]
        total = 0
        for _, qidx, res in parts:
            for i, g in zip(qidx, res):
                if len(g):
                    hits[i].append(g)
                    total += len(g)
        charge(total + m)  # canonical ascending-gid merge
        return [
            np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64)
            for p in hits
        ]

    # ------------------------------------------------------------------
    # batch-dynamic mutation
    # ------------------------------------------------------------------
    def insert(self, points, gids=None) -> np.ndarray:
        """Insert a batch, routed per shard; returns the global ids."""
        pts = as_array(points)
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        _check_finite(pts)
        me = len(pts)
        if gids is None:
            gids = np.arange(self.next_gid, self.next_gid + me, dtype=np.int64)
            self.next_gid += me
        else:
            gids = np.asarray(gids, dtype=np.int64)
            if gids.shape != (me,):
                raise ValueError("gids must have one id per inserted point")
            if me:
                self.next_gid = max(self.next_gid, int(gids.max()) + 1)
        if me == 0:
            return gids
        with span("cluster.insert", cat="cluster", batch=me):
            order, starts, targets, bounds = self._group(pts)
            sp, sg = pts[order], gids[order]
            shards = self.shards
            # the trees take the rows; the table below grows the boxes
            get_scheduler().parallel_do(
                [
                    (lambda s=s, a=a, b=b: shards[s].tree.insert(sp[a:b], gids=sg[a:b]))
                    for s, a, b in zip(targets, bounds, bounds[1:])
                ]
            )
            lo, hi = self._lo, self._hi
            lo[targets] = np.minimum(lo[targets], np.minimum.reduceat(sp, starts))
            hi[targets] = np.maximum(hi[targets], np.maximum.reduceat(sp, starts))
            self._sizes[targets] += np.diff(bounds)
            self.version += 1
            self._maybe_rebalance()
            self._touched = ("insert", sp, me, self.version, targets)
        return gids

    def erase(self, points, out: list | None = None) -> int:
        """Erase a batch by coordinates; returns #deleted.

        Equal coordinates share a Hilbert code and therefore a shard,
        so the per-shard erase deletes exactly the points a monolithic
        erase would.  ``out``, when given, receives the global ids of
        the deleted points (in no particular order).
        """
        pts = as_array(points)
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        _check_finite(pts)
        if len(pts) == 0:
            return 0
        with span("cluster.erase", cat="cluster", batch=len(pts)):
            order, _, targets, bounds = self._group(pts)
            sp = pts[order]
            shards = self.shards
            counts = get_scheduler().parallel_do(
                [
                    (lambda s=s, a=a, b=b: shards[s].erase(sp[a:b], out))
                    for s, a, b in zip(targets, bounds, bounds[1:])
                ]
            )
            deleted = int(sum(counts))
            if deleted:
                # boxes stay conservative on erase; only sizes shrink
                self._sizes[targets] -= counts
                self.version += 1
                self._touched = ("erase", sp, deleted, self.version, targets)
        return deleted

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def _maybe_rebalance(self) -> None:
        """Split overfull shards at their median Hilbert code."""
        changed = True
        while changed:
            changed = False
            sizes = self._sizes
            total = int(sizes.sum())
            if total == 0:
                return
            limit = max(
                self.skew_threshold * total / len(self.shards),
                float(self.rebalance_min),
            )
            if sizes.max() <= limit:
                return
            for s in np.argsort(sizes)[::-1]:
                if sizes[s] <= limit:
                    break
                if self._split_shard(int(s)):
                    changed = True
                    break  # shard indices shifted; re-plan

    def _split_shard(self, s: int) -> bool:
        pts, gids = self.shards[s].gather()
        if len(pts) < 2:
            return False
        codes = self.part.codes(pts)
        v = self.part.split_code(codes)
        if v is None:
            return False  # single-code shard: unsplittable
        self.part.insert_threshold(v, s)
        # the members' codes lie in (thresholds[s-1], thresholds[s+1]],
        # so those <= v now route to s and the rest to s + 1
        left = codes <= v
        mk = lambda sel: Shard(
            self.dim,
            pts[sel],
            gids[sel],
            buffer_size=self.buffer_size,
            leaf_size=self.leaf_size,
        )
        with shared_skeletons():
            self.shards[s : s + 1] = [mk(left), mk(~left)]
        self._restack()
        self._m_rebalances.inc()
        self.version += 1
        return True
