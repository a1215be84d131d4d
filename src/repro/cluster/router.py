"""Scatter-gather planning and execution over a set of shards.

The router's job is twofold:

* **Plan** — decide, per query, which shards can possibly contribute.
  Box/ball queries visit only shards whose bounding boxes the query
  region's node test does not find disjoint (:func:`plan_range`); kNN
  fans out to shards whose box mindist is within the candidate k-th
  distance established by a home-shard probe (see
  :mod:`repro.cluster.index`).  Plans are (m, n_shards) boolean masks
  computed by one vectorized box-arithmetic pass.
* **Execute** — run one slab per planned shard and charge the slabs as
  *parallel children* in the work–depth model
  (:meth:`repro.parlay.scheduler.Scheduler.parallel_do` composes the
  per-shard frames as sum-work / max-depth + log-fanout), so simulated
  ``T_p`` reflects scatter-gather scaling: the critical path is the
  slowest shard plus the merge, not the sum of shards.

Gather ordering is canonical: kNN candidates merge by
``lexsort((gid, d2, qidx))`` — ascending distance, ties broken by
ascending global id — and range hits return sorted ascending by global
id.  On tie-free inputs the kNN rows are identical to a monolithic
tree's (the squared distances are computed by the same kernels either
way, and the top-k distance multiset is partition-invariant).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..obs.rtrace import current_trace_ids
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge
from .procwork import query_slab

__all__ = [
    "bbox_mindist2",
    "merge_knn",
    "plan_range",
    "scatter",
]


def bbox_mindist2(lo: np.ndarray, hi: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(m, S) squared distance from each query to each shard's box.

    Empty shards carry the ``(+inf, -inf)`` sentinel box and come out
    at infinite distance, so they are never fanned out to.
    """
    gap = np.maximum(lo[None, :, :] - queries[:, None, :], 0.0) + np.maximum(
        queries[:, None, :] - hi[None, :, :], 0.0
    )
    return np.einsum("qsd,qsd->qs", gap, gap)


def plan_range(region, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(m, S) mask: can shard s's box hold a hit of query i of ``region``?

    ``region`` is a :class:`~repro.kdtree.range_search.Box` or
    :class:`~repro.kdtree.range_search.Ball` batch; a shard is planned
    unless the region's node test finds its box disjoint (a ball of
    negative radius plans no shard at all).
    """
    m, S = len(region), len(lo)
    disjoint, _ = region.node_test(
        np.tile(lo, (m, 1)), np.tile(hi, (m, 1)), np.repeat(np.arange(m), S)
    )
    return ~disjoint.reshape(m, S)


def scatter(
    mask: np.ndarray, shards, snaps, kind: str, label: str, args
) -> list[tuple[int, np.ndarray, object]]:
    """Execute one slab per planned shard; shards are parallel children.

    ``mask`` is the (m, S) plan over ``shards``; each planned shard runs
    :func:`~repro.cluster.procwork.query_slab` of ``kind`` over query
    rows ``qidx``, whose arrays ``args(qidx)`` cuts out of the batch.
    Returns ``[(shard_idx, qidx, result), ...]`` for the shards with
    non-empty slabs.  The scheduler composes the slab costs as
    sum-work / max-depth, which is exactly the scatter-gather DAG.

    On the ``processes`` backend the same slab description, with the
    shard's shared-memory snapshot spec from ``snaps``
    (:class:`~repro.cluster.snapshot.SnapshotManager`), ships to the
    worker pool with the shard index as affinity — shard-pinned workers
    read the shard's state from shared memory — with identical cost
    composition, results and gather order.  Elsewhere the slabs run on
    ``shards[s].tree`` in this process.
    """
    active = np.flatnonzero(mask.any(axis=0)).tolist()
    slabs = [np.flatnonzero(mask[:, s]) for s in active]
    sched = get_scheduler()
    # the serve-layer batch executing on this thread, if any: shard
    # spans are tagged with its member trace ids so one exported
    # timeline names the requests each lane computed for
    trace_ids = current_trace_ids()

    if sched.backend == "processes":
        results = sched.process_map("repro.cluster.procwork:run_slab", [
            (s, (snaps.spec_for(s, shards[s]), s, kind, label, args(q),
                 trace_ids))
            for s, q in zip(active, slabs)
        ])
    else:
        results = sched.parallel_do([
            partial(query_slab, shards[s].tree, s, kind, label, args(q),
                    trace_ids)
            for s, q in zip(active, slabs)
        ])
    return list(zip(active, slabs, results))


def merge_knn(
    m: int, kk: int, parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-``kk`` merge of per-shard kNN slabs.

    ``parts`` holds ``(qidx, d2, gid)`` triples: slab rows ``d2``/``gid``
    of shape (len(qidx), kk) padded with inf/-1.  Returns (m, kk)
    arrays, each row the kk globally-nearest candidates sorted by
    (distance, gid) — deterministic under any sharding.
    """
    out_d = np.full((m, kk), np.inf)
    out_g = np.full((m, kk), -1, dtype=np.int64)
    if not parts:
        return out_d, out_g
    q = np.concatenate([np.repeat(qidx, d2.shape[1]) for qidx, d2, _ in parts])
    d = np.concatenate([d2.ravel() for _, d2, _ in parts])
    g = np.concatenate([gid.ravel() for _, _, gid in parts])
    valid = g >= 0
    q, d, g = q[valid], d[valid], g[valid]
    if not len(q):
        return out_d, out_g
    charge(len(q))
    order = np.lexsort((g, d, q))
    q, d, g = q[order], d[order], g[order]
    counts = np.bincount(q, minlength=m)
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(q), dtype=np.int64) - starts[q]
    take = rank < kk
    out_d[q[take], rank[take]] = d[take]
    out_g[q[take], rank[take]] = g[take]
    return out_d, out_g
