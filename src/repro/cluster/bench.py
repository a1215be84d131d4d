"""Monolithic-vs-sharded comparison harness.

Runs the same mixed kNN + ball-range workload against a monolithic
:class:`~repro.kdtree.tree.KDTree` and a
:class:`~repro.cluster.index.ShardedIndex`, recording wall-clock, the
charged work/depth, simulated ``T_p`` under Brent's bound, and the
sharded index's pruning statistics.  Shared by the ``cluster-bench``
CLI subcommand and the ``BENCH_cluster.json`` perf gate.

Geometric pruning keeps the scatter-gather work overhead small (a
query pays for the shards its candidate ball actually intersects, and
seeded fan-out searches prune near the root), while the per-shard
slabs are parallel children over much smaller trees, so the critical
path is *shorter* than the monolithic tree's.  The result is a higher
simulated speedup ``T1/Tp`` at ``p`` workers — which is what the gate
asserts.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..kdtree.batch import batched_range_query_ball_batch
from ..kdtree.tree import KDTree
from ..parlay.scheduler import use_backend
from ..parlay.workdepth import simulated_speedup, simulated_time, tracker
from .index import ShardedIndex

__all__ = ["compare_cluster", "compare_procs", "summary", "summary_procs"]


def _workload(points: np.ndarray, n_queries: int, seed: int, radius_frac: float):
    """Query mix shaped like traffic: jittered dataset points."""
    rng = np.random.default_rng(seed)
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    base = points[rng.integers(len(points), size=n_queries)]
    qs = base + rng.normal(0, 0.01, base.shape) * span
    n_ball = max(1, n_queries // 2)
    centers = points[rng.integers(len(points), size=n_ball)]
    radius = float(radius_frac * span.max())
    return qs, centers, radius


def compare_cluster(
    points,
    *,
    n_shards: int = 16,
    k: int = 10,
    n_queries: int = 2000,
    workers: float = 36.0,
    seed: int = 0,
    radius_frac: float = 0.05,
) -> dict:
    """Run the comparison; returns a JSON-ready record."""
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    qs, centers, radius = _workload(pts, n_queries, seed, radius_frac)
    radii = np.full(len(centers), radius)

    # -- monolithic --------------------------------------------------------
    tree = KDTree(pts)
    tracker.reset()
    t0 = time.perf_counter()
    d2_mono, _ids_mono = tree.knn(qs, k, exclude_self=False)
    balls_mono = [
        np.sort(tree.gids[i])
        for i in batched_range_query_ball_batch(tree, centers, radii)
    ]
    wall_mono = time.perf_counter() - t0
    cost_mono = tracker.reset()

    # -- sharded -----------------------------------------------------------
    idx = ShardedIndex(pts, n_shards)
    tracker.reset()
    t0 = time.perf_counter()
    d2_shard, _ids_shard = idx.knn(qs, k, exclude_self=False)
    balls_shard = idx.range_query_ball_batch(centers, radii)
    wall_shard = time.perf_counter() - t0
    cost_shard = tracker.reset()

    def side(wall, cost):
        return {
            "wall_s": wall,
            "work": cost.work,
            "depth": cost.depth,
            "t1": simulated_time(cost, 1.0),
            "tp": simulated_time(cost, workers),
            "speedup": simulated_speedup(cost, workers),
        }

    rec = {
        "n": n,
        "dims": d,
        "k": k,
        "knn_queries": len(qs),
        "ball_queries": len(centers),
        "radius": radius,
        "workers": workers,
        "shards_initial": n_shards,
        "shards_final": idx.n_shards,
        "mono": side(wall_mono, cost_mono),
        "sharded": side(wall_shard, cost_shard),
        "pruning": idx.pruning_stats(),
        "knn_distances_equal": bool(np.array_equal(d2_mono, d2_shard)),
        "ball_results_equal": all(
            np.array_equal(a, b) for a, b in zip(balls_mono, balls_shard)
        ),
    }
    rec["tp_ratio"] = (
        rec["mono"]["tp"] / rec["sharded"]["tp"]
        if rec["sharded"]["tp"] > 0
        else float("inf")
    )
    return rec


def compare_procs(
    points,
    *,
    n_shards: int = 8,
    k: int = 10,
    n_queries: int = 2000,
    procs: tuple[int, ...] = (1, 2, 4),
    seed: int = 0,
    radius_frac: float = 0.05,
) -> dict:
    """Measured-vs-simulated scaling of the ``processes`` backend.

    Runs the cluster scatter-gather workload (kNN + ball ranges) on one
    :class:`ShardedIndex` under ``use_backend("processes", p)`` for each
    ``p``, timing the steady state: a warm-up pass first packs the
    shared-memory snapshots, starts the pool and attaches the workers,
    so the timed pass measures slab execution, not setup.  Reports, per
    ``p``: measured wall clock, measured speedup vs the 1-process run,
    the charged (work, depth), and the simulated ``T_p`` at the same
    ``p`` — the gate asserts the two tell the same qualitative story.
    Results are checked bitwise against a monolithic tree throughout.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    qs, centers, radius = _workload(pts, n_queries, seed, radius_frac)
    radii = np.full(len(centers), radius)

    tree = KDTree(pts)
    d2_mono, _ = tree.knn(qs, k, exclude_self=False)
    balls_mono = [
        np.sort(tree.gids[i])
        for i in batched_range_query_ball_batch(tree, centers, radii)
    ]

    idx = ShardedIndex(pts, n_shards)
    runs: dict[str, dict] = {}
    knn_equal = True
    ball_equal = True
    for p in procs:
        with use_backend("processes", int(p)):
            # warm-up: snapshot pack + pool start + worker attach
            idx.knn(qs[: min(32, len(qs))], k)
            tracker.reset()
            t0 = time.perf_counter()
            d2, _ = idx.knn(qs, k, exclude_self=False)
            balls = idx.range_query_ball_batch(centers, radii)
            wall = time.perf_counter() - t0
            cost = tracker.reset()
        knn_equal &= bool(np.array_equal(d2_mono, d2))
        ball_equal &= all(
            np.array_equal(a, b) for a, b in zip(balls_mono, balls)
        )
        runs[str(int(p))] = {
            "wall_s": wall,
            "work": cost.work,
            "depth": cost.depth,
            "tp_sim": simulated_time(cost, float(p)),
            "sim_speedup": simulated_speedup(cost, float(p)),
        }

    base = runs[str(int(procs[0]))]["wall_s"]
    for r in runs.values():
        r["measured_speedup"] = base / r["wall_s"] if r["wall_s"] > 0 else 0.0

    return {
        "n": n,
        "dims": d,
        "k": k,
        "knn_queries": len(qs),
        "ball_queries": len(centers),
        "radius": radius,
        "shards": idx.n_shards,
        "procs": [int(p) for p in procs],
        "cpu_count": os.cpu_count() or 1,
        "runs": runs,
        "knn_distances_equal": knn_equal,
        "ball_results_equal": ball_equal,
    }


def summary(rec: dict) -> str:
    """Human-readable table of a :func:`compare_cluster` record."""
    m, s, p = rec["mono"], rec["sharded"], rec["pruning"]
    lines = [
        f"cluster-bench: n={rec['n']} d={rec['dims']} k={rec['k']} "
        f"({rec['knn_queries']} kNN + {rec['ball_queries']} ball queries), "
        f"{rec['shards_final']} shards, p={rec['workers']:g}",
        f"  {'':10s} {'wall':>9s} {'work':>12s} {'depth':>10s} "
        f"{'T_p':>12s} {'speedup':>8s}",
        f"  {'monolith':10s} {m['wall_s']:>8.3f}s {m['work']:>12.3g} "
        f"{m['depth']:>10.3g} {m['tp']:>12.3g} {m['speedup']:>7.2f}x",
        f"  {'sharded':10s} {s['wall_s']:>8.3f}s {s['work']:>12.3g} "
        f"{s['depth']:>10.3g} {s['tp']:>12.3g} {s['speedup']:>7.2f}x",
        f"  scatter-gather speedup {s['speedup']:.2f}x vs monolithic "
        f"{m['speedup']:.2f}x; mean shards touched "
        f"{p['mean_touched_frac']:.1%} "
        f"({p['shard_visits']} visits / {p['queries']} queries)",
    ]
    return "\n".join(lines)


def summary_procs(rec: dict) -> str:
    """Human-readable table of a :func:`compare_procs` record."""
    lines = [
        f"procs-bench: n={rec['n']} d={rec['dims']} k={rec['k']} "
        f"({rec['knn_queries']} kNN + {rec['ball_queries']} ball queries), "
        f"{rec['shards']} shards, {rec['cpu_count']} cpus",
        f"  {'p':>3s} {'wall':>9s} {'measured':>9s} {'T_p sim':>12s} "
        f"{'simulated':>10s}",
    ]
    for p in rec["procs"]:
        r = rec["runs"][str(p)]
        lines.append(
            f"  {p:>3d} {r['wall_s']:>8.3f}s {r['measured_speedup']:>8.2f}x "
            f"{r['tp_sim']:>12.3g} {r['sim_speedup']:>9.2f}x"
        )
    lines.append(
        "  results bitwise-equal to monolithic: "
        f"knn={rec['knn_distances_equal']} ball={rec['ball_results_equal']}"
    )
    return "\n".join(lines)
