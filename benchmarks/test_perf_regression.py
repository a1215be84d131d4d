"""Performance regression gates: query engine + geometry query service.

Engine gate: measures the batched (vectorized frontier) k-NN engine
against the recursive per-query walk on the headline workload — 50k-point
self-kNN with k=10 in 2D and 7D — and records the runs into
``BENCH_knn.json`` at the repo root (self-describing records via
``EngineComparison.to_json``).  Each side runs with every tree call
forced onto its engine (``tests/_engines.py``).  The two engines must return
bitwise-identical neighbors and charge identical work/depth; at full
scale (``REPRO_BENCH_SCALE >= 1``) the batched engine must also be at
least 5x faster, which is the point of having it.

Small-batch gate: the serving path issues tree calls of one or a few
queries, where the default path's size rule
(``repro.kdtree.batch.resolve_engine``) must pick the per-query walk.
On a 1,250-point tree (one shard of the 16-shard serving index) and a
20K-point tree it times k-NN (k=8) batches of m=1 and m=64 through the
default path and through the lock-step engine.  Rows and charges must
be equal; at full scale the default path must be >= 2x faster at m=1
and no slower at m=64, where both run the lock-step engine.  Speedups
are medians of per-pass-pair ratios over 9 alternating pairs.  The
1.25x allowance at m=64 is host noise (best-of-N minima of identical
code differed by up to 1.41x on a shared 2-vCPU VM); walking m=64
would measure about 1.4x.  The record lands in ``BENCH_knn.json``
under ``small_batch`` with ``kind: wall``.

Service gate: replays a 10k-request mixed kNN/range trace through
``repro.serve.GeometryService`` and requires (at full scale) coalesced
throughput >= 5x the one-request-at-a-time walk loop, plus a cache
hit-rate >= 50% on a repeated trace.  Results land in
``BENCH_serve.json``.

Observability gate: on the 50k self-kNN workload, span tracing must
cost <= 5% when disabled (estimated from the per-scope disabled-path
overhead times the number of instrumented scopes the traced run
recorded) and <= 2x wall-clock when enabled; the exported Chrome trace
must pass the trace-event schema check and its per-span work/depth
totals must reconcile with the ``CostTracker``'s.  Results land in
``BENCH_obs.json``.

Cluster gate: runs the mixed kNN + ball workload of
``repro.cluster.bench.compare_cluster`` on clustered (2D-V) input and
requires (at full scale) a mean shards-touched fraction < 60% and a
simulated scatter-gather speedup at p = 36 at least the monolithic
tree's, with bitwise-equal results.  Results land in
``BENCH_cluster.json``.

Process gate: runs the same scatter-gather workload under the real
``processes`` backend at p = 1, 2, 4 via
``repro.cluster.bench.compare_procs`` and records measured wall-clock
speedup next to the simulated ``T_p`` number in ``BENCH_procs.json``.
Bitwise equality against the monolithic tree is unconditional; the
wall-clock assertions (measured speedup > 1.5x at >= 4 workers,
monotone-ish in p) only fire when the gate machine actually has >= 4
cores — the JSON records whether the gate was applied and why.
"""

import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench import Measurement, bench_scale, measure
from repro.kdtree import KDTree, knn
from repro.parlay import tracker
from repro.serve import GeometryService, replay, run_unbatched, synthetic_trace

from conftest import data, run_once

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests._engines import forced_engine  # noqa: E402

N = bench_scale(50_000)
K = 10
FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0
MIN_RATIO = 5.0

SMALL_TREES = (bench_scale(1_250), bench_scale(20_000))
SMALL_K = 8
SMALL_BATCHES = 20                     # query batches per timing pass
MIN_SMALL_M1_SPEEDUP = 2.0             # default vs lock-step at m=1
MAX_SMALL_M64_RATIO = 1.25             # default / lock-step at m=64

SERVE_N = bench_scale(20_000)          # points served
SERVE_REQUESTS = bench_scale(10_000)   # trace length
MIN_SERVE_RATIO = 5.0
MIN_HIT_RATE = 0.5

MAX_TRACING_DISABLED_OVERHEAD = 0.05   # estimated, vs untraced wall-clock
MAX_TRACING_ENABLED_RATIO = 2.0        # traced vs untraced wall-clock

CLUSTER_N = bench_scale(20_000)        # points in the sharded-index gate
CLUSTER_QUERIES = bench_scale(2_000)
CLUSTER_SHARDS = 16
CLUSTER_WORKERS = 36.0
MAX_TOUCHED_FRAC = 0.6                 # mean shards touched per query

PROCS_N = bench_scale(20_000)          # points in the processes gate
PROCS_QUERIES = bench_scale(2_000)
PROCS_SHARDS = 8
PROCS_LADDER = (1, 2, 4)
MIN_PROCS_SPEEDUP = 1.5                # measured, at >= 4 workers
MIN_PROCS_CORES = 4                    # wall-clock gate needs real cores

_records: dict[str, dict] = {}
_small_records: dict[str, dict] = {}
_serve_records: dict[str, dict] = {}
_obs_records: dict[str, dict] = {}
_cluster_records: dict[str, dict] = {}
_procs_records: dict[str, dict] = {}


@dataclass
class EngineComparison:
    """Wall-clock comparison of one query workload across engines."""

    name: str
    batched: Measurement
    recursive: Measurement

    @property
    def ratio(self) -> float:
        """How many times faster the batched engine ran (wall-clock)."""
        if self.batched.t1 <= 0:
            return float("inf")
        return self.recursive.t1 / self.batched.t1

    def charges_match(self, rtol: float = 1e-9) -> bool:
        cb, cr = self.batched.cost, self.recursive.cost
        return (
            abs(cb.work - cr.work) <= rtol * max(cr.work, 1.0)
            and abs(cb.depth - cr.depth) <= rtol * max(cr.depth, 1.0)
        )

    def summary(self) -> str:
        return (
            f"{self.name}: batched {self.batched.t1:.4g}s vs recursive "
            f"{self.recursive.t1:.4g}s ({self.ratio:.2f}x), "
            f"charges {'match' if self.charges_match() else 'DIFFER'}"
        )

    def to_json(self) -> dict:
        """Self-describing record: both engines' runs + shared metadata.

        Metadata common to both runs (n, dims, k, repeat, backend, ...)
        is lifted into a top-level ``meta`` so a ``BENCH_*.json`` entry
        explains itself without reference to the generating script.
        """
        b, r = self.batched.to_json(), self.recursive.to_json()
        shared = {k: v for k, v in b["meta"].items()
                  if k in r["meta"] and r["meta"][k] == v and k != "engine"}
        for rec in (b, r):
            rec["meta"] = {k: v for k, v in rec["meta"].items() if k not in shared}
        return {
            "name": self.name,
            "meta": shared,
            "ratio": self.ratio,
            "charges_match": self.charges_match(),
            "batched": b,
            "recursive": r,
        }


def measure_engines(name: str, fn, *args, meta: dict | None = None,
                    **kwargs) -> EngineComparison:
    """Run ``fn`` once with every tree call forced onto each query
    engine; the two runs' work/depth charges should agree
    (``charges_match``) since the engines are cost-equivalent."""
    runs = {}
    for engine in ("batched", "recursive"):
        with forced_engine(engine):
            runs[engine] = measure(
                f"{name}[{engine}]", fn, *args,
                meta={**(meta or {}), "engine": engine}, **kwargs,
            )
    return EngineComparison(name, runs["batched"], runs["recursive"])


def _bench(benchmark, ds_name: str):
    pts = data(f"{ds_name}-{N}")
    tree = KDTree(pts)
    cmp = measure_engines(
        f"knn {ds_name} n={N} k={K}", knn, tree, pts, K,
        exclude_self=True, meta={"n": N, "dims": pts.shape[1], "k": K},
    )
    db, ib = cmp.batched.result
    dr, ir = cmp.recursive.result
    assert np.array_equal(ib, ir), "engines returned different neighbors"
    assert np.array_equal(db, dr), "engines returned different distances"
    assert cmp.charges_match(), (
        f"work/depth charges diverge: batched {cmp.batched.cost} "
        f"vs recursive {cmp.recursive.cost}"
    )
    _records[ds_name] = cmp.to_json()
    print("\n" + cmp.summary())
    if FULL_SCALE:
        assert cmp.ratio >= MIN_RATIO, (
            f"batched engine only {cmp.ratio:.2f}x faster on {ds_name} "
            f"(regression gate requires >= {MIN_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def test_knn_2d_engine_ratio(benchmark):
    _bench(benchmark, "2D-U")


def test_knn_7d_engine_ratio(benchmark):
    _bench(benchmark, "7D-U")


def _on(engine):
    """The default path (``None``: the size rule) or a forced engine."""
    return nullcontext() if engine is None else forced_engine(engine)


def _costed_knn(tree, qs, engine):
    tracker.reset()
    with _on(engine):
        d, i = knn(tree, qs, SMALL_K)
    cost = tracker.total()
    tracker.reset()
    return d, i, cost


def _timed_knn(tree, batches) -> dict:
    """Per-pass seconds per batch for the default path (None) and the
    lock-step engine over 9 back-to-back pass pairs, alternating which
    side runs first, so a slow stretch of the host hits both sides of a
    pair alike."""
    times = {None: [], "batched": []}
    for p in range(9):
        for engine in (None, "batched") if p % 2 == 0 else ("batched", None):
            with _on(engine):
                t0 = time.perf_counter()
                for qs in batches:
                    knn(tree, qs, SMALL_K)
                times[engine].append((time.perf_counter() - t0) / len(batches))
    return times


def test_small_batch_engine_choice(benchmark):
    """The default path runs single-request tree calls at walk speed."""
    pts = data(f"2D-U-{SMALL_TREES[-1]}")
    rng = np.random.default_rng(3)
    runs = {}
    for n in SMALL_TREES:
        tree = KDTree(pts[:n])
        lo, hi = pts[:n].min(axis=0), pts[:n].max(axis=0)
        for m in (1, 64):
            batches = [rng.uniform(lo, hi, (m, 2)) for _ in range(SMALL_BATCHES)]
            for qs in batches:
                d0, i0, c0 = _costed_knn(tree, qs, None)
                d1, i1, c1 = _costed_knn(tree, qs, "batched")
                assert np.array_equal(d0, d1) and np.array_equal(i0, i1)
                assert c0.work == c1.work
                assert np.isclose(c0.depth, c1.depth, rtol=1e-9)
            times = _timed_knn(tree, batches)
            t_def = float(np.median(times[None]))
            t_bat = float(np.median(times["batched"]))
            # median of the per-pair ratios: robust to host drift
            speedup = float(np.median(np.divide(times["batched"], times[None])))
            runs[f"n={n} m={m}"] = {
                "n": n, "m": m, "k": SMALL_K,
                "default_ms": t_def * 1e3,
                "lockstep_ms": t_bat * 1e3,
                "speedup": speedup,
            }
            print(f"\nsmall batch n={n} m={m}: default {t_def * 1e3:.3f} ms, "
                  f"lock-step {t_bat * 1e3:.3f} ms (paired {speedup:.2f}x)")
    _small_records.update(runs)
    if FULL_SCALE:
        for r in runs.values():
            if r["m"] == 1:
                assert r["speedup"] >= MIN_SMALL_M1_SPEEDUP, (
                    f"default path only {r['speedup']:.2f}x faster than the "
                    f"lock-step engine at m=1, n={r['n']} "
                    f"(gate: >= {MIN_SMALL_M1_SPEEDUP}x)"
                )
            else:
                assert 1.0 / r["speedup"] <= MAX_SMALL_M64_RATIO, (
                    f"default path {1.0 / r['speedup']:.2f}x the lock-step "
                    f"engine's time at m=64, n={r['n']} "
                    f"(gate: <= {MAX_SMALL_M64_RATIO}x)"
                )
    run_once(benchmark, lambda: None)


def _assert_results_equal(served, baseline):
    assert len(served) == len(baseline)
    for a, b in zip(served, baseline):
        if isinstance(a, tuple):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        else:
            assert np.array_equal(a, b)


def test_serve_coalesced_throughput(benchmark):
    """Coalesced service >= 5x the one-at-a-time walk loop."""
    pts = data(f"2D-U-{SERVE_N}")
    trace = synthetic_trace(pts, SERVE_REQUESTS, kinds=("knn", "ball", "box"),
                            k=K, repeat_frac=0.0, seed=7)

    service = GeometryService(max_batch=1024,
                              cache_capacity=4 * SERVE_REQUESTS)
    service.register("bench", KDTree(pts))
    report = replay(service, "bench", trace)

    t0 = time.perf_counter()
    baseline = run_unbatched(KDTree(pts), trace)
    t_unbatched = time.perf_counter() - t0

    _assert_results_equal(report.results, baseline)
    ratio = t_unbatched / report.seconds if report.seconds > 0 else float("inf")
    snap = report.stats
    _serve_records["throughput"] = {
        "n": SERVE_N,
        "requests": SERVE_REQUESTS,
        "k": K,
        "mix": ["knn", "ball", "box"],
        "t_service": report.seconds,
        "t_unbatched": t_unbatched,
        "ratio": ratio,
        "req_per_s": report.throughput,
        "avg_batch_size": snap["avg_batch_size"],
        "max_batch_size": snap["max_batch_size"],
        "work_charged": snap["work_charged"],
        "depth_charged": snap["depth_charged"],
    }
    print(f"\nserve: {report.summary()}")
    print(f"unbatched: {t_unbatched:.3f}s -> service {ratio:.2f}x faster")
    if FULL_SCALE:
        assert ratio >= MIN_SERVE_RATIO, (
            f"coalesced service only {ratio:.2f}x faster than the "
            f"unbatched loop (gate requires >= {MIN_SERVE_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def test_serve_cache_hit_rate(benchmark):
    """Repeated trace must be served >= 50% from the result cache."""
    pts = data(f"2D-U-{SERVE_N}")
    trace = synthetic_trace(pts, SERVE_REQUESTS, kinds=("knn", "ball", "box"),
                            k=K, repeat_frac=0.6, seed=11)

    service = GeometryService(max_batch=1024,
                              cache_capacity=4 * SERVE_REQUESTS)
    service.register("bench", KDTree(pts))
    report = replay(service, "bench", trace)
    _assert_results_equal(report.results, run_unbatched(KDTree(pts), trace))

    snap = report.stats
    _serve_records["cache"] = {
        "n": SERVE_N,
        "requests": SERVE_REQUESTS,
        "repeat_frac": 0.6,
        "hit_rate": snap["hit_rate"],
        "cache_hits": snap["cache_hits"],
        "cache_misses": snap["cache_misses"],
        "req_per_s": report.throughput,
    }
    print(f"\nserve (repeated trace): {report.summary()}")
    assert snap["hit_rate"] >= MIN_HIT_RATE, (
        f"cache hit-rate {snap['hit_rate']:.1%} below the "
        f"{MIN_HIT_RATE:.0%} gate on a repeat_frac=0.6 trace"
    )
    run_once(benchmark, lambda: None)


def test_obs_tracing_overhead(benchmark, tmp_path):
    """Tracing must be ~free when off and cheap (< 2x) when on."""
    from repro.obs import totals, trace, validate_chrome_trace, write_chrome_trace
    from repro.obs.span import span
    from repro.parlay.workdepth import tracker

    pts = data(f"2D-U-{N}")
    tree = KDTree(pts)
    repeats = 3

    def run():
        return knn(tree, pts, K, exclude_self=True)

    # untraced wall-clock (the tracer hook is a global load + None check)
    t_off = float("inf")
    for _ in range(repeats):
        tracker.reset()
        t0 = time.perf_counter()
        run()
        t_off = min(t_off, time.perf_counter() - t0)
    cost_off = tracker.total()

    # traced wall-clock + the recorded span tree
    t_on = float("inf")
    spans = []
    for _ in range(repeats):
        tracker.reset()
        t0 = time.perf_counter()
        with trace("bench.knn") as rec:
            run()
        dt = time.perf_counter() - t0
        if dt < t_on:
            t_on, spans = dt, rec.spans()
    cost_on = tracker.total()

    # tracing must not change the charges at all
    assert cost_on.work == cost_off.work and cost_on.depth == cost_off.depth

    # the exported trace is schema-valid and reconciles with the tracker
    trace_path = tmp_path / "bench.trace.json"
    obj = write_chrome_trace(trace_path, spans, workers=36)
    assert validate_chrome_trace(obj) == []
    W, D = totals(spans)
    assert W == cost_on.work and D == cost_on.depth

    # disabled overhead: measured per-scope no-op cost x scopes this
    # workload instruments (the traced run's span count, minus the
    # bench-only root), as a fraction of the untraced wall-clock
    probes = 100_000
    t0 = time.perf_counter()
    for _ in range(probes):
        with span("probe"):
            pass
    per_scope = (time.perf_counter() - t0) / probes
    est_disabled = per_scope * max(len(spans) - 1, 0)
    disabled_frac = est_disabled / t_off if t_off > 0 else 0.0

    enabled_ratio = t_on / t_off if t_off > 0 else 1.0
    _obs_records["knn_50k"] = {
        "n": N, "k": K, "engine": "batched",
        "t_untraced": t_off,
        "t_traced": t_on,
        "enabled_ratio": enabled_ratio,
        "spans": len(spans),
        "per_scope_disabled_s": per_scope,
        "estimated_disabled_overhead_frac": disabled_frac,
        "work": cost_on.work,
        "depth": cost_on.depth,
    }
    print(f"\nobs: untraced {t_off:.3f}s, traced {t_on:.3f}s "
          f"({enabled_ratio:.2f}x), {len(spans)} spans, "
          f"disabled overhead ~{disabled_frac:.2%}")
    if FULL_SCALE:
        assert disabled_frac <= MAX_TRACING_DISABLED_OVERHEAD, (
            f"disabled tracing costs ~{disabled_frac:.1%} of the untraced "
            f"run (gate: <= {MAX_TRACING_DISABLED_OVERHEAD:.0%})"
        )
        assert enabled_ratio <= MAX_TRACING_ENABLED_RATIO, (
            f"enabled tracing is {enabled_ratio:.2f}x the untraced run "
            f"(gate: <= {MAX_TRACING_ENABLED_RATIO}x)"
        )
    run_once(benchmark, lambda: None)


def test_cluster_scatter_gather(benchmark):
    """Sharded-index gate: on clustered input the router must prune
    (mean shards-touched fraction well below 1.0) while staying exactly
    equivalent to the monolithic tree, and the scatter-gather DAG must
    simulate a better speedup at p workers under the work–depth model."""
    from repro.cluster.bench import compare_cluster, summary

    pts = data(f"2D-V-{CLUSTER_N}")
    rec = compare_cluster(
        pts,
        n_shards=CLUSTER_SHARDS,
        k=K,
        n_queries=CLUSTER_QUERIES,
        workers=CLUSTER_WORKERS,
    )
    _cluster_records["v_clustered"] = rec
    print("\n" + summary(rec))

    # self-describing record: every consumer-facing field is present
    # and numeric (schema check, like the obs trace validation)
    for key in ("n", "dims", "k", "knn_queries", "ball_queries",
                "workers", "shards_initial", "shards_final", "tp_ratio"):
        assert isinstance(rec[key], (int, float)), key
    for side in ("mono", "sharded"):
        for key in ("wall_s", "work", "depth", "t1", "tp", "speedup"):
            assert isinstance(rec[side][key], (int, float)), (side, key)
    for key in ("queries", "shard_visits", "shards", "mean_touched_frac"):
        assert isinstance(rec["pruning"][key], (int, float)), key

    # exactness is unconditional — sharding must never change answers
    assert rec["knn_distances_equal"], "sharded kNN diverged from monolithic"
    assert rec["ball_results_equal"], "sharded ball diverged from monolithic"

    if FULL_SCALE:
        frac = rec["pruning"]["mean_touched_frac"]
        assert frac < MAX_TOUCHED_FRAC, (
            f"pruning too weak: {frac:.1%} of shards touched per query "
            f"(gate: < {MAX_TOUCHED_FRAC:.0%})"
        )
        assert rec["sharded"]["speedup"] >= rec["mono"]["speedup"], (
            f"scatter-gather speedup {rec['sharded']['speedup']:.2f}x "
            f"below monolithic {rec['mono']['speedup']:.2f}x at "
            f"p={CLUSTER_WORKERS:g}"
        )
    run_once(benchmark, lambda: None)


def test_procs_measured_speedup(benchmark):
    """Processes-backend gate: real wall-clock speedup must tell the
    same qualitative story as the simulated ``T_p`` number.  Exactness
    (bitwise vs the monolithic tree) and work/depth invariance across
    ``p`` are unconditional; the measured-speedup assertions only apply
    on machines with enough cores to show one."""
    from repro.cluster.bench import compare_procs, summary_procs

    pts = data(f"2D-V-{PROCS_N}")
    rec = compare_procs(
        pts,
        n_shards=PROCS_SHARDS,
        k=K,
        n_queries=PROCS_QUERIES,
        procs=PROCS_LADDER,
    )
    cores = rec["cpu_count"]
    gated = FULL_SCALE and cores >= MIN_PROCS_CORES
    rec["gate"] = {
        "applied": gated,
        "reason": (
            "full scale, enough cores" if gated
            else f"cpu_count={cores} < {MIN_PROCS_CORES}" if FULL_SCALE
            else "reduced scale"
        ),
        "min_measured_speedup": MIN_PROCS_SPEEDUP,
        "min_cores": MIN_PROCS_CORES,
    }
    _procs_records["v_clustered"] = rec
    print("\n" + summary_procs(rec))

    # exactness is unconditional — real parallelism must never change
    # answers, no matter how many processes served the slabs
    assert rec["knn_distances_equal"], "processes backend diverged on kNN"
    assert rec["ball_results_equal"], "processes backend diverged on ball"

    # the cost model is machine-independent: every p charges the same
    # work/depth, so T_p simulation is a pure function of p
    runs = rec["runs"]
    charges = {(r["work"], r["depth"]) for r in runs.values()}
    assert len(charges) == 1, f"work/depth drifted across p: {charges}"
    sims = [runs[str(p)]["sim_speedup"] for p in PROCS_LADDER]
    assert all(b >= a for a, b in zip(sims, sims[1:])), (
        f"simulated speedup not monotone in p: {sims}"
    )

    if gated:
        top = runs[str(max(PROCS_LADDER))]
        assert top["measured_speedup"] > MIN_PROCS_SPEEDUP, (
            f"measured speedup only {top['measured_speedup']:.2f}x at "
            f"p={max(PROCS_LADDER)} (gate requires > {MIN_PROCS_SPEEDUP}x "
            f"on a {cores}-core machine)"
        )
        # monotone-ish: each step up in p must not lose more than 20%
        meas = [runs[str(p)]["measured_speedup"] for p in PROCS_LADDER]
        assert all(b >= 0.8 * a for a, b in zip(meas, meas[1:])), (
            f"measured speedup regressed with more workers: {meas}"
        )
    run_once(benchmark, lambda: None)


def teardown_module(module):
    root = Path(__file__).resolve().parent.parent
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if _records or _small_records:
        out = root / "BENCH_knn.json"
        payload = {
            "benchmark": "self-kNN, batched vs recursive query engine",
            "scale": scale,
            "datasets": _records,
            "small_batch": {
                "kind": "wall",
                "cpu_count": os.cpu_count(),
                "what": "k-NN tree calls of m queries: default path "
                        "(size rule) vs the lock-step engine",
                "gates": {"min_m1_speedup": MIN_SMALL_M1_SPEEDUP,
                          "max_m64_ratio": MAX_SMALL_M64_RATIO},
                "runs": _small_records,
            },
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    if _obs_records:
        out = root / "BENCH_obs.json"
        payload = {
            "benchmark": "span tracing overhead: disabled estimate + enabled ratio",
            "scale": scale,
            "gates": {
                "max_disabled_overhead_frac": MAX_TRACING_DISABLED_OVERHEAD,
                "max_enabled_ratio": MAX_TRACING_ENABLED_RATIO,
            },
            "runs": _obs_records,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    if _cluster_records:
        out = root / "BENCH_cluster.json"
        payload = {
            "benchmark": "sharded index: scatter-gather + geometric pruning "
                         "vs monolithic kd-tree",
            "scale": scale,
            "gates": {
                "max_mean_touched_frac": MAX_TOUCHED_FRAC,
                "min_speedup": "monolithic speedup at same p",
                "workers": CLUSTER_WORKERS,
            },
            "runs": _cluster_records,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    if _procs_records:
        out = root / "BENCH_procs.json"
        payload = {
            "benchmark": "processes backend: measured vs simulated "
                         "scatter-gather speedup",
            "scale": scale,
            "gates": {
                "min_measured_speedup": MIN_PROCS_SPEEDUP,
                "at_workers": max(PROCS_LADDER),
                "min_cores": MIN_PROCS_CORES,
            },
            "runs": _procs_records,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    if _serve_records:
        out = root / "BENCH_serve.json"
        payload = {
            "benchmark": "geometry query service: coalesced vs unbatched, cache",
            "scale": scale,
            "gates": {"min_throughput_ratio": MIN_SERVE_RATIO,
                      "min_hit_rate": MIN_HIT_RATE},
            "runs": _serve_records,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
