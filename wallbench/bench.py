"""Workloads, open-loop load and metrics of the wall-clock benchmark.

Every request takes the path a user's request takes: the asyncio
``Frontend`` (admission and weighted-fair dispatch) hands a tenant's
quantum to the ``GeometryService`` (coalescing and the versioned result
cache), which runs it on the tenant's index -- a ``ShardedIndex`` router
over BDL trees, or a static ``KDTree``; inserts and erases go through
the ``ViewManager``, which repairs the materialized hull view.

The traffic is the repository's own.  Request streams come from
``repro.serve.trace``: ``zipf_trace`` as ``load-bench`` drives it, and
``synthetic_trace`` as ``serve-replay`` and ``stream-bench`` drive it,
with those commands' default parameters.  Arrivals are open-loop
Poisson schedules from ``open_loop_arrivals``, as in ``load-bench``.
The requests are fired by :func:`drive` rather than by
``frontend.load.run_open_loop`` because the benchmark needs three things
that runner does not do: send inserts, erases and view reads, keep the
replies for checking, and time each request from when it was due.

A run plays the same schedule ``PLAYS`` times, each time on a freshly
built stack, and takes each request's latency as its best over the
plays.  On a shared host other tenants slow the process by up to half
for stretches of a second to minutes, and only ever slow it.  The plays
lie seconds apart, so a request the host slowed in one play is rarely
slowed in all; a delay the program itself causes at a point of the
schedule -- a view rebuild, a queue behind a slow batch -- recurs in
every play and stays in the figures.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from layers import LayerClock, install
from oracle import LiveSet, check

N_POINTS = 20_000        # points per dataset ("2D-U-20K")
N_SHARDS = 16            # load-bench and cluster-bench default
MAX_BATCH = 256          # load-bench default front-end quantum
QUEUE_DEPTH = 512        # load-bench default; degrades at half of it
PLAYS = 3                # plays of the schedule per run
WARMUP_S = 2.0           # per play; fills the result cache before the window
BUILDS_PER_PLAY = 4      # stack builds timed for setup_s, the last one is played
SAMPLE_EVERY = 8         # keep every n-th reply for checking
MAX_CHECKS = 100         # checked replies per play
MAX_VIEW_CHECKS = 8      # of which view answers (one Qhull run each)


@dataclass(frozen=True)
class Tenant:
    name: str
    index: str            # "sharded" | "kdtree"
    traffic: str          # "zipf" | "zipf_light" | "stream"
    rate: float           # Poisson arrivals per second
    weight: float = 1.0


# Rates are fixed, not derived from the program: each workload offers
# about a fifth of the requests per second the stack sustains on one CPU
# of the reference VM (README.md), so queues form only in bursts, far
# below the front end's degrade threshold, and one play's 15 s window
# holds at least 700 requests.
WORKLOADS = {
    # load-bench's two tenants: a heavy ShardedIndex tenant and a light
    # KDTree tenant with fair-dispatch weight 4 and 1/25 of the heavy
    # rate, both on Zipf s=1.2 hot spots that repeat verbatim, so most
    # requests are answered by the versioned result cache
    "load_zipf": (
        Tenant("heavy", "sharded", "zipf", 150.0),
        Tenant("light", "kdtree", "zipf_light", 6.0, weight=4.0),
    ),
    # serve-replay --views hull2d --mutation-frac 0.35 (stream-bench's
    # update-heavy share, 8-point batches) over serve-replay's kNN / ball /
    # box mix with a quarter repeated: most queries miss the cache and run
    # through the router and the shards' batched kernels, and mutation
    # barriers, hull view repair and cache invalidation sit on the path
    "stream_views": (
        Tenant("t0", "sharded", "stream", 50.0),
    ),
}

END_TO_END = {
    "latency_p50_ms": "ms",
    "setup_s": "s",
}
PER_LAYER = {
    "frontend_us_per_req": "us",
    "service_us_per_req": "us",
    "router_us_per_req": "us",
    "kernel_us_per_req": "us",
    "view_repair_us_per_req": "us",
    "hull_filter_us_per_req": "us",
    "other_cpu_us_per_req": "us",
    "index_build_ms": "ms",
    "queue_wait_ms_p50": "ms",
    "generator_lag_ms_p99": "ms",
    "requests_per_batch": "count",
    "cache_hit_ratio": "ratio",
    "shard_visits_per_query": "count",
    "view_recompute_ratio": "ratio",
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_trace(traffic: str, coords: np.ndarray, n: int, seed: int) -> list[dict]:
    from repro.serve import synthetic_trace, zipf_trace

    if traffic == "zipf":
        return zipf_trace(coords, n, kinds=("knn",), k=8, s=1.2, seed=seed)
    if traffic == "zipf_light":
        return zipf_trace(coords, n, kinds=("knn", "ball"), k=8, s=1.2, seed=seed)
    return synthetic_trace(coords, n, kinds=("knn", "ball", "box", "view"), k=8,
                           repeat_frac=0.25, mutation_frac=0.35, mutation_batch=8,
                           view_names=("hull2d",), seed=seed)


def to_request(op: dict) -> tuple:
    """A trace op as ``(kind, args)``: the front-end method and its
    arguments after the tenant."""
    kind = op["op"]
    if kind == "knn":
        return kind, (np.asarray(op["q"]), op["k"])
    if kind == "ball":
        return kind, (np.asarray(op["c"]), op["r"])
    if kind == "box":
        return kind, (np.asarray(op["lo"]), np.asarray(op["hi"]))
    if kind == "view":
        return kind, (op["name"],)
    return kind, (np.asarray(op["pts"], dtype=np.float64),)


@dataclass
class Plan:
    """One tenant's inputs: requests in trace order and their due times."""
    tenant: Tenant
    requests: list
    due: np.ndarray


def make_plans(workload: str, seed: int, window: float, coords: np.ndarray) -> list[Plan]:
    from repro.serve import open_loop_arrivals

    tenants = WORKLOADS[workload]
    seeds = np.random.SeedSequence(seed).spawn(2 * len(tenants))
    plans = []
    for i, t in enumerate(tenants):
        trace_seed, arrival_seed = (int(s.generate_state(1)[0]) for s in seeds[2 * i:2 * i + 2])
        horizon = WARMUP_S + window
        # enough arrivals to cover the horizon with room to spare
        n = int(t.rate * horizon + 6 * math.sqrt(t.rate * horizon) + 16)
        due = open_loop_arrivals(n, t.rate, pattern="poisson", seed=arrival_seed)
        n = int(np.searchsorted(due, horizon))
        ops = make_trace(t.traffic, coords, n, trace_seed)
        plans.append(Plan(t, [to_request(op) for op in ops], due[:n]))
    return plans


# ----------------------------------------------------------------------
# the serving stack
# ----------------------------------------------------------------------
def build_stack(tenants, coords: np.ndarray):
    from repro import Frontend, KDTree, ShardedIndex, ViewManager

    fe = Frontend(max_batch=MAX_BATCH, queue_depth=QUEUE_DEPTH)
    indexes, managers = [], []
    for t in tenants:
        if t.index == "kdtree":
            idx = KDTree(coords)
        else:
            idx = ShardedIndex(coords, N_SHARDS)
            indexes.append(idx)
        if t.traffic == "stream":
            mgr = ViewManager(idx)
            mgr.hull2d()
            managers.append(mgr)
        fe.register_tenant(t.name, idx, weight=t.weight)
    return fe, indexes, managers


async def close_stack(stack) -> None:
    fe, indexes, _ = stack
    await fe.close()
    for idx in indexes:
        idx.close()


async def timed_builds(tenants, coords: np.ndarray, reps: int, times: list,
                       clock: LayerClock | None, build_busy: list):
    """Build the stack ``reps`` times, appending each build's seconds to
    ``times`` (and, traced, its index-build self time to ``build_busy``);
    returns the last stack, open."""
    stack = None
    for _ in range(reps):
        if stack is not None:
            await close_stack(stack)
        busy0 = clock.busy.get("build", 0.0) if clock is not None else 0.0
        t0 = time.perf_counter()
        stack = build_stack(tenants, coords)
        times.append(time.perf_counter() - t0)
        if clock is not None:
            build_busy.append(clock.busy.get("build", 0.0) - busy0)
    return stack


def layer_counts(indexes, managers) -> dict:
    """Router fan-out and view maintenance counters, summed over tenants."""
    out = {"queries": 0, "visits": 0, "repairs": 0, "recomputes": 0}
    for idx in indexes:
        s = idx.pruning_stats()
        out["queries"] += s["queries"]
        out["visits"] += s["shard_visits"]
    for mgr in managers:
        for v in mgr.stats().values():
            out["repairs"] += v["repairs"]
            out["recomputes"] += v["recomputes"]
    return out


# ----------------------------------------------------------------------
# open-loop load
# ----------------------------------------------------------------------
class Run:
    """What the requests due in one play's measured window recorded."""

    def __init__(self, t_measure: float, t_end: float):
        self.t_measure = t_measure
        self.t_end = t_end
        self.latency: dict[tuple[int, int], float] = {}   # (plan, position) -> seconds
        self.done_at: list[float] = []
        self.lags: list[float] = []
        self.queue_waits: list[float] = []
        self.cache_hits = 0
        self.degraded = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: list[tuple] = []   # (plan, position, request, reply value, approximate)
        self.insert_gids: dict[tuple[int, int], np.ndarray] = {}
        self.bad_mutation: str | None = None
        # set at the end of the window
        self.cpu = 0.0              # process CPU seconds in the window
        self.marked_end = t_end
        self.served = 0             # replies that arrived in the window
        self.counts: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}


async def send(fe, run: Run, plan: Plan, ti: int, pos: int, due: float) -> None:
    kind, args = plan.requests[pos]
    measured = run.t_measure <= due < run.t_end
    if measured:
        run.attempted += 1
        run.lags.append(time.perf_counter() - due)
    try:
        reply = await getattr(fe, kind)(plan.tenant.name, *args)
    except Exception as exc:  # counted as failed; the run goes on
        if kind in ("insert", "erase"):
            # the replayed point set would no longer match the index
            run.bad_mutation = f"{kind} raised {exc!r}"
        if measured:
            run.failed += 1
            if len(run.errors) < 5:
                run.errors.append(f"{type(exc).__name__}: {exc}")
        return
    now = time.perf_counter()
    if kind == "insert":
        run.insert_gids[ti, pos] = np.asarray(reply.value[0], dtype=np.int64)
    elif kind == "erase" and int(reply.value[0]) != len(args[0]):
        run.bad_mutation = f"erase at {pos} deleted {reply.value[0]} of {len(args[0])}"
    if not measured:
        return
    run.latency[ti, pos] = now - due
    run.done_at.append(now)
    run.queue_waits.append(reply.queue_wait)
    run.cache_hits += reply.cache_hit
    run.degraded += reply.approximate
    if len(run.latency) % SAMPLE_EVERY == 0 and kind not in ("insert", "erase"):
        run.samples.append((ti, pos, plan.requests[pos], reply.value, reply.approximate))


async def drive(fe, run: Run, plans: list[Plan], start: float) -> None:
    """Send every request at its due time, whether or not earlier ones
    have been answered, then wait for all replies.

    A tenant's requests are sent in trace order, and the front end
    queues them FIFO with mutations as barriers, so each request sees
    exactly the mutations that precede it in its trace.
    """
    sched = sorted((start + d, ti, pos) for ti, p in enumerate(plans)
                   for pos, d in enumerate(p.due))
    tasks = []
    for due, ti, pos in sched:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(send(fe, run, plans[ti], ti, pos, due)))
    await asyncio.gather(*tasks)


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
def verify(run: Run, plans: list[Plan], coords: np.ndarray) -> tuple[int, str | None]:
    """Check sampled replies of one play at the point set each one saw."""
    if run.bad_mutation:
        return 0, run.bad_mutation
    views = _spread([s for s in run.samples if s[2][0] == "view"], MAX_VIEW_CHECKS)
    rest = _spread([s for s in run.samples if s[2][0] != "view"], MAX_CHECKS - len(views))
    lives = [LiveSet(coords, np.arange(len(coords), dtype=np.int64)) for _ in plans]
    applied = [0] * len(plans)
    for ti, pos, (kind, args), value, approximate in sorted(
            views + rest, key=lambda s: (s[0], s[1])):
        live = lives[ti]
        for i in range(applied[ti], pos):
            op, op_args = plans[ti].requests[i]
            if op == "insert":
                live.insert(op_args[0], run.insert_gids[ti, i])
            elif op == "erase":
                live.erase_coords(op_args[0])
        applied[ti] = max(applied[ti], pos)
        try:
            check(live, kind, args, value, approximate)
        except AssertionError as exc:
            return len(views) + len(rest), f"{kind} on {plans[ti].tenant.name} at {pos}: {exc}"
    return len(views) + len(rest), None


def _spread(items: list, n: int) -> list:
    if len(items) <= n:
        return items
    return [items[i] for i in np.linspace(0, len(items) - 1, n).astype(int)]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def best_latencies(plays: list[Run]) -> np.ndarray:
    """Each request's best latency over the plays, for the requests
    every play answered."""
    keys = set.intersection(*(set(p.latency) for p in plays))
    return np.array([min(p.latency[k] for p in plays) for k in keys])


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
async def measure(stack, plans: list[Plan], window: float, clock: LayerClock | None) -> Run:
    """Send every planned request to the stack, record the requests due
    in ``window`` seconds after the warm-up, and close the stack."""
    fe, indexes, managers = stack
    start = time.perf_counter() + 0.01
    run = Run(start + WARMUP_S, start + WARMUP_S + window)

    async def mark_window():
        await asyncio.sleep(max(run.t_measure - time.perf_counter(), 0.0))
        cpu0, counts0 = time.process_time(), layer_counts(indexes, managers)
        if clock is not None:
            busy0, calls0 = dict(clock.busy), dict(clock.calls)
        await asyncio.sleep(max(run.t_end - time.perf_counter(), 0.0))
        run.cpu = time.process_time() - cpu0
        run.marked_end = time.perf_counter()
        run.counts = {k: v - counts0[k] for k, v in layer_counts(indexes, managers).items()}
        if clock is not None:
            run.busy = {k: v - busy0.get(k, 0.0) for k, v in clock.busy.items()}
            run.calls = {k: v - calls0.get(k, 0) for k, v in clock.calls.items()}

    try:
        await asyncio.gather(mark_window(), drive(fe, run, plans, start))
    finally:
        await close_stack(stack)
    run.served = int(np.count_nonzero(np.asarray(run.done_at) < run.marked_end))
    return run


async def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.generators.synthetic import dataset

    tenants = WORKLOADS[workload]
    coords = dataset(f"2D-U-{N_POINTS}", seed=seed).coords
    window = seconds / PLAYS
    plans = make_plans(workload, seed, window, coords)

    # set-up is the fastest of the builds, the one the host slowed
    # least; they are spread over the whole run, before every play
    setup: list[float] = []
    build_busy: list[float] = []
    plays: list[Run] = []
    clock = LayerClock() if trace else None
    if clock is not None:
        install(clock)
    try:
        for _ in range(PLAYS):
            stack = await timed_builds(tenants, coords, BUILDS_PER_PLAY, setup,
                                       clock, build_busy)
            plays.append(await measure(stack, plans, window, clock))
    finally:
        if clock is not None:
            clock.uninstall()

    checked, error = 0, None
    for run in plays:
        n_checked, error = verify(run, plans, coords)
        checked += n_checked
        if error:
            print(f"wrong answer: {error}", file=sys.stderr)
            break
        for e in run.errors:
            print(f"failed request: {e}", file=sys.stderr)
    best = best_latencies(plays)
    for i, run in enumerate(plays):
        lat = list(run.latency.values()) or [0.0]
        print(f"{workload} seed {seed} play {i}: {run.attempted} requests due in "
              f"{window:g} s, {len(run.latency)} answered, {run.failed} failed, "
              f"{run.degraded} degraded, p50 {1e3 * percentile(lat, 50):.2f} ms, "
              f"p90 {1e3 * percentile(lat, 90):.2f} ms, generator lag p99 "
              f"{1e3 * percentile(run.lags or [0.0], 99):.2f} ms", file=sys.stderr)
    if len(best) == 0:
        raise RuntimeError("no request completed in every play's measured window")
    print(f"{workload} seed {seed}: {len(best)} requests answered in every play, "
          f"{checked} replies checked; best over plays: mean {1e3 * best.mean():.2f} ms, "
          f"p90 {1e3 * percentile(best, 90):.2f} ms, p99 {1e3 * percentile(best, 99):.2f} ms",
          file=sys.stderr)

    attempted = sum(run.attempted for run in plays)
    failed = sum(run.failed for run in plays)
    if trace:
        served = max(sum(run.served for run in plays), 1)
        busy, calls, counts = {}, {}, {}
        for run in plays:
            for total, part in ((busy, run.busy), (calls, run.calls), (counts, run.counts)):
                for k, v in part.items():
                    total[k] = total.get(k, 0) + v
        per_req = lambda layer: 1e6 * busy.get(layer, 0.0) / served
        maint = counts["repairs"] + counts["recomputes"]
        answered = sum(len(run.latency) for run in plays)
        metrics = {
            "frontend_us_per_req": per_req("frontend"),
            "service_us_per_req": per_req("service"),
            "router_us_per_req": per_req("router"),
            "kernel_us_per_req": per_req("kernel"),
            "view_repair_us_per_req": per_req("views"),
            "hull_filter_us_per_req": per_req("hull_filter"),
            # CPU time outside the timed layers: the event loop,
            # admission, the hand-off to the dispatch thread, the load
            # generator
            "other_cpu_us_per_req": max(1e6 * sum(run.cpu for run in plays) / served
                                        - sum(map(per_req, busy)), 0.0),
            # the kd-tree build engine's self time in one stack build
            # (the shards' BDL trees and the light tenant's KDTree)
            "index_build_ms": 1e3 * float(np.median(build_busy)),
            "queue_wait_ms_p50": 1e3 * percentile(
                [w for run in plays for w in run.queue_waits], 50),
            "generator_lag_ms_p99": 1e3 * percentile(
                [g for run in plays for g in run.lags], 99),
            "requests_per_batch": served / max(calls.get("frontend", 0), 1),
            "cache_hit_ratio": sum(run.cache_hits for run in plays) / max(answered, 1),
            "shard_visits_per_query": counts["visits"] / max(counts["queries"], 1),
            "view_recompute_ratio": counts["recomputes"] / maint if maint else 0.0,
        }
        units = PER_LAYER
    else:
        metrics = {
            "latency_p50_ms": 1e3 * percentile(best, 50),
            "setup_s": min(setup),
        }
        units = END_TO_END
    return {
        "correct": error is None and checked > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
