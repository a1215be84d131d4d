"""Request traces: generation, (de)serialization, and replay.

A trace is a list of op dicts, one request per line when stored as
JSONL:

* ``{"op": "knn",  "q": [x, ...], "k": 8}``
* ``{"op": "ball", "c": [x, ...], "r": 0.5}``
* ``{"op": "box",  "lo": [x, ...], "hi": [x, ...]}``
* ``{"op": "allnn"}``
* ``{"op": "insert", "pts": [[...], ...]}`` / ``{"op": "erase", "pts":
  [[...], ...]}`` — mutation batches, applied to the registered index
  (BDLTree) between queries; the queries before a mutation are answered
  first, so the replay is deterministic.  When the index carries a
  :class:`~repro.views.manager.ViewManager`, mutations route through it
  so materialized views repair incrementally.
* ``{"op": "view", "name": "closest_pair"}`` — read a materialized
  view; the reply is the version-keyed ``(answer, version)``.

:func:`replay` feeds a trace through a :class:`GeometryService`
(``max_batch`` slabs between mutations + the versioned cache), while
:func:`run_unbatched` is the one-request-at-a-time per-query-walk
loop the service is benchmarked against; both produce results in the
same convention (global ids), so replays can be checked for bitwise
equality.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .service import GeometryService, Request

__all__ = [
    "ReplayReport",
    "TraceMismatch",
    "load_trace",
    "open_loop_arrivals",
    "replay",
    "run_unbatched",
    "save_trace",
    "synthetic_trace",
    "validate_trace",
    "zipf_trace",
]


def synthetic_trace(
    points,
    n_requests: int,
    *,
    kinds: tuple[str, ...] = ("knn", "ball", "box"),
    k: int = 8,
    repeat_frac: float = 0.0,
    extent_frac: float = 0.05,
    mutation_frac: float = 0.0,
    mutation_batch: int = 8,
    view_names: tuple[str, ...] = (),
    seed: int = 0,
) -> list[dict]:
    """A mixed query trace shaped like traffic against ``points``.

    Query locations are dataset points with a little jitter; ranges
    cover ``extent_frac`` of the bounding box per side.  A
    ``repeat_frac`` fraction of requests repeats an earlier request
    verbatim (the cache-hit population of real traffic).

    ``mutation_frac > 0`` makes the trace *update-heavy*: that fraction
    of ops become ``insert`` / ``erase`` batches of ``mutation_batch``
    points.  Erase batches pick coordinates from the current live pool
    (seed points plus prior inserts, minus prior erases), so replaying
    against the matching dataset actually deletes points.  ``"view"``
    in ``kinds`` emits materialized-view reads over ``view_names``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if "view" in kinds and not view_names:
        raise ValueError("'view' in kinds requires view_names=(...)")
    if not 0.0 <= mutation_frac <= 1.0:
        raise ValueError("mutation_frac must be in [0, 1]")
    rng = np.random.default_rng(seed)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    pool = list(pts.tolist())  # live coordinates an erase may target
    trace: list[dict] = []
    for _ in range(n_requests):
        if mutation_frac > 0.0 and rng.random() < mutation_frac:
            m = int(mutation_batch)
            if rng.random() < 0.5 and len(pool) > m:
                take = rng.choice(len(pool), size=m, replace=False)
                batch = [pool[j] for j in take]
                for j in sorted(map(int, take), reverse=True):
                    pool.pop(j)
                trace.append({"op": "erase", "pts": batch})
            else:
                batch = (
                    pts[rng.integers(len(pts), size=m)]
                    + rng.normal(0, 0.02, (m, pts.shape[1])) * span
                )
                pool.extend(batch.tolist())
                trace.append({"op": "insert", "pts": batch.tolist()})
            continue
        if trace and rng.random() < repeat_frac:
            prev = trace[rng.integers(len(trace))]
            if prev["op"] not in ("insert", "erase"):
                trace.append(dict(prev))
                continue
        kind = kinds[rng.integers(len(kinds))]
        base = pts[rng.integers(len(pts))] + rng.normal(0, 0.01, pts.shape[1]) * span
        if kind == "knn":
            trace.append({"op": "knn", "q": base.tolist(), "k": k})
        elif kind == "ball":
            r = float(extent_frac * rng.uniform(0.5, 1.5) * span.max())
            trace.append({"op": "ball", "c": base.tolist(), "r": r})
        elif kind == "box":
            half = extent_frac * rng.uniform(0.5, 1.5, pts.shape[1]) * span / 2
            trace.append(
                {"op": "box", "lo": (base - half).tolist(), "hi": (base + half).tolist()}
            )
        elif kind == "allnn":
            trace.append({"op": "allnn"})
        elif kind == "view":
            trace.append(
                {"op": "view", "name": view_names[rng.integers(len(view_names))]}
            )
        else:
            raise ValueError(f"unknown trace kind {kind!r}")
    return trace


def zipf_trace(
    points,
    n_requests: int,
    *,
    kinds: tuple[str, ...] = ("knn", "ball", "box"),
    k: int = 8,
    s: float = 1.2,
    hot: int = 1024,
    extent_frac: float = 0.05,
    seed: int = 0,
) -> list[dict]:
    """A Zipf-skewed hot-spot trace: queries concentrate on few keys.

    Query targets are drawn from a ``hot``-point subset of the dataset
    with rank-``r`` probability proportional to ``1 / r**s`` — the
    classic web-traffic shape where a handful of keys absorb most of
    the load.  Requests against the same hot key repeat *verbatim*
    (same payload bytes), so the skew is visible to the result cache,
    unlike :func:`synthetic_trace`'s jittered repeats.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if s <= 0:
        raise ValueError("zipf exponent s must be > 0")
    rng = np.random.default_rng(seed)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    m = min(int(hot), len(pts))
    keys = rng.choice(len(pts), size=m, replace=False)
    p = 1.0 / np.arange(1, m + 1, dtype=np.float64) ** s
    p /= p.sum()
    picks = rng.choice(m, size=n_requests, p=p)
    trace: list[dict] = []
    for i in range(n_requests):
        kind = kinds[picks[i] % len(kinds)] if len(kinds) > 1 else kinds[0]
        base = pts[keys[picks[i]]]
        if kind == "knn":
            trace.append({"op": "knn", "q": base.tolist(), "k": k})
        elif kind == "ball":
            r = float(extent_frac * span.max())
            trace.append({"op": "ball", "c": base.tolist(), "r": r})
        elif kind == "box":
            half = extent_frac * span / 2
            trace.append(
                {"op": "box", "lo": (base - half).tolist(), "hi": (base + half).tolist()}
            )
        elif kind == "allnn":
            trace.append({"op": "allnn"})
        else:
            raise ValueError(f"unknown trace kind {kind!r}")
    return trace


def open_loop_arrivals(
    n: int,
    rate: float,
    *,
    pattern: str = "poisson",
    burst_factor: float = 8.0,
    burst_frac: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Open-loop arrival offsets (seconds) for ``n`` requests at ``rate``.

    Open-loop means the schedule is fixed up front: requests fire at
    these offsets whether or not earlier ones completed, which is what
    exposes queueing delay and saturation (a closed loop self-throttles
    and hides both).

    * ``"poisson"`` — exponential inter-arrivals at ``rate`` req/s.
    * ``"bursty"`` — a two-state Markov-modulated Poisson process: a
      ``burst_frac`` fraction of requests arrive in bursts running at
      ``burst_factor`` times the base rate, the rest in quiet phases
      re-scaled so the long-run average stays ``rate``.

    Returns a sorted (n,) float array of offsets starting at ~0.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0 req/s")
    if n <= 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    if pattern == "poisson":
        gaps = rng.exponential(1.0 / rate, n)
    elif pattern == "bursty":
        if not 0.0 < burst_frac < 1.0:
            raise ValueError("burst_frac must be in (0, 1)")
        if burst_factor <= 1.0:
            raise ValueError("burst_factor must be > 1")
        # quiet rate chosen so the long-run mean gap is 1/rate:
        # burst_frac of gaps at rate*burst_factor, the rest at r_q
        mean_gap = 1.0 / rate
        burst_gap = 1.0 / (rate * burst_factor)
        quiet_gap = (mean_gap - burst_frac * burst_gap) / (1.0 - burst_frac)
        in_burst = rng.random(n) < burst_frac
        gaps = np.where(
            in_burst,
            rng.exponential(burst_gap, n),
            rng.exponential(quiet_gap, n),
        )
    else:
        raise ValueError(f"unknown arrival pattern {pattern!r}")
    t = np.cumsum(gaps)
    return t - t[0]


class TraceMismatch(ValueError):
    """A trace op is inconsistent with the dataset it is replayed against."""


def validate_trace(trace: list[dict], n_points: int, dim: int, *,
                   dynamic: bool = True) -> None:
    """Check every op against the loaded dataset; raise :class:`TraceMismatch`.

    Catches the replay-against-the-wrong-file class of mistakes — a
    trace generated for a larger or higher-dimensional dataset — with
    a one-line diagnosis instead of a bare engine error mid-replay.
    ``dynamic=False`` declares the replay target immutable (a static
    KDTree dataset): any ``insert`` / ``erase`` op is then rejected up
    front instead of failing mid-replay.
    """

    def _dim_of(x) -> int:
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 1:
            raise TraceMismatch(f"op {i}: expected a flat coordinate list, got shape {a.shape}")
        return len(a)

    n_live = int(n_points)  # inserts grow the queryable population
    for i, op in enumerate(trace):
        kind = op.get("op")
        if kind == "knn":
            if "q" not in op or "k" not in op:
                raise TraceMismatch(f"op {i}: knn needs 'q' and 'k'")
            d = _dim_of(op["q"])
            if d != dim:
                raise TraceMismatch(
                    f"op {i}: knn query has dimension {d} but the loaded "
                    f"points are {dim}-dimensional"
                )
            k = int(op["k"])
            if k < 1:
                raise TraceMismatch(f"op {i}: knn k must be >= 1, got {k}")
            if k > n_live:
                raise TraceMismatch(
                    f"op {i}: knn requests k={k} neighbors but only "
                    f"{n_live} points are loaded — was this trace "
                    f"generated against a larger dataset?"
                )
        elif kind == "ball":
            if "c" not in op or "r" not in op:
                raise TraceMismatch(f"op {i}: ball needs 'c' and 'r'")
            d = _dim_of(op["c"])
            if d != dim:
                raise TraceMismatch(
                    f"op {i}: ball center has dimension {d} but the loaded "
                    f"points are {dim}-dimensional"
                )
            if float(op["r"]) < 0:
                raise TraceMismatch(f"op {i}: ball radius must be >= 0")
        elif kind == "box":
            if "lo" not in op or "hi" not in op:
                raise TraceMismatch(f"op {i}: box needs 'lo' and 'hi'")
            dlo, dhi = _dim_of(op["lo"]), _dim_of(op["hi"])
            if dlo != dim or dhi != dim:
                raise TraceMismatch(
                    f"op {i}: box corners have dimensions {dlo}/{dhi} but "
                    f"the loaded points are {dim}-dimensional"
                )
        elif kind == "allnn":
            pass
        elif kind in ("insert", "erase"):
            if not dynamic:
                raise TraceMismatch(
                    f"op {i}: trace contains a {kind!r} batch but the "
                    f"dataset is static — replay update traces against a "
                    f"dynamic index (--dynamic or --shards)"
                )
            pts = np.asarray(op.get("pts", []), dtype=np.float64)
            if pts.ndim != 2 or pts.shape[1] != dim:
                raise TraceMismatch(
                    f"op {i}: {kind} batch must be (m, {dim}) shaped, "
                    f"got {pts.shape}"
                )
            if kind == "insert":
                n_live += len(pts)
        elif kind == "view":
            name = op.get("name")
            if not isinstance(name, str) or not name:
                raise TraceMismatch(f"op {i}: view needs a 'name' string")
            if not dynamic:
                raise TraceMismatch(
                    f"op {i}: materialized view {name!r} requires a "
                    f"dynamic view-bearing dataset (--dynamic or --shards)"
                )
        else:
            raise TraceMismatch(f"op {i}: unknown trace op {kind!r}")


def save_trace(path: str | os.PathLike, trace: list[dict]) -> None:
    """Write a trace as JSON lines."""
    with open(os.fspath(path), "w") as f:
        for op in trace:
            f.write(json.dumps(op) + "\n")


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Read a JSONL trace written by :func:`save_trace` (or by hand)."""
    trace = []
    with open(os.fspath(path)) as f:
        for line in f:
            line = line.strip()
            if line:
                trace.append(json.loads(line))
    return trace


@dataclass
class ReplayReport:
    """Outcome of replaying one trace through a service."""

    n_requests: int
    completed: int
    errors: int
    seconds: float
    results: list = field(repr=False, default_factory=list)
    stats: dict = field(default_factory=dict)
    #: repr of the first per-request failure, so callers (the CLI) can
    #: surface *why* a replay had errors instead of just the count
    first_error: str | None = None

    @property
    def throughput(self) -> float:
        return self.completed / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        s = self.stats
        return (
            f"{self.completed}/{self.n_requests} requests in "
            f"{self.seconds:.3f}s ({self.throughput:,.0f} req/s) | "
            f"hit-rate {s.get('hit_rate', 0.0):.1%} | "
            f"avg batch {s.get('avg_batch_size', 0.0):.1f} "
            f"(max {s.get('max_batch_size', 0)}) | "
            f"errors {self.errors}"
        )


def _request(op: dict) -> Request:
    kind = op["op"]
    if kind == "knn":
        return Request("knn", op["q"], {
            "k": op["k"], "exclude_self": op.get("exclude_self", False)})
    if kind == "ball":
        return Request("ball", op["c"], {"radius": op["r"]})
    if kind == "box":
        return Request("box", (op["lo"], op["hi"]))
    if kind == "allnn":
        return Request("allnn")
    if kind == "view":
        return Request("view", op["name"])
    raise ValueError(f"unknown trace op {kind!r}")


def _group(op: dict) -> tuple:
    """Requests of one group run as one engine dispatch per tree."""
    return (op["op"], int(op.get("k", 0)), bool(op.get("exclude_self", False)))


def replay(service: GeometryService, dataset: str, trace: list[dict]) -> ReplayReport:
    """Feed a trace through the service; returns results + throughput.

    The queries between two mutations are ordered by group (kind, k)
    and cut into slabs of the service's ``max_batch``, so each group
    reaches the engine in batches as large as the slab allows; each
    slab is one :meth:`~GeometryService.execute` call.  Mutation ops
    apply to the registered index directly, after every query ahead of
    them was answered.
    """
    results: list = [None] * len(trace)
    errors = 0
    completed = 0
    n_queries = 0
    first_error = None
    pending: list[int] = []  # trace positions of queries not yet executed

    def run_pending() -> None:
        nonlocal errors, completed, first_error
        pending.sort(key=lambda p: _group(trace[p]))
        for lo in range(0, len(pending), service.max_batch):
            pos = pending[lo:lo + service.max_batch]
            outcomes = service.execute(dataset, [_request(trace[p]) for p in pos])
            for p, o in zip(pos, outcomes):
                if o.error is None:
                    results[p] = o.value
                    completed += 1
                else:
                    errors += 1
                    if first_error is None:
                        first_error = repr(o.error)
        pending.clear()

    t0 = time.perf_counter()
    for p, op in enumerate(trace):
        if op["op"] not in ("insert", "erase"):
            n_queries += 1
            pending.append(p)
            continue
        run_pending()
        index = service.index(dataset)
        # mutate through the view manager when one is attached, so
        # registered views repair instead of resyncing on next read
        target = getattr(index, "views", None) or index
        pts = np.asarray(op["pts"], dtype=np.float64)
        if op["op"] == "insert":
            target.insert(pts)
        else:
            target.erase(pts)
    run_pending()
    seconds = time.perf_counter() - t0
    return ReplayReport(
        n_requests=n_queries,
        completed=completed,
        errors=errors,
        seconds=seconds,
        results=results,
        stats=service.snapshot(),
        first_error=first_error,
    )


def run_unbatched(index, trace: list[dict], *, views: dict | None = None) -> list:
    """The baseline the service is measured against: one tree walk per
    request, no batching, no cache.

    Results use the service's conventions (global ids; (sq-dists, ids)
    rows for kNN), so they compare bitwise against a replay's results.

    ``views`` maps view name -> ``compute(pts, gids)`` callable; a
    ``view`` op then gathers the live points and recomputes the answer
    *from scratch*, yielding the same ``(answer, version)`` shape the
    service returns — the recompute-everything baseline incremental
    maintenance is gated against.
    """
    from ..kdtree.batch import batched_allnn_on_tree
    from ..kdtree.tree import KDTree

    is_kd = isinstance(index, KDTree)
    out = []
    for op in trace:
        kind = op["op"]
        if kind == "knn":
            q = np.asarray(op["q"], dtype=np.float64)[None, :]
            d, g = index.knn(q, int(op["k"]),
                             exclude_self=bool(op.get("exclude_self", False)))
            out.append((d[0], g[0]))
        elif kind == "ball":
            c = np.asarray(op["c"], dtype=np.float64)
            ids = index.range_query_ball(c, float(op["r"]))
            out.append(index.gids[ids] if is_kd else ids)
        elif kind == "box":
            ids = index.range_query_box(np.asarray(op["lo"], dtype=np.float64),
                                        np.asarray(op["hi"], dtype=np.float64))
            out.append(index.gids[ids] if is_kd else ids)
        elif kind == "allnn":
            out.append(batched_allnn_on_tree(index))
        elif kind == "insert":
            index.insert(np.asarray(op["pts"], dtype=np.float64))
            out.append(None)
        elif kind == "erase":
            index.erase(np.asarray(op["pts"], dtype=np.float64))
            out.append(None)
        elif kind == "view":
            if views is None or op["name"] not in views:
                raise ValueError(
                    f"view op {op['name']!r} needs a views= compute mapping"
                )
            pts, gids = index.gather_points()
            answer = views[op["name"]](pts, gids)
            out.append((answer, int(getattr(index, "version", 0))))
        else:
            raise ValueError(f"unknown trace op {kind!r}")
    return out
