"""Open-loop load generation and measurement for the front-end.

The harness drives a :class:`~repro.frontend.frontend.Frontend` with
**open-loop** arrivals: each tenant's requests fire on a pre-computed
arrival schedule (:func:`repro.serve.trace.open_loop_arrivals` —
Poisson or bursty) regardless of whether earlier requests have
completed.  That is the property that makes overload measurable: a
closed loop self-throttles when the server slows down and can never
push it past saturation, while an open loop keeps offering load so
queues actually grow, admission control actually trips, and tail
latency means what it says.

One :class:`TenantLoad` per tenant pairs a trace (typically
:func:`repro.serve.trace.zipf_trace` for cache-visible hot spots) with
an arrival rate and pattern; :func:`run_open_loop` runs all tenants
concurrently on one event loop and returns a :class:`LoadReport` with
per-tenant p50/p99/p999 latency, rejection/timeout counts, degraded
counts, and throughput — the numbers the ``load-bench`` CLI prints and
the ``BENCH_load.json`` gate asserts on.

Degraded answers can be spot-checked after the run:
:func:`verify_degraded` recomputes each recorded approximate sample
exactly and checks the two properties the system promises — returned
distances are true distances, and they rank-wise dominate the exact
k-nearest distances (home-shard answers are exact over a *subset* of
the points, never fabricated).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.rtrace import PHASES, percentile
from ..serve.errors import Overloaded, RequestTimeout, ServiceClosed
from ..serve.trace import open_loop_arrivals
from .errors import QuotaExceeded

__all__ = [
    "LoadReport",
    "TenantLoad",
    "TenantReport",
    "percentile",
    "run_open_loop",
    "verify_degraded",
]


@dataclass
class TenantLoad:
    """One tenant's offered load: a trace plus an arrival process."""

    tenant: str
    trace: list
    rate: float
    pattern: str = "poisson"
    burst_factor: float = 8.0
    burst_frac: float = 0.1
    seed: int = 0
    timeout: float | None = None


@dataclass
class TenantReport:
    """Measured outcome for one tenant of an open-loop run."""

    tenant: str
    offered: int = 0
    completed: int = 0
    rejected: int = 0          # admission-control sheds (Overloaded)
    quota_rejected: int = 0    # token-bucket sheds (QuotaExceeded)
    timeouts: int = 0
    errors: int = 0
    degraded: int = 0
    cache_hits: int = 0
    p50: float = 0.0
    p99: float = 0.0
    p999: float = 0.0
    mean: float = 0.0
    max: float = 0.0
    throughput: float = 0.0
    #: per-phase latency decomposition (seconds): phase -> {mean, p50, p99}.
    #: Populated only when the front-end runs with request tracing on —
    #: each completed Reply's record carries its exact phase split (the
    #: six :data:`~repro.obs.rtrace.PHASES` sum to the request's latency).
    phases: dict = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        shed = self.rejected + self.quota_rejected + self.timeouts
        return shed / self.offered if self.offered else 0.0

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "tenant", "offered", "completed", "rejected", "quota_rejected",
            "timeouts", "errors", "degraded", "cache_hits",
            "p50", "p99", "p999", "mean", "max", "throughput",
        )}
        out["rejection_rate"] = self.rejection_rate
        if self.phases:
            out["phases"] = self.phases
        return out


@dataclass
class LoadReport:
    """Whole-run outcome: per-tenant reports plus run-wide aggregates."""

    duration: float
    per_tenant: dict[str, TenantReport]
    queue_high_watermark: int = 0
    degraded_samples: list = field(default_factory=list)

    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.per_tenant.values())

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.per_tenant.values())

    @property
    def throughput(self) -> float:
        """Saturation throughput: completed requests per second of run."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def rejection_rate(self) -> float:
        offered = self.offered
        shed = sum(
            t.rejected + t.quota_rejected + t.timeouts
            for t in self.per_tenant.values()
        )
        return shed / offered if offered else 0.0

    def to_json(self) -> dict:
        return {
            "duration": self.duration,
            "offered": self.offered,
            "completed": self.completed,
            "throughput": self.throughput,
            "rejection_rate": self.rejection_rate,
            "queue_high_watermark": self.queue_high_watermark,
            "degraded_verified": len(self.degraded_samples),
            "per_tenant": {
                name: t.to_json() for name, t in sorted(self.per_tenant.items())
            },
        }

    def summary(self) -> str:
        lines = [
            f"open-loop run: {self.offered} offered, {self.completed} ok "
            f"({self.throughput:.0f} req/s), "
            f"rejection rate {self.rejection_rate:.1%}, "
            f"queue high-watermark {self.queue_high_watermark}"
        ]
        for name, t in sorted(self.per_tenant.items()):
            lines.append(
                f"  {name:>10s}: offered {t.offered:6d}  ok {t.completed:6d}"
                f"  shed {t.rejected + t.quota_rejected:5d}"
                f"  timeout {t.timeouts:4d}  degraded {t.degraded:5d}"
                f"  p50 {t.p50 * 1e3:7.2f}ms  p99 {t.p99 * 1e3:7.2f}ms"
                f"  p999 {t.p999 * 1e3:7.2f}ms"
            )
            if t.phases:
                parts = "  ".join(
                    f"{ph} {stats['mean'] * 1e3:.2f}ms"
                    for ph, stats in t.phases.items()
                )
                lines.append(f"  {'':>10s}  phase means: {parts}")
        return "\n".join(lines)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")


class _Recorder:
    """Mutable per-tenant tally shared by that tenant's issue tasks."""

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.latencies: list[float] = []
        self.phases: dict[str, list[float]] = {}
        self.rep = TenantReport(tenant)


async def _issue(frontend, load: TenantLoad, op: dict, rec: _Recorder,
                 samples: list, max_samples: int, clock) -> None:
    rec.rep.offered += 1
    t0 = clock()
    try:
        kind = op.get("op")
        if kind == "knn":
            reply = await frontend.knn(
                load.tenant, op["q"], op["k"], timeout=load.timeout
            )
        elif kind == "ball":
            reply = await frontend.ball(
                load.tenant, op["c"], op["r"], timeout=load.timeout
            )
        elif kind == "box":
            reply = await frontend.box(
                load.tenant, op["lo"], op["hi"], timeout=load.timeout
            )
        elif kind == "allnn":
            reply = await frontend.allnn(load.tenant, timeout=load.timeout)
        else:
            raise ValueError(f"unknown trace op {kind!r}")
    except QuotaExceeded:
        rec.rep.quota_rejected += 1
        return
    except Overloaded:
        rec.rep.rejected += 1
        return
    except RequestTimeout:
        rec.rep.timeouts += 1
        return
    except (ServiceClosed, asyncio.CancelledError):
        rec.rep.errors += 1
        return
    except Exception:
        rec.rep.errors += 1
        return
    rec.latencies.append(clock() - t0)
    rec.rep.completed += 1
    if reply.trace is not None:
        for ph, v in reply.trace.phases.items():
            rec.phases.setdefault(ph, []).append(v)
    if reply.cache_hit:
        rec.rep.cache_hits += 1
    if reply.approximate:
        rec.rep.degraded += 1
        if len(samples) < max_samples and kind == "knn":
            d2, gid = reply.value
            samples.append({
                "tenant": load.tenant,
                "q": np.asarray(op["q"], dtype=np.float64),
                "k": int(op["k"]),
                "d2": np.asarray(d2, dtype=np.float64).copy(),
                "gid": np.asarray(gid, dtype=np.int64).copy(),
            })


async def _drive(frontend, load: TenantLoad, rec: _Recorder, samples,
                 max_samples, time_scale: float, watermark, clock) -> None:
    """Fire one tenant's trace on its open-loop schedule."""
    offs = open_loop_arrivals(
        len(load.trace), load.rate,
        pattern=load.pattern, burst_factor=load.burst_factor,
        burst_frac=load.burst_frac, seed=load.seed,
    )
    start = clock()
    # finished tasks leave the set: a long overload run does not keep
    # every request's task alive for the garbage collector to rescan
    tasks = set()
    for op, off in zip(load.trace, offs):
        delay = off * time_scale - (clock() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        # open loop: issue unconditionally, never wait for completion
        task = asyncio.ensure_future(
            _issue(frontend, load, op, rec, samples, max_samples, clock)
        )
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        watermark[0] = max(watermark[0], frontend.pending())
    if tasks:
        await asyncio.gather(*tasks)


async def run_open_loop(
    frontend,
    loads: list[TenantLoad],
    *,
    time_scale: float = 1.0,
    max_degraded_samples: int = 64,
    clock=time.monotonic,
) -> LoadReport:
    """Run all tenant loads concurrently; returns the measured report.

    ``time_scale`` stretches (>1) or compresses (<1) every arrival
    schedule — compressing is how a fixed trace is pushed past
    saturation without regenerating it.  Up to ``max_degraded_samples``
    approximate kNN replies are recorded verbatim for post-hoc exact
    verification with :func:`verify_degraded`.
    """
    recs = {ld.tenant: _Recorder(ld.tenant) for ld in loads}
    if len(recs) != len(loads):
        raise ValueError("one TenantLoad per tenant, tenants must be unique")
    samples: list = []
    watermark = [0]
    t_start = clock()
    await asyncio.gather(*[
        _drive(frontend, ld, recs[ld.tenant], samples, max_degraded_samples,
               time_scale, watermark, clock)
        for ld in loads
    ])
    duration = clock() - t_start

    per_tenant: dict[str, TenantReport] = {}
    for name, rec in recs.items():
        rep = rec.rep
        lats = rec.latencies
        if lats:
            rep.p50 = percentile(lats, 50.0)
            rep.p99 = percentile(lats, 99.0)
            rep.p999 = percentile(lats, 99.9)
            rep.mean = float(np.mean(lats))
            rep.max = float(np.max(lats))
        rep.throughput = rep.completed / duration if duration > 0 else 0.0
        rep.phases = {
            ph: {
                "mean": float(np.mean(vals)),
                "p50": percentile(vals, 50.0),
                "p99": percentile(vals, 99.0),
            }
            for ph in PHASES
            if (vals := rec.phases.get(ph))
        }
        per_tenant[name] = rep
    return LoadReport(
        duration=duration,
        per_tenant=per_tenant,
        queue_high_watermark=int(watermark[0]),
        degraded_samples=samples,
    )


def verify_degraded(index, samples) -> int:
    """Exactly recompute recorded approximate kNN samples; returns count.

    For each sample the exact k-nearest squared distances over the
    *full* index are recomputed and two properties are asserted:

    1. **Distance truth** — every returned (finite) distance equals the
       true squared distance from the query to the returned point id,
       i.e. degraded answers are real points at real distances;
    2. **Rank-wise dominance** — the degraded i-th distance is >= the
       exact i-th distance (a subset's k-nearest can only be farther).

    Raises ``AssertionError`` on any violation.
    """
    if hasattr(index, "shards"):  # ShardedIndex: gather live (coords, gids)
        parts = [sh.gather() for sh in index.shards]
        pts = np.vstack([p for p, _ in parts])
        gids_all = np.concatenate([g for _, g in parts])
        by_gid = np.full(int(gids_all.max()) + 1, -1, dtype=np.int64)
        by_gid[gids_all] = np.arange(len(gids_all))
    else:
        pts = np.asarray(index.points, dtype=np.float64)
        by_gid = np.arange(len(pts))
    for s in samples:
        q = np.asarray(s["q"], dtype=np.float64)
        k = int(s["k"])
        d2 = np.asarray(s["d2"], dtype=np.float64)
        gid = np.asarray(s["gid"], dtype=np.int64)
        exact_d2, _ = index.knn(q[None, :], k)
        exact_d2 = np.asarray(exact_d2, dtype=np.float64).reshape(-1)
        live = gid >= 0
        rows = by_gid[gid[live]]
        assert np.all(rows >= 0), f"degraded answer cites dead gid for q={q!r}"
        got = np.linalg.norm(pts[rows] - q[None, :], axis=1) ** 2
        assert np.allclose(d2[live], got, rtol=1e-9, atol=1e-9), (
            f"degraded distances are not true distances for q={q!r}"
        )
        finite = np.isfinite(exact_d2) & np.isfinite(d2)
        assert np.all(d2[finite] >= exact_d2[finite] - 1e-9), (
            f"degraded answer beats exact kNN for q={q!r} (impossible)"
        )
    return len(samples)
