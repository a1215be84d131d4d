"""The asyncio multi-tenant serving front-end.

:class:`Frontend` is the tenancy/fairness/overload layer above
:class:`~repro.serve.service.GeometryService` (which stays the
batching/caching layer).  Each **tenant** owns one registered index
(:class:`~repro.kdtree.tree.KDTree`, :class:`~repro.bdl.bdltree.BDLTree`
or :class:`~repro.cluster.index.ShardedIndex`), a scheduling weight,
and an optional token-bucket quota.  Clients call the ``await``-able
query API (:meth:`Frontend.knn` / :meth:`box` / :meth:`ball` /
:meth:`allnn`) and get back a :class:`Reply` whose ``approximate`` flag
is the degradation label.

Request lifecycle::

    await frontend.knn("acme", q, k=8)
      │ quota: tenant token bucket — exhausted -> QuotaExceeded(retry_after)
      │ admission: depth-driven state machine — in OVERLOADED, tenants
      │   at/above their weighted fair share of the queue budget get a
      │   typed Overloaded(retry_after); under-share tenants stay admitted
      │ enqueue on the tenant's queue, wake the dispatcher
      ▼
    dispatcher task (one per frontend, on the event loop)
      │ weighted-fair pick: backlogged tenant with smallest virtual tag
      │ drain one quantum (<= max_batch) of that tenant's queue; a
      │   request whose deadline already passed -> RequestTimeout, unrun
      │ execute the quantum inline, one segment per mutation barrier:
      │   exact   -> GeometryService.execute(tenant, segment)  (deduped + cached)
      │   degraded-> ShardedIndex.knn_home(...)                (home shard only)
      │   insert / erase -> the index (through its ViewManager)
      ▼
    resolve futures with Reply(value, approximate=...)
    await asyncio.sleep(0): arrivals are admitted, shed or degraded

Fairness is **weighted-fair dispatch**, not FIFO: a heavy tenant that
floods its queue only advances its own virtual time, so a light
tenant's requests are picked within one quantum per competitor and its
tail latency stays bounded (the load gate in ``BENCH_load.json`` holds
the light tenant's p99 to <= 3x its solo value under heavy-tenant
saturation).

Degradation is **explicit and labelled**: in the DEGRADED admission
state, kNN requests of tenants whose index has the home-shard-only
path are answered by :meth:`ShardedIndex.knn_home` and returned with
``approximate=True`` — real points at true distances, just possibly
not the globally nearest — never a silently wrong exact-looking
answer.  All other requests (and all tenants without a degraded path)
stay exact.

Quanta run on the event-loop thread, with no hand-off to a worker
thread: under one interpreter lock a worker adds no throughput, only a
round trip per quantum.  The dispatcher yields after every quantum, so
open-loop load generators (:mod:`repro.frontend.load`) still measure
genuine queueing behaviour: arrivals that came due during a quantum are
admitted (or typed-rejected) before the next one is picked, and the
quantum size ``max_batch`` bounds how long any of them waits for that.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..obs.registry import MetricsRegistry
from ..obs.rtrace import (
    PHASES,
    FlightRecorder,
    RequestTrace,
    new_trace_id,
)
from ..obs.slo import Objective, SLOTracker
from ..serve.service import KINDS, GeometryService, Outcome
from .admission import DEGRADED, NORMAL, OVERLOADED, AdmissionController
from .dispatch import TokenBucket, WeightedFairScheduler
from .errors import (
    Overloaded,
    QuotaExceeded,
    RequestTimeout,
    ServiceClosed,
    UnknownTenant,
)

__all__ = ["Frontend", "MUTATION_KINDS", "Reply"]

_STATE_CODE = {NORMAL: 0, DEGRADED: 1, OVERLOADED: 2}

#: Mutation request kinds: routed to the tenant's index (through its
#: ViewManager when one is attached) instead of the query service,
#: acting as barriers inside a dispatch quantum.
MUTATION_KINDS = ("insert", "erase")


@dataclass(frozen=True)
class Reply:
    """One answered front-end request.

    ``value`` is exactly what the underlying query returns ((sq-dists,
    ids) for kNN/allnn, an id array for ranges).  ``approximate`` is
    the degradation label: True if and only if the answer came from the
    home-shard-only path under overload — approximate replies are never
    returned unlabelled, and exact replies never carry the flag.
    ``trace`` is the request's closed
    :class:`~repro.obs.rtrace.RequestTrace` (trace id, phases summing
    to its latency, work share), or None with request tracing off.
    """

    value: object
    approximate: bool
    tenant: str
    kind: str
    queue_wait: float = 0.0
    cache_hit: bool = False
    trace: RequestTrace | None = None


class _Request:
    __slots__ = ("kind", "payload", "kw", "future", "enqueued_at", "deadline",
                 "degraded", "trace")

    def __init__(self, kind, payload, kw, future, enqueued_at, deadline,
                 degraded, trace=None):
        self.kind = kind
        self.payload = payload
        self.kw = kw
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.degraded = degraded
        self.trace = trace


@dataclass
class _Tenant:
    name: str
    index: object
    weight: float
    bucket: TokenBucket
    degradable: bool
    queue: deque = field(default_factory=deque)
    # per-tenant metric children resolved once at registration, so the
    # per-request path skips the family lock + label-tuple resolution
    m_requests: object = None
    m_completed: object = None
    m_hits: object = None
    m_degraded: object = None
    m_rejected: object = None
    m_quota: object = None
    m_latency: object = None
    m_phase: dict | None = None


class Frontend:
    """Async multi-tenant front-end with fair dispatch and admission.

    Parameters
    ----------
    service:
        The :class:`GeometryService` to execute through.  One is
        created — and owned, i.e. closed by :meth:`close` — when
        omitted.
    max_batch:
        Dispatch quantum: most requests drained from one tenant's queue
        per scheduling decision, and so the largest slab one
        :meth:`GeometryService.execute` call answers.
    queue_depth:
        Per-tenant queue bound; arrivals past it are shed with a typed
        :class:`Overloaded` even in the NORMAL state.
    degrade_at / reject_at:
        Total-depth thresholds of the admission state machine (default
        ``queue_depth // 2`` and ``queue_depth``).  See
        :mod:`repro.frontend.admission` for the hysteresis rules.
    registry:
        Metrics registry for the per-tenant labelled gauges/counters
        (the owned service publishes on the same one, so a single
        scrape covers both layers).
    clock:
        Injectable monotonic clock (tests drive quotas deterministically).
    rtrace:
        Request tracing: give each request's
        :class:`~repro.obs.rtrace.RequestTrace` (minted either way; the
        per-tenant counters are read off it) a trace id, return it as
        :attr:`Reply.trace`, feed the tail-sampling flight recorder (512
        records, the slowest decile) and the SLO tracker, and publish
        latency and phase histograms with exemplar trace ids.  On by
        default; ``rtrace=False`` is the ``BENCH_rtrace.json`` baseline.
    """

    def __init__(
        self,
        *,
        service: GeometryService | None = None,
        max_batch: int = 256,
        queue_depth: int = 1024,
        degrade_at: int | None = None,
        reject_at: int | None = None,
        resume_frac: float = 0.5,
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
        rtrace: bool = True,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        self._clock = clock

        self.registry = registry if registry is not None else MetricsRegistry()
        self._own_service = service is None
        if service is None:
            service = GeometryService(max_batch=max_batch, registry=self.registry)
        self._service = service

        self._tenants: dict[str, _Tenant] = {}
        self._sched = WeightedFairScheduler()

        reg = self.registry
        self._g_depth = reg.gauge(
            "frontend_queue_depth", "per-tenant front-end queue depth",
            labels=("tenant",),
        )
        self._g_depth_total = reg.gauge(
            "frontend_queue_depth_total", "front-end queue depth, all tenants"
        ).set_function(lambda: sum(len(t.queue) for t in self._tenants.values()))
        reg.gauge(
            "frontend_admission_state",
            "admission state (0=normal, 1=degraded, 2=overloaded)",
        ).set_function(lambda: _STATE_CODE[self.admission.state])
        self._g_hit_rate = reg.gauge(
            "frontend_hit_rate", "per-tenant result-cache hit rate",
            labels=("tenant",),
        )
        self._c_requests = reg.counter(
            "frontend_requests_total", "requests submitted per tenant",
            labels=("tenant",),
        )
        self._c_completed = reg.counter(
            "frontend_completed_total", "requests answered per tenant",
            labels=("tenant",),
        )
        self._c_hits = reg.counter(
            "frontend_cache_hits_total", "cache-served requests per tenant",
            labels=("tenant",),
        )
        self._c_degraded = reg.counter(
            "frontend_degraded_total",
            "requests answered approximately (home shard only) per tenant",
            labels=("tenant",),
        )
        self._c_rejected = reg.counter(
            "frontend_rejected_total",
            "requests shed by admission control per tenant",
            labels=("tenant",),
        )
        self._c_quota = reg.counter(
            "frontend_quota_rejections_total",
            "requests shed by token-bucket quotas per tenant",
            labels=("tenant",),
        )

        # request tracing: flight recorder + SLOs + phase histograms
        self._rtrace = bool(rtrace)
        self.flight: FlightRecorder | None = None
        self.slo: SLOTracker | None = None
        self._h_latency = self._h_phase = None
        if self._rtrace:
            self.flight = FlightRecorder(registry=reg)
            self.slo = SLOTracker(clock=clock, registry=reg)
            self._h_latency = reg.histogram(
                "frontend_latency_seconds",
                "end-to-end request latency per tenant",
                labels=("tenant",),
            )
            self._h_phase = reg.histogram(
                "frontend_phase_seconds",
                "per-request phase breakdown (phases sum to latency)",
                labels=("tenant", "phase"),
            )

        # the admission controller reads the same gauge the registry
        # exports, so the decision input and the metric cannot diverge
        self.admission = AdmissionController(
            lambda: self._g_depth_total.value,
            degrade_at=degrade_at if degrade_at is not None
            else max(1, queue_depth // 2),
            reject_at=reject_at if reject_at is not None else queue_depth,
            resume_frac=resume_frac,
        )

        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        name: str,
        index,
        *,
        weight: float = 1.0,
        rate: float | None = None,
        burst: float | None = None,
        slo: Objective | None = None,
    ) -> None:
        """Register a tenant owning ``index`` under ``name``.

        ``weight`` is the fair-dispatch share; ``rate``/``burst`` the
        token-bucket quota in requests/second (None = unlimited);
        ``slo`` the tenant's
        latency/availability :class:`~repro.obs.slo.Objective` (a
        default objective is registered when request tracing is on).
        """
        if self._closed or self._closing:
            raise ServiceClosed("frontend is closed")
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        self._service.register(name, index)
        t = _Tenant(
            name=name,
            index=index,
            weight=float(weight),
            bucket=TokenBucket(rate, burst, clock=self._clock),
            degradable=hasattr(index, "knn_home"),
        )
        t.m_requests = self._c_requests.labels(name)
        t.m_completed = self._c_completed.labels(name)
        t.m_hits = self._c_hits.labels(name)
        t.m_degraded = self._c_degraded.labels(name)
        t.m_rejected = self._c_rejected.labels(name)
        t.m_quota = self._c_quota.labels(name)
        if self._rtrace:
            def kept(ex):  # hide exemplars whose trace the recorder evicted
                return self.flight.lookup(ex["trace_id"]) is not None
            t.m_latency = self._h_latency.labels(name).keep_exemplars(kept)
            t.m_phase = {p: self._h_phase.labels(name, p).keep_exemplars(kept)
                         for p in PHASES}
        self._tenants[name] = t
        self._sched.add(name, weight)
        self._g_depth.labels(name).set_function(lambda t=t: len(t.queue))
        self._g_hit_rate.labels(name).set_function(
            lambda n=name: self._hit_rate(n)
        )
        if self.slo is not None:
            self.slo.set_objective(name, slo)

    def _fair_share(self, t: _Tenant) -> float:
        """``t``'s weight-proportional share of the global queue budget."""
        total_w = sum(s.weight for s in self._tenants.values())
        return max(1.0, self.admission.reject_at * t.weight / total_w)

    def _hit_rate(self, name: str) -> float:
        done = self._c_completed.labels(name).value
        return self._c_hits.labels(name).value / done if done else 0.0

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def tenant_index(self, name: str):
        t = self._tenants.get(name)
        if t is None:
            raise UnknownTenant(name)
        return t.index

    # ------------------------------------------------------------------
    # await-able query API
    # ------------------------------------------------------------------
    async def knn(self, tenant: str, q, k: int, *, exclude_self: bool = False,
                  timeout: float | None = None) -> Reply:
        """k nearest neighbors of one query point; value is ((k,), (k,))."""
        return await self._submit(
            tenant, "knn", q, {"k": int(k), "exclude_self": bool(exclude_self)},
            timeout,
        )

    async def box(self, tenant: str, lo, hi, *,
                  timeout: float | None = None) -> Reply:
        """Ids of the tenant's points inside the closed box [lo, hi]."""
        return await self._submit(tenant, "box", (lo, hi), {}, timeout)

    async def ball(self, tenant: str, center, radius: float, *,
                   timeout: float | None = None) -> Reply:
        """Ids of the tenant's points within ``radius`` of ``center``."""
        return await self._submit(
            tenant, "ball", center, {"radius": float(radius)}, timeout
        )

    async def allnn(self, tenant: str, *, timeout: float | None = None) -> Reply:
        """Each point's nearest neighbor: value is ((n,), (n,))."""
        return await self._submit(tenant, "allnn", None, {}, timeout)

    async def view(self, tenant: str, name: str, *,
                   timeout: float | None = None) -> Reply:
        """A materialized view's ``(answer, version)`` — never stale."""
        return await self._submit(tenant, "view", name, {}, timeout)

    async def insert(self, tenant: str, points, gids=None, *,
                     timeout: float | None = None) -> Reply:
        """Batch-insert into the tenant's dynamic index.

        The mutation queues through the same weighted-fair scheduler as
        queries and acts as a *barrier* inside its quantum: requests
        ahead of it see the old version, requests behind it the new.
        Value is ``(gids, version)``; registered views are repaired
        before the reply resolves (the ``view_repair`` phase).
        """
        return await self._submit(
            tenant, "insert", points, {"gids": gids}, timeout)

    async def erase(self, tenant: str, points, *,
                    timeout: float | None = None) -> Reply:
        """Batch-erase by coordinates; value is ``(deleted, version)``."""
        return await self._submit(tenant, "erase", points, {}, timeout)

    def subscribe_view(self, tenant: str, fn):
        """Register ``fn(event)`` on the tenant's view manager."""
        mgr = getattr(self.tenant_index(tenant), "views", None)
        if mgr is None:
            raise ValueError(f"tenant {tenant!r} has no materialized views")
        return mgr.subscribe(fn)

    def unsubscribe_view(self, tenant: str, fn) -> None:
        mgr = getattr(self.tenant_index(tenant), "views", None)
        if mgr is not None:
            mgr.unsubscribe(fn)

    async def submit(self, tenant: str, kind: str, payload=None, *,
                     timeout: float | None = None, **kw) -> Reply:
        """Generic entry point: any query kind of
        :data:`~repro.serve.service.KINDS` with its parameters as
        keywords, or the ``insert`` / ``erase`` mutation kinds."""
        if kind not in KINDS and kind not in MUTATION_KINDS:
            raise ValueError(
                f"unknown request kind {kind!r}; expected one of "
                f"{KINDS + MUTATION_KINDS}"
            )
        return await self._submit(tenant, kind, payload, kw, timeout)

    # ------------------------------------------------------------------
    # admission + enqueue
    # ------------------------------------------------------------------
    @staticmethod
    def _phase_split(latency, queue_wait, compute, merge, cache,
                     view_repair=0.0) -> dict:
        """Close the phase decomposition so it sums to ``latency``.

        The attributed phases (compute / view_repair / merge / cache)
        are scaled down if they overrun the post-queue window (clock
        skew between the serve-side walls and the end-to-end latency);
        ``dispatch`` is the non-negative residual, so the six phases
        always sum to the measured latency (within a float ulp of the
        subtraction).
        """
        avail = max(latency - queue_wait, 0.0)
        heavy = compute + merge + cache + view_repair
        if heavy > avail:
            s = avail / heavy if heavy > 0 else 0.0
            compute, merge = compute * s, merge * s
            cache, view_repair = cache * s, view_repair * s
        dispatch = max(
            latency - queue_wait - compute - merge - cache - view_repair, 0.0
        )
        return {"queue_wait": queue_wait, "dispatch": dispatch,
                "compute": compute, "view_repair": view_repair,
                "merge": merge, "cache": cache}

    def _finish(self, t, trt, outcome="ok", *, queue_wait=0.0, compute=None,
                view_repair=0.0, approximate=False, error=None):
        """Close one request's record and book it: the one booking path.

        Sets ``latency``, ``outcome`` and ``error``.  An ``ok`` request's
        phases close over its ``queue_wait``, the ``compute`` / ``merge``
        seconds the service wrote (``compute`` overrides them on the
        degraded and mutation paths) and a cache hit's post-queue time,
        with ``dispatch`` the residual (:meth:`_phase_split`); a shed or
        timed-out request spent its whole latency queued.  The tenant's
        counters are read off the closed record; with request tracing on
        it is also offered to the flight recorder and scored in the
        latency / phase histograms and the SLO tracker.  Returns the
        reply's ``trace``: the record, or None with tracing off.
        """
        latency = self._clock() - trt.t_start
        trt.latency = latency
        trt.outcome = outcome
        if outcome == "ok":
            qw = min(max(queue_wait, 0.0), latency)
            ph = trt.phases
            if compute is None:
                compute = ph.get("compute", 0.0)
            cache = max(latency - qw, 0.0) if trt.cache_hit else 0.0
            trt.approximate = approximate
            trt.phases = self._phase_split(
                latency, qw, compute, ph.get("merge", 0.0), cache, view_repair
            )
            t.m_completed.inc()
            if trt.cache_hit:
                t.m_hits.inc()
            if approximate:
                t.m_degraded.inc()
        else:
            trt.phases = {} if outcome == "error" else {"queue_wait": latency}
            trt.error = repr(error) if error is not None else None
            if outcome == "shed":
                t.m_rejected.inc()
                if isinstance(error, QuotaExceeded):
                    t.m_quota.inc()
        if not self._rtrace:
            return None
        reason = self.flight.observe(trt)
        if outcome != "ok":
            self.slo.record(t.name, latency=None)
            return trt
        ex = {"trace_id": trt.trace_id} if reason else None
        t.m_latency.observe(latency, exemplar=ex)
        m_phase = t.m_phase
        for p in PHASES:
            m_phase[p].observe(trt.phases[p], exemplar=ex)
        self.slo.record(t.name, latency=latency)
        return trt

    def _shed(self, t, trt, error):
        """Close a shed request's record; returns the error to raise."""
        self._finish(t, trt, "shed", error=error)
        return error

    async def _submit(self, tenant, kind, payload, kw, timeout) -> Reply:
        if self._closed or self._closing:
            raise ServiceClosed("frontend is closed")
        t = self._tenants.get(tenant)
        if t is None:
            raise UnknownTenant(tenant)
        t.m_requests.inc()
        trt = RequestTrace(new_trace_id() if self._rtrace else None,
                           tenant, kind, self._clock())

        # per-tenant quota: all-or-nothing token take, exact retry-after
        wait = t.bucket.try_acquire()
        if wait > 0.0:
            raise self._shed(t, trt, QuotaExceeded(tenant, wait))

        # depth-driven admission state machine.  In OVERLOADED only the
        # tenants at/above their weighted fair share of the queue budget
        # are shed — a light tenant with a near-empty queue keeps being
        # served (degraded when possible) no matter how hard a heavy
        # tenant floods the shared front-end.
        decision = self.admission.decide()
        if not decision.admit and len(t.queue) >= self._fair_share(t):
            raise self._shed(t, trt, Overloaded(
                decision.depth, self.admission.reject_at, decision.retry_after
            ))
        if len(t.queue) >= self.queue_depth:
            raise self._shed(t, trt, Overloaded(
                len(t.queue), self.queue_depth, decision.retry_after
                or self.admission._retry_after(len(t.queue))
            ))
        degraded = decision.state != NORMAL and kind == "knn" and t.degradable

        loop = asyncio.get_running_loop()
        now = self._clock()
        req = _Request(kind, payload, kw, loop.create_future(), now,
                       now + timeout if timeout is not None else None,
                       degraded, trt)
        t.queue.append(req)
        self._sched.arrive(tenant)
        self._ensure_dispatcher(loop)
        self._wake.set()

        if timeout is None:
            return await req.future
        try:
            return await asyncio.wait_for(req.future, timeout)
        except asyncio.TimeoutError:
            self._finish(t, trt, "timeout")
            raise RequestTimeout(timeout) from None

    # ------------------------------------------------------------------
    # weighted-fair dispatcher
    # ------------------------------------------------------------------
    def _ensure_dispatcher(self, loop) -> None:
        if self._wake is None:
            self._wake = asyncio.Event()
        if self._task is None or self._task.done():
            self._task = loop.create_task(
                self._dispatch_loop(), name="repro-frontend-dispatch"
            )

    async def _dispatch_loop(self) -> None:
        while True:
            if self._sched.total_backlog() == 0:
                if self._closing:
                    return
                self._wake.clear()
                if self._sched.total_backlog() == 0 and not self._closing:
                    await self._wake.wait()
                continue

            name = self._sched.pick()
            t = self._tenants[name]
            batch: list[_Request] = []
            taken = 0
            t0 = self._clock()
            while t.queue and len(batch) < self.max_batch:
                req = t.queue.popleft()
                taken += 1
                if req.future.done():  # cancelled by its caller
                    continue
                if req.deadline is not None and t0 > req.deadline:
                    # expired before its quantum was picked: never runs
                    req.future.set_exception(RequestTimeout(t0 - req.enqueued_at))
                    self._finish(t, req.trace, "timeout")
                    continue
                batch.append(req)
            self._sched.dispatched(name, taken)
            if batch:
                try:
                    outcomes = self._execute_batch(t, batch, t0)
                except Exception as exc:
                    outcomes = [(False, exc)] * len(batch)
                self.admission.note_drained(len(batch), self._clock() - t0)
                for req, (ok, val) in zip(batch, outcomes):
                    fut = req.future
                    if fut.done():
                        continue
                    if ok:
                        fut.set_result(val)
                    else:
                        fut.set_exception(val)
            # let arrivals that came due during the quantum be admitted,
            # shed or degraded before the next pick
            await asyncio.sleep(0)

    # -- quantum execution ---------------------------------------------
    def _execute_batch(self, t: _Tenant, batch: list[_Request], t0: float):
        """Execute one tenant quantum on the event-loop thread.

        Mutations act as barriers: the quantum splits into query
        segments at each insert/erase, so a request's answer always
        reflects exactly the mutations queued ahead of it.  Within a
        segment, exact requests are one :meth:`GeometryService.execute`
        call (dedup + cache) and degraded kNN requests go straight to
        the index's home-shard-only path.
        """
        out: dict[int, tuple[bool, object]] = {}
        segment: list[_Request] = []
        for r in batch:
            if r.kind in MUTATION_KINDS:
                if segment:
                    self._run_segment(t, segment, t0, out)
                    segment = []
                self._run_mutation(t, r, t0, out)
            else:
                segment.append(r)
        if segment:
            self._run_segment(t, segment, t0, out)
        return [out[id(r)] for r in batch]

    def _run_mutation(self, t: _Tenant, r: _Request, t0: float,
                      out: dict) -> None:
        """Apply one batch mutation, repairing views before replying."""
        mgr = getattr(t.index, "views", None)
        a0 = self._clock()
        try:
            pts = np.ascontiguousarray(r.payload, dtype=np.float64)
            if r.kind == "insert":
                target = mgr if mgr is not None else t.index
                value = target.insert(pts, r.kw.get("gids"))
            else:
                target = mgr if mgr is not None else t.index
                value = target.erase(pts)
        except Exception as exc:
            out[id(r)] = (False, exc)
            self._finish(t, r.trace, "error", error=exc)
            return
        wall = self._clock() - a0
        repair = mgr.last_stats["repair_s"] if mgr is not None else 0.0
        qw = t0 - r.enqueued_at
        out[id(r)] = (True, Reply(
            value=(value, int(getattr(t.index, "version", 0))),
            approximate=False, tenant=t.name, kind=r.kind, queue_wait=qw,
            trace=self._finish(t, r.trace, queue_wait=qw,
                               compute=max(wall - repair, 0.0),
                               view_repair=repair),
        ))

    def _run_segment(self, t: _Tenant, batch: list[_Request], t0: float,
                     out: dict) -> None:
        exact = [r for r in batch if not r.degraded]
        degraded = [r for r in batch if r.degraded]

        if exact:
            try:
                outcomes = self._service.execute(t.name, exact)
            except Exception as exc:  # the service refused the whole slab
                outcomes = [Outcome(error=exc)] * len(exact)
            for r, o in zip(exact, outcomes):
                if o.error is not None:
                    out[id(r)] = (False, o.error)
                    self._finish(t, r.trace, "error", error=o.error)
                    continue
                qw = t0 - r.enqueued_at
                out[id(r)] = (True, Reply(
                    value=o.value, approximate=False, tenant=t.name,
                    kind=r.kind, queue_wait=qw, cache_hit=o.trace.cache_hit,
                    trace=self._finish(t, r.trace, queue_wait=qw),
                ))

        if degraded:
            groups: dict[tuple, list[_Request]] = {}
            for r in degraded:
                groups.setdefault(
                    (r.kw["k"], r.kw.get("exclude_self", False)), []
                ).append(r)
            for (k, excl), reqs in groups.items():
                t_g0 = self._clock()
                try:
                    qs = np.ascontiguousarray(
                        [np.asarray(r.payload, dtype=np.float64) for r in reqs]
                    )
                    d2, gid = t.index.knn_home(qs, k, exclude_self=excl)
                except Exception as exc:
                    for r in reqs:
                        out[id(r)] = (False, exc)
                        self._finish(t, r.trace, "error", error=exc)
                    continue
                group_share = (self._clock() - t_g0) / len(reqs)
                for i, r in enumerate(reqs):
                    qw = t0 - r.enqueued_at
                    out[id(r)] = (True, Reply(
                        value=(d2[i], gid[i]), approximate=True,
                        tenant=t.name, kind="knn", queue_wait=qw,
                        trace=self._finish(t, r.trace, queue_wait=qw,
                                           compute=group_share,
                                           approximate=True),
                    ))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self, *, drain: bool = True) -> None:
        """Close the front-end; idempotent and drain-safe.

        With ``drain=True`` (default) every queued request executes
        before the dispatcher exits; with ``drain=False`` queued
        requests are rejected with a typed :class:`ServiceClosed`.
        Either way in-flight work completes, a second close is a no-op,
        and submissions after the first close raise ``ServiceClosed``.
        """
        if self._closed:
            return
        self._closing = True
        if not drain:
            for t in self._tenants.values():
                while t.queue:
                    req = t.queue.popleft()
                    if not req.future.done():
                        req.future.set_exception(
                            ServiceClosed("frontend is closed")
                        )
                self._sched.dispatched(t.name, self._sched.backlog(t.name))
        if self._task is not None:
            if self._wake is not None:
                self._wake.set()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._closed:  # a concurrent close finished the teardown
            return
        self._closed = True
        # stragglers (enqueued between drain and task exit) get typed errors
        for t in self._tenants.values():
            while t.queue:
                req = t.queue.popleft()
                if not req.future.done():
                    req.future.set_exception(ServiceClosed("frontend is closed"))
        if self._own_service:
            self._service.close()

    async def __aenter__(self) -> "Frontend":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def pending(self, tenant: str | None = None) -> int:
        if tenant is None:
            return int(self._g_depth_total.value)
        t = self._tenants.get(tenant)
        if t is None:
            raise UnknownTenant(tenant)
        return len(t.queue)

    def snapshot(self) -> dict:
        """Front-end-wide stats: per-tenant counters + admission state."""
        out = {
            "tenants": self.tenants(),
            "admission_state": self.admission.state,
            "queue_depth_total": self.pending(),
            "drain_rate": self.admission.drain_rate,
            "per_tenant": {},
        }
        if self.flight is not None:
            out["flight"] = self.flight.snapshot()
        if self.slo is not None:
            out["slo"] = self.slo.snapshot()
        for name in self._tenants:
            out["per_tenant"][name] = {
                "queue_depth": self.pending(name),
                "requests": int(self._c_requests.labels(name).value),
                "completed": int(self._c_completed.labels(name).value),
                "rejected": int(self._c_rejected.labels(name).value),
                "quota_rejections": int(self._c_quota.labels(name).value),
                "degraded": int(self._c_degraded.labels(name).value),
                "cache_hits": int(self._c_hits.labels(name).value),
                "hit_rate": self._hit_rate(name),
            }
        return out

    def metrics_text(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()
