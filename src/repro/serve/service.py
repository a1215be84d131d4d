"""In-process geometry query service with dynamic batching.

:class:`GeometryService` accepts *single* kNN / box-range / ball-range /
all-NN requests against registered point indexes (static
:class:`~repro.kdtree.tree.KDTree` or batch-dynamic
:class:`~repro.bdl.bdltree.BDLTree`) and turns them into batches:

* **Dynamic batching** — a coalescing queue groups compatible pending
  requests (same dataset, same kind / k) and dispatches them in one
  shot per tree, bounded by ``max_batch`` (size trigger) and
  ``max_wait`` (latency trigger).  Each tree call picks its engine by
  size (:func:`repro.kdtree.batch.resolve_engine`): the array-at-a-time
  engine, 11–18x faster on 50K-query batches, from 32 kNN queries (2
  range queries) up; the per-query walk below that.  Served traffic
  mostly sits below: traced wallbench runs answer 1.05–1.15 requests
  per front-end batch, where a kNN walk is about 7x faster.
* **Versioned result cache** — an LRU keyed by (dataset epoch, tree
  version, kind, params, query digest).  The index's ``version``
  counter bumps on every batch insert/delete, so a stale entry's key
  can never be looked up again.
* **Admission control / backpressure** — the pending queue is bounded
  by ``max_pending``; submissions beyond it are rejected with a typed
  :class:`~repro.serve.errors.Overloaded` instead of silently degrading
  everyone.  Per-request deadlines reject late requests with
  :class:`~repro.serve.errors.RequestTimeout` before wasting execution.
* **Per-request metrics** — every ticket resolves with a
  :class:`~repro.serve.metrics.RequestMetrics` (queue wait, batch size
  joined, cache hit, work/depth charged, captured via the thread-local
  :func:`repro.parlay.workdepth.capture` so concurrent request streams
  on the ``threads`` backend never bleed costs into each other);
  :meth:`GeometryService.snapshot` aggregates service-wide.

The service runs in two modes: *manual* (no background thread — callers
drive dispatch with :meth:`flush`, and the blocking convenience methods
flush on demand; fully deterministic, what the tests and benchmarks
use) and *threaded* (:meth:`start` spawns a dispatcher thread that
batches on the size/deadline triggers while client threads block on
tickets).

Results are bitwise-identical to per-request recursive queries: the
batched engine replays the recursive walk exactly (see
:mod:`repro.kdtree.batch`), grouping only merges independent queries,
and the cache stores exactly what an execution returned.

Mutating an index while a dispatch is executing is not synchronized by
the service; the dispatcher re-reads the version counter after
executing and refuses to cache results that straddle a mutation, so a
torn result can be *returned* (to the racing caller, which is inherent
to unsynchronized mutation) but never *cached*.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..kdtree.batch import execute_requests
from ..obs.registry import MetricsRegistry
from ..obs.rtrace import batch_context, batch_subtree, partition_work
from ..obs.span import active_recorder
from ..parlay.workdepth import capture
from .cache import MISS, ResultCache, make_key, query_digest
from .coalescer import Coalescer, PendingRequest, Ticket
from .errors import Overloaded, RequestTimeout, ServiceClosed, UnknownDataset
from .metrics import RequestMetrics, ServiceStats

__all__ = ["GeometryService", "KINDS"]

#: Request kinds the service understands.
KINDS = ("knn", "box", "ball", "allnn", "view")

_UNSET = object()


class GeometryService:
    """An in-process query front-end over registered geometry indexes.

    Parameters
    ----------
    max_batch:
        Most requests dispatched together in one coalesced execution.
    max_wait:
        Seconds the threaded dispatcher lets a non-full batch age
        before dispatching anyway (latency bound).  Ignored in manual
        mode, where :meth:`flush` dispatches immediately.
    max_pending:
        Bound on the coalescing queue; submissions past it raise
        :class:`Overloaded`.
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    default_timeout:
        Default per-request deadline in seconds (None = no deadline).
    registry:
        Metrics registry to publish on (one is created when omitted).
        Request counters, cache gauges, and the pending-queue gauge all
        live on it; :meth:`metrics_text` renders it for Prometheus.
    """

    def __init__(
        self,
        *,
        max_batch: int = 256,
        max_wait: float = 0.002,
        max_pending: int = 2048,
        cache_capacity: int = 4096,
        default_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_pending = int(max_pending)
        self.default_timeout = default_timeout

        self._cache = ResultCache(cache_capacity)
        self._coal = Coalescer()
        self._cond = threading.Condition()
        self._datasets: dict[str, object] = {}
        self._epochs: dict[str, int] = {}
        self._next_epoch = 0
        self._closed = False
        self._stopping = False
        self._thread: threading.Thread | None = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ServiceStats(self.registry)
        # cache and coalescer state publish as polled gauges on the same
        # registry, so one snapshot covers the whole serving layer
        self.registry.gauge(
            "serve_cache_size", "live result-cache entries"
        ).set_function(lambda: len(self._cache))
        self.registry.gauge(
            "serve_cache_capacity", "result-cache capacity"
        ).set_function(lambda: self._cache.capacity)
        self.registry.gauge(
            "serve_cache_evictions", "result-cache LRU evictions"
        ).set_function(lambda: self._cache.evictions)
        self.registry.gauge(
            "serve_pending", "requests waiting in the coalescing queue"
        ).set_function(self.pending)

    # ------------------------------------------------------------------
    # dataset registry
    # ------------------------------------------------------------------
    def register(self, name: str, index) -> None:
        """Register (or replace) a queryable index under ``name``.

        The index must expose ``dim`` and ``knn`` (KDTree and BDLTree
        both do).  Indexes without a ``version`` attribute get one, so
        external mutation helpers can bump it.
        """
        if not hasattr(index, "knn") or not hasattr(index, "dim"):
            raise TypeError(
                f"index for {name!r} must expose .dim and .knn "
                f"(got {type(index).__name__})"
            )
        if getattr(index, "version", None) is None:
            index.version = 0
        with self._cond:
            self._datasets[name] = index
            self._epochs[name] = self._next_epoch
            self._next_epoch += 1

    def unregister(self, name: str) -> None:
        with self._cond:
            if name not in self._datasets:
                raise UnknownDataset(name)
            del self._datasets[name]
            del self._epochs[name]

    def index(self, name: str):
        """The registered index object (e.g. to apply a mutation batch)."""
        with self._cond:
            idx = self._datasets.get(name)
        if idx is None:
            raise UnknownDataset(name)
        return idx

    def datasets(self) -> list[str]:
        with self._cond:
            return sorted(self._datasets)

    # ------------------------------------------------------------------
    # request normalization
    # ------------------------------------------------------------------
    def _normalize(self, index, kind, payload, k, radius, exclude_self):
        """Canonicalize a request into (payload, params, digest)."""
        d = index.dim
        if kind == "knn":
            if k is None:
                raise ValueError("knn requests require k=")
            q = np.ascontiguousarray(payload, dtype=np.float64)
            if q.shape != (d,):
                raise ValueError(f"knn query must have shape ({d},), got {q.shape}")
            params = (("exclude_self", bool(exclude_self)), ("k", int(k)))
            return q, params, query_digest(q)
        if kind == "box":
            lo, hi = payload
            box = np.ascontiguousarray(np.stack([lo, hi]), dtype=np.float64)
            if box.shape != (2, d):
                raise ValueError(f"box query must be (lo, hi) of dim {d}")
            return box, (), query_digest(box)
        if kind == "ball":
            c = np.ascontiguousarray(payload, dtype=np.float64)
            if c.shape != (d,):
                raise ValueError(f"ball center must have shape ({d},), got {c.shape}")
            if radius is None:
                raise ValueError("ball requests require radius=")
            r = float(radius)
            return (c, r), (), query_digest(c, np.float64(r))
        if kind == "allnn":
            return None, (), b"allnn"
        if kind == "view":
            if not isinstance(payload, str) or not payload:
                raise ValueError("view requests take the view name as payload")
            if getattr(index, "views", None) is None:
                raise ValueError(
                    f"dataset has no materialized views; attach a ViewManager"
                    f" before requesting view {payload!r}"
                )
            return payload, (("name", payload),), payload.encode("utf-8")
        raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: str,
        kind: str,
        payload=None,
        *,
        k: int | None = None,
        radius: float | None = None,
        exclude_self: bool = False,
        timeout: float | None = _UNSET,
        ctx=None,
    ) -> Ticket:
        """Enqueue one request; returns a :class:`Ticket` immediately.

        Raises :class:`Overloaded` when the pending queue is full,
        :class:`UnknownDataset` / :class:`ServiceClosed` / ``ValueError``
        on bad addressing.  A submit-time cache hit resolves the ticket
        before returning (zero queue wait).  ``ctx`` optionally carries
        the caller's :class:`~repro.obs.rtrace.RequestContext` so the
        coalesced batch span links back to the request's trace id.
        """
        if timeout is _UNSET:
            timeout = self.default_timeout
        self.stats.record_submit()
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is closed")
            index = self._datasets.get(dataset)
            if index is None:
                raise UnknownDataset(dataset)
            epoch = self._epochs[dataset]
        payload, params, digest = self._normalize(
            index, kind, payload, k, radius, exclude_self
        )

        ticket = Ticket()
        key = make_key(dataset, epoch, getattr(index, "version", 0), kind, params, digest)
        hit = self._cache.get(key)
        if hit is not MISS:
            self.stats.record_hit()
            self.stats.record_accept()
            ticket.resolve(hit, RequestMetrics(0.0, 0, True, 0.0, 0.0))
            return ticket

        now = time.monotonic()
        req = PendingRequest(
            dataset=dataset,
            kind=kind,
            params=params,
            payload=payload,
            digest=digest,
            ticket=ticket,
            enqueued_at=now,
            deadline=now + timeout if timeout is not None else None,
            ctx=ctx,
        )
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is closed")
            if len(self._coal) >= self.max_pending:
                self.stats.record_reject()
                raise Overloaded(len(self._coal), self.max_pending)
            self._coal.add(req)
            self.stats.record_accept()
            self._cond.notify_all()
        return ticket

    # -- blocking conveniences ---------------------------------------------
    def _request(self, dataset, kind, payload=None, *, timeout=_UNSET, **kw):
        t = self.submit(dataset, kind, payload, timeout=timeout, **kw)
        if not t.done() and self._thread is None:
            self.flush()
        return t.result(None if timeout is _UNSET else timeout)

    def knn(self, dataset: str, q, k: int, *, exclude_self: bool = False,
            timeout: float | None = _UNSET):
        """k nearest neighbors of one query point: (sq-dists, ids), each (k,)."""
        return self._request(
            dataset, "knn", q, k=k, exclude_self=exclude_self, timeout=timeout
        )

    def range_box(self, dataset: str, lo, hi, *, timeout: float | None = _UNSET):
        """Ids of points inside the closed box [lo, hi]."""
        return self._request(dataset, "box", (lo, hi), timeout=timeout)

    def range_ball(self, dataset: str, center, radius: float, *,
                   timeout: float | None = _UNSET):
        """Ids of points within ``radius`` of ``center``."""
        return self._request(dataset, "ball", center, radius=radius, timeout=timeout)

    def allnn(self, dataset: str, *, timeout: float | None = _UNSET):
        """Each alive point's nearest neighbor: (dists, ids)."""
        return self._request(dataset, "allnn", timeout=timeout)

    def view(self, dataset: str, name: str, *, timeout: float | None = _UNSET):
        """A materialized view's ``(answer, version)`` — never stale."""
        return self._request(dataset, "view", name, timeout=timeout)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def flush(self, dataset: str | None = None) -> int:
        """Dispatch pending requests now; returns #tickets resolved.

        With a ``dataset`` only that dataset's queue drains — the
        dispatch hook an external scheduler (e.g. the multi-tenant
        front-end) uses to control which tenant executes next instead
        of the coalescer's FIFO-across-datasets default.
        """
        served = 0
        while True:
            with self._cond:
                batch = self._coal.take_batch(self.max_batch, dataset)
            if not batch:
                return served
            served += self._execute(batch)

    def pending(self) -> int:
        with self._cond:
            return len(self._coal)

    def pending_for(self, dataset: str) -> int:
        """Requests currently queued for one dataset."""
        with self._cond:
            return self._coal.pending_for(dataset)

    def _execute(self, batch: list[PendingRequest]) -> int:
        """Run one coalesced slab (single dataset, possibly mixed kinds)."""
        name = batch[0].dataset
        with self._cond:
            index = self._datasets.get(name)
            epoch = self._epochs.get(name, -1)
        if index is None:
            err = UnknownDataset(name)
            for r in batch:
                r.ticket.reject(err)
            return 0

        now = time.monotonic()
        live: list[PendingRequest] = []
        n_timeout = 0
        for r in batch:
            if r.deadline is not None and now > r.deadline:
                n_timeout += 1
                r.ticket.reject(
                    RequestTimeout(now - r.enqueued_at),
                    RequestMetrics(now - r.enqueued_at, 0, False, 0.0, 0.0),
                )
            else:
                live.append(r)
        if n_timeout:
            self.stats.record_timeout(n_timeout)
        if not live:
            return 0

        version = getattr(index, "version", 0)
        hits: list[tuple[PendingRequest, object]] = []
        waiting: list[tuple[PendingRequest, tuple, tuple]] = []
        slot: dict[tuple, int] = {}
        uniq: list[PendingRequest] = []
        for r in live:
            ck = make_key(name, epoch, version, r.kind, r.params, r.digest)
            cached = self._cache.get(ck)
            if cached is not MISS:
                hits.append((r, cached))
                continue
            ek = (r.kind, r.params, r.digest)
            if ek not in slot:
                slot[ek] = len(uniq)
                uniq.append(r)
            waiting.append((r, ek, ck))

        t_exec = time.monotonic()
        for r, cached in hits:
            self.stats.record_hit()
            r.ticket.resolve(
                cached,
                RequestMetrics(t_exec - r.enqueued_at, 0, True, 0.0, 0.0),
            )

        if not waiting:
            return len(hits)

        trace_ids = tuple(
            r.ctx.trace_id for r, _, _ in waiting if r.ctx is not None
        )
        attrs = {"links": trace_ids} if trace_ids else {}
        rec = active_recorder()
        mark = rec.mark() if rec is not None else 0
        weights: list[float] = []
        t_run0 = time.monotonic()
        try:
            with batch_context(trace_ids):
                with capture(
                    label="serve.dispatch", cat="serve",
                    batch=len(uniq), dataset=name, **attrs,
                ) as cost:
                    results = execute_requests(
                        index,
                        [(r.kind, r.payload, dict(r.params)) for r in uniq],
                        costs_out=weights,
                    )
        except Exception as exc:  # typed service errors pass through tickets
            for r, _, _ in waiting:
                r.ticket.reject(exc)
            return len(hits)
        t_run1 = time.monotonic()
        exec_wall = t_run1 - t_run0

        batch_sid, bundle = (None, None)
        if rec is not None:
            batch_sid, subtree = batch_subtree(rec.spans_since(mark))
            bundle = subtree or None

        nexec = len(uniq)
        # a unique slot's charged work divides across its duplicate
        # riders, then the batch total is partitioned *exactly* across
        # every waiting member proportional to those weights
        mult = [0] * nexec
        for _, ek, _ in waiting:
            mult[slot[ek]] += 1
        member_weights = [weights[slot[ek]] / mult[slot[ek]] for _, ek, _ in waiting]
        shares = partition_work(cost.work, member_weights)

        version_after = getattr(index, "version", 0)
        cacheable = version_after == version
        total_wait = 0.0
        for (r, ek, ck), share in zip(waiting, shares):
            res = results[slot[ek]]
            if cacheable:
                self._cache.put(ck, res)
            wait = t_exec - r.enqueued_at
            total_wait += wait
            merge_wall = time.monotonic() - t_run1
            r.ticket.resolve(
                res,
                RequestMetrics(
                    wait, nexec, False, share, cost.depth,
                    exec_wall=exec_wall, merge_wall=merge_wall,
                    batch_work=cost.work, batch_sid=batch_sid, bundle=bundle,
                ),
            )
        self.stats.record_batch(len(waiting), nexec, total_wait, cost.work, cost.depth)
        return len(hits) + len(waiting)

    # ------------------------------------------------------------------
    # background dispatcher
    # ------------------------------------------------------------------
    def start(self) -> "GeometryService":
        """Spawn the background dispatcher thread (idempotent)."""
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._thread is not None:
                return self
            self._stopping = False
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the dispatcher, draining pending requests first."""
        with self._cond:
            t = self._thread
            if t is None:
                return
            self._stopping = True
            self._cond.notify_all()
        t.join()
        with self._cond:
            self._thread = None
            self._stopping = False

    def close(self) -> None:
        """Stop and refuse further submissions; pending work is drained.

        Idempotent and drain-safe: the first call stops the dispatcher,
        marks the service closed (so racing submitters get a typed
        :class:`ServiceClosed`), and flushes every request that made it
        into the queue — in-flight requests complete.  Any straggler
        the final flush could not execute is rejected with
        :class:`ServiceClosed` so no ticket is left unresolved.  A
        second close is a no-op.
        """
        with self._cond:
            if self._closed:
                return
        self.stop()
        with self._cond:
            self._closed = True
        self.flush()
        # nothing can enqueue past the closed flag; reject any ticket a
        # failed execution path might have left behind
        with self._cond:
            stragglers = self._coal.drain()
        for r in stragglers:
            r.ticket.reject(ServiceClosed("service is closed"))

    def __enter__(self) -> "GeometryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and len(self._coal) == 0:
                    self._cond.wait()
                if len(self._coal) == 0:  # stopping and drained
                    return
                # batching window: wait for a full batch or the oldest
                # request's max_wait deadline, whichever first
                while not self._stopping and len(self._coal) < self.max_batch:
                    oldest = self._coal.oldest_enqueued()
                    if oldest is None:
                        break
                    remaining = self.max_wait - (time.monotonic() - oldest)
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch = self._coal.take_batch(self.max_batch)
            if batch:
                self._execute(batch)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Service-wide stats: request counters, batching, cache state."""
        out = self.stats.snapshot()
        out.update(self._cache.stats())
        out["pending"] = self.pending()
        out["datasets"] = self.datasets()
        return out

    def metrics_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()
