"""In-process geometry query service: a synchronous, queue-free core.

:class:`GeometryService` answers kNN / box-range / ball-range / all-NN /
view requests against registered point indexes (static
:class:`~repro.kdtree.tree.KDTree`, batch-dynamic
:class:`~repro.bdl.bdltree.BDLTree` or a sharded
:class:`~repro.cluster.index.ShardedIndex`).  It keeps no queue and no
thread: :meth:`GeometryService.execute` takes one slab of requests for
one dataset and returns one :class:`Outcome` per request.

* **Coalesced execution** — within a slab, requests are normalized,
  probed against the cache once, deduplicated, and the misses run as
  ONE :func:`~repro.kdtree.batch.execute_requests` call, which
  dispatches each ``(kind, params)`` group as one shot per tree.  Each
  tree call picks its engine by size
  (:func:`repro.kdtree.batch.resolve_engine`): the array-at-a-time
  engine from 32 kNN queries (2 range queries) up, the per-query walk
  below that.
* **Versioned result cache** — an LRU keyed by (dataset epoch, tree
  version, kind, params, query digest).  The index's ``version``
  counter bumps on every batch insert/delete, so a stale entry's key
  can never be looked up again.
* **Per-request errors** — a request that fails validation (wrong
  shape, ``k < 1``, non-finite coordinates, a NaN radius) or whose
  ``(kind, params)`` group raises in the engine gets its own typed
  error; the rest of the slab is answered.
* **Per-request record** — every answer carries the request's
  :class:`~repro.obs.rtrace.RequestTrace`, filled in place: batch size
  joined, cache hit, exact work share and depth (captured via the
  thread-local :func:`repro.parlay.workdepth.capture` so concurrent
  callers on the ``threads`` backend never bleed costs into each
  other), and the request's ``compute`` / ``merge`` seconds;
  :meth:`GeometryService.snapshot` aggregates service-wide.

Admission, fair ordering, coalescing across clients and deadlines live
in one place, the asyncio :class:`~repro.frontend.frontend.Frontend`,
which calls :meth:`~GeometryService.execute` once per query segment of
a dispatch quantum.  Synchronous callers use the one-request wrappers
(:meth:`~GeometryService.knn`, ...) or :func:`repro.serve.trace.replay`,
which cuts a trace into ``max_batch`` slabs.

Results are bitwise-identical to per-request recursive queries: the
batched engine replays the recursive walk exactly (see
:mod:`repro.kdtree.batch`), grouping only merges independent queries,
and the cache stores exactly what an execution returned.

Mutating an index while a slab executes is not synchronized by the
service; :meth:`~GeometryService.execute` re-reads the version counter
after executing and refuses to cache results that straddle a mutation,
so a torn result can be *returned* (to the racing caller, which is
inherent to unsynchronized mutation) but never *cached*.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple

import numpy as np

from ..kdtree.batch import execute_requests
from ..obs.registry import MetricsRegistry
from ..obs.rtrace import (
    RequestTrace,
    batch_context,
    batch_subtree,
    partition_work,
)
from ..obs.span import active_recorder
from ..parlay.workdepth import capture
from .cache import MISS, ResultCache, make_key, query_digest
from .errors import ServiceClosed, UnknownDataset
from .metrics import ServiceStats

__all__ = ["GeometryService", "KINDS", "Outcome", "Request"]

#: Request kinds the service understands.
KINDS = ("knn", "box", "ball", "allnn", "view")

class Request(NamedTuple):
    """One query for :meth:`GeometryService.execute`.

    ``kw`` holds the kind's parameters (``k`` and ``exclude_self`` for
    kNN, ``radius`` for a ball); ``trace`` optionally carries the
    request's :class:`~repro.obs.rtrace.RequestTrace`, which the service
    fills in and which links the batch span to its trace id.  Any
    object with these four attributes will do: the front end passes its
    queued requests as they are.
    """

    kind: str
    payload: object = None
    kw: dict = {}
    trace: RequestTrace | None = None


class Outcome(NamedTuple):
    """One request's answer and record, or the error it alone failed with.

    ``trace`` is the request's own record when it came with one, or a
    bare record (no trace id) the service made for it.
    """

    value: object = None
    trace: RequestTrace | None = None
    error: BaseException | None = None


def _coords(payload, shape: tuple, what: str) -> np.ndarray:
    a = np.ascontiguousarray(payload, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must have finite coordinates")
    return a


def _normalize(index, kind: str, payload, kw: dict):
    """Canonicalize a request into (payload, params, digest)."""
    d = index.dim
    if kind == "knn":
        k = kw.get("k")
        if k is None:
            raise ValueError("knn requests require k=")
        k = int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        q = _coords(payload, (d,), "knn query")
        params = (("exclude_self", bool(kw.get("exclude_self", False))), ("k", k))
        return q, params, query_digest(q)
    if kind == "box":
        lo, hi = payload
        box = _coords(np.stack([lo, hi]), (2, d), f"box query (lo, hi) of dim {d}")
        return box, (), query_digest(box)
    if kind == "ball":
        c = _coords(payload, (d,), "ball center")
        radius = kw.get("radius")
        if radius is None:
            raise ValueError("ball requests require radius=")
        r = float(radius)
        if r != r:
            raise ValueError("ball radius must not be NaN")
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


class GeometryService:
    """Registered geometry indexes behind one versioned result cache.

    Parameters
    ----------
    max_batch:
        Most requests one slab should hold: :func:`~repro.serve.trace.replay`
        cuts traces into slabs of this size.  :meth:`execute` itself
        runs whatever slab it is given.
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    registry:
        Metrics registry to publish on (one is created when omitted).
        Request counters and cache gauges live on it;
        :meth:`metrics_text` renders it for Prometheus.
    """

    def __init__(
        self,
        *,
        max_batch: int = 256,
        cache_capacity: int = 4096,
        registry: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)

        self._cache = ResultCache(cache_capacity)
        self._lock = threading.Lock()
        self._datasets: dict[str, object] = {}
        self._epochs: dict[str, int] = {}
        self._next_epoch = 0
        self._closed = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ServiceStats(self.registry)
        # cache state publishes as polled gauges on the same registry, so
        # one snapshot covers the whole serving layer
        self.registry.gauge(
            "serve_cache_size", "live result-cache entries"
        ).set_function(lambda: len(self._cache))
        self.registry.gauge(
            "serve_cache_capacity", "result-cache capacity"
        ).set_function(lambda: self._cache.capacity)
        self.registry.gauge(
            "serve_cache_evictions", "result-cache LRU evictions"
        ).set_function(lambda: self._cache.evictions)

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
        with self._lock:
            self._datasets[name] = index
            self._epochs[name] = self._next_epoch
            self._next_epoch += 1

    def unregister(self, name: str) -> None:
        with self._lock:
            if name not in self._datasets:
                raise UnknownDataset(name)
            del self._datasets[name]
            del self._epochs[name]

    def index(self, name: str):
        """The registered index object (e.g. to apply a mutation batch)."""
        with self._lock:
            idx = self._datasets.get(name)
        if idx is None:
            raise UnknownDataset(name)
        return idx

    def datasets(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, dataset: str, requests) -> list[Outcome]:
        """Answer one slab of requests against one dataset.

        Each request is normalized and probed against the cache once;
        the misses are deduplicated and run as one
        :func:`~repro.kdtree.batch.execute_requests` call, and their
        answers fill the cache unless the index's version moved during
        the call.  Returns one :class:`Outcome` per request, in order: a
        request that fails validation, or whose ``(kind, params)`` group
        raises, gets its own error and the rest are answered.  Raises
        :class:`UnknownDataset` / :class:`ServiceClosed` for the slab as
        a whole.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            index = self._datasets.get(dataset)
            epoch = self._epochs.get(dataset)
        if index is None:
            raise UnknownDataset(dataset)

        n = len(requests)
        out: list = [None] * n
        version = getattr(index, "version", 0)
        slot: dict[tuple, int] = {}
        uniq: list[tuple] = []          # (kind, payload, params) to execute
        waiting: list[tuple] = []       # (position, slot, cache key, record)
        invalid = hits = 0
        for i, r in enumerate(requests):
            try:
                payload, params, digest = _normalize(index, r.kind, r.payload, r.kw)
            except Exception as exc:  # the request alone fails
                out[i] = Outcome(error=exc)
                invalid += 1
                continue
            trt = r.trace
            if trt is None:
                trt = RequestTrace()
            key = make_key(dataset, epoch, version, r.kind, params, digest)
            cached = self._cache.get(key)
            if cached is not MISS:
                trt.cache_hit = True    # nothing executed, nothing charged
                out[i] = Outcome(cached, trt)
                hits += 1
                continue
            ek = (r.kind, params, digest)
            j = slot.get(ek)
            if j is None:
                j = slot[ek] = len(uniq)
                uniq.append((r.kind, payload, dict(params)))
            waiting.append((i, j, key, trt))
        self.stats.record_submit(n)
        self.stats.record_accept(n - invalid)
        if hits:
            self.stats.record_hit(hits)
        if waiting:
            self._run(dataset, index, version, uniq, waiting, out)
        return out

    def _run(self, name, index, version, uniq, waiting, out) -> None:
        """Execute the slab's unique misses and answer every waiting request."""
        trace_ids = tuple(
            trt.trace_id for *_, trt in waiting if trt.trace_id is not None
        )
        attrs = {"links": trace_ids} if trace_ids else {}
        rec = active_recorder()
        mark = rec.mark() if rec is not None else 0
        weights: list[float] = []
        errors: list = []
        t_run0 = time.monotonic()
        with batch_context(trace_ids):
            with capture(
                label="serve.dispatch", cat="serve",
                batch=len(uniq), dataset=name, **attrs,
            ) as cost:
                results = execute_requests(
                    index, uniq, costs_out=weights, errors_out=errors
                )
        t_run1 = time.monotonic()
        exec_wall = t_run1 - t_run0

        batch_sid, bundle = (None, None)
        if rec is not None:
            batch_sid, subtree = batch_subtree(rec.spans_since(mark))
            bundle = subtree or None

        answered = []
        for w in waiting:
            err = errors[w[1]]
            if err is None:
                answered.append(w)
            else:
                out[w[0]] = Outcome(error=err)
        if not answered:
            return
        nexec = len(uniq)
        # a unique slot's charged work divides across its duplicate
        # riders, then the batch total is partitioned *exactly* across
        # every answered member proportional to those weights
        mult = [0] * nexec
        for _, j, _, _ in answered:
            mult[j] += 1
        shares = partition_work(
            cost.work, [weights[j] / mult[j] for _, j, _, _ in answered]
        )
        cacheable = getattr(index, "version", 0) == version
        for (i, j, key, trt), share in zip(answered, shares):
            res = results[j]
            if cacheable:
                self._cache.put(key, res)
            # the request's compute slice is its exact work fraction of
            # the batch's execution wall; merge runs to its answer
            frac = share / cost.work if cost.work > 0 else 1.0 / nexec
            trt.batch_size = nexec
            trt.work = share
            trt.depth = cost.depth
            trt.batch_sid = batch_sid
            trt.spans = bundle
            trt.phases["compute"] = frac * exec_wall
            trt.phases["merge"] = time.monotonic() - t_run1
            out[i] = Outcome(res, trt)
        executed = sum(1 for m in mult if m)
        self.stats.record_batch(len(answered), executed, cost.work, cost.depth)

    # -- one-request wrappers ------------------------------------------------
    def _one(self, dataset: str, kind: str, payload=None, **kw):
        o = self.execute(dataset, (Request(kind, payload, kw),))[0]
        if o.error is not None:
            raise o.error
        return o.value

    def knn(self, dataset: str, q, k: int, *, exclude_self: bool = False):
        """k nearest neighbors of one query point: (sq-dists, ids), each (k,)."""
        return self._one(dataset, "knn", q, k=k, exclude_self=exclude_self)

    def range_box(self, dataset: str, lo, hi):
        """Ids of points inside the closed box [lo, hi]."""
        return self._one(dataset, "box", (lo, hi))

    def range_ball(self, dataset: str, center, radius: float):
        """Ids of points within ``radius`` of ``center``."""
        return self._one(dataset, "ball", center, radius=radius)

    def allnn(self, dataset: str):
        """Each alive point's nearest neighbor: (dists, ids)."""
        return self._one(dataset, "allnn")

    def view(self, dataset: str, name: str):
        """A materialized view's ``(answer, version)`` — never stale."""
        return self._one(dataset, "view", name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further requests with :class:`ServiceClosed`; idempotent.

        Nothing is queued, so nothing drains: a slab already executing
        completes.
        """
        with self._lock:
            self._closed = True

    def __enter__(self) -> "GeometryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Service-wide stats: request counters, batching, cache state."""
        out = self.stats.snapshot()
        out.update(self._cache.stats())
        out["datasets"] = self.datasets()
        return out

    def metrics_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()
