"""Request-scoped tracing: one record per request, flight recorder.

PR 3's span tree sees the *inside* of one fork-join computation; this
module adds the other half — **per-request attribution** across the
serving stack.  Each request gets one :class:`RequestTrace`, minted
when it enters the front end; it rides the request through the
weighted-fair queue and the service's batch, each layer filling in
what it knows, so a p999 outlier can be decomposed into *phases*:

``queue_wait``
    waiting in the tenant's front-end queue for the weighted-fair
    dispatcher to pick its quantum;
``dispatch``
    quantum assembly, request normalization, cache probes and grouping
    overhead in the front end and the service (the residual
    of the measured latency after the attributed phases — computed
    last, so the phases always sum to the request's latency);
``compute``
    the request's attributed slice of the coalesced batch execution
    (proportional to the work its group charged — see
    :func:`partition_work`, which splits the batch total *exactly*);
``view_repair``
    a mutation request's time repairing registered materialized views
    (:mod:`repro.views`) after the batch applied to the index;
``merge``
    result distribution after the batch executed (cache fills, top-k
    gather, ticket resolution);
``cache``
    a cache-served request's whole post-queue time (it never computes).

The **flight recorder** keeps these request traces in a bounded ring
with *tail-based sampling*: every request is tallied, but full span
detail is retained only for the slowest :class:`TailSampler` decile,
errors, shed requests, and degraded answers — near-zero cost for the
fast majority.  Retained traces can be rendered into one
Perfetto-loadable timeline (:func:`flight_chrome_trace`) that shows the
request phase lanes on top and the shared batch / worker-process spans
below, on one wall-clock axis.

Trace ids propagate across threads and processes via
:func:`batch_context` (thread-local, set by the service around one
coalesced execution) — the scatter-gather router reads it and puts the
ids in each shard slab, whose span carries them inline and in
process-pool workers alike, and the batch span carries ``links`` to
every member request's trace id.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .export import wall_lane_events
from .span import Span

__all__ = [
    "FlightRecorder",
    "PHASES",
    "RequestTrace",
    "TailSampler",
    "batch_context",
    "batch_subtree",
    "current_trace_ids",
    "flight_chrome_trace",
    "new_trace_id",
    "partition_work",
    "percentile",
    "validate_request_trace",
    "write_flight_trace",
]

#: Request phases, in timeline order.  ``dispatch`` is the residual, so
#: the phases always sum to the request's measured latency.
#: ``view_repair`` is the slice a mutation request spends repairing
#: materialized views (:mod:`repro.views`) after the batch applied.
PHASES = ("queue_wait", "dispatch", "compute", "view_repair", "merge", "cache")

_COUNTER = itertools.count(1)
_SALT = os.urandom(4).hex()


def new_trace_id() -> str:
    """A process-unique 20-hex-char trace id (salt + pid + counter)."""
    return f"{_SALT}{os.getpid() & 0xFFFF:04x}{next(_COUNTER):08x}"


def percentile(latencies, q: float) -> float:
    """The ``q``-th percentile (0-100) of a latency sample, 0.0 if empty."""
    if len(latencies) == 0:
        return 0.0
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


# ----------------------------------------------------------------------
# exact proportional attribution
# ----------------------------------------------------------------------
def partition_work(total: float, weights) -> list[float]:
    """Split ``total`` across ``weights`` proportionally and *exactly*.

    Returns one share per weight such that every share is >= 0 and
    ``math.fsum(shares) == total`` — the property that lets a coalesced
    batch's charged work be attributed to its member requests without
    creating or destroying any (the partition property the hypothesis
    suite asserts).  Non-finite or non-positive weights count as zero;
    an all-zero weight vector splits evenly.

    Exactness: every share is quantized down to a multiple of
    ``ulp(total)`` (a power of two, so the quantization is itself
    exact), which makes all partial sums and the final residual exactly
    representable; the residual — a multiple of the same ulp — is added
    to the largest share in one exact float addition.  The real-number
    sum of the shares then equals ``total`` exactly, and ``fsum``
    (correctly rounded) reproduces it bit-for-bit.  The cost is at most
    one ``ulp(total)`` of proportionality error per share — attribution
    noise far below anything measurable.
    """
    total = float(total)
    n = len(weights)
    if n == 0:
        return []
    if not math.isfinite(total) or total < 0.0:
        raise ValueError(f"cannot partition non-finite/negative total {total!r}")
    if total == 0.0:
        return [0.0] * n
    w = []
    for x in weights:
        x = float(x)
        w.append(x if math.isfinite(x) and x > 0.0 else 0.0)
    # normalize by the max first: scale-invariant, and the sum of n
    # values <= 1.0 can never overflow the way raw near-max floats can
    wmax = max(w)
    if wmax > 0.0:
        w = [wi / wmax for wi in w]
    wsum = math.fsum(w)
    if wsum <= 0.0:
        w = [1.0] * n
        wsum = float(n)
    u = math.ulp(total)
    shares = [
        math.floor(total * (wi / wsum) / u) * u for wi in w
    ]
    resid = total - math.fsum(shares)  # multiple of u in [0, n*u): exact
    j = max(range(n), key=shares.__getitem__)
    shares[j] += resid  # multiples of u summing <= total: exact
    return shares


# ----------------------------------------------------------------------
# the per-request record
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RequestTrace:
    """One request's record: identity, outcome, phases, and attribution.

    The front end mints it (trace id, tenant, kind, ``t_start``); the
    service fills in the batch it joined — ``batch_size``,
    ``cache_hit``, ``work`` (the request's exact share of the batch's
    charged work, :func:`partition_work`), ``depth``, ``batch_sid`` and
    the ``compute`` / ``merge`` seconds; the front end closes it with
    ``latency``, the remaining phases, ``outcome`` and ``error``.  A
    request served without the front end gets a bare record with no
    trace id.

    ``phases`` maps each name in :data:`PHASES` to seconds; for an
    ``ok`` request they sum to ``latency`` (``dispatch`` is computed as
    the residual).  ``spans`` holds the batch's span subtree, kept only
    when the flight recorder retained the trace (tail / error / shed /
    degraded).
    """

    trace_id: str | None = None
    tenant: str = ""
    kind: str = ""
    t_start: float = 0.0
    latency: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    outcome: str = "ok"            #: "ok" | "error" | "shed" | "timeout"
    cache_hit: bool = False
    approximate: bool = False
    batch_size: int = 0
    work: float = 0.0              #: exact share of the batch's work
    depth: float = 0.0             #: the batch's critical path (shared)
    batch_sid: int | None = None   #: sid of the serve.dispatch span
    error: str | None = None
    spans: list[Span] | None = None

    def phase_total(self) -> float:
        return sum(self.phases.values())

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "latency": self.latency,
            "phases": {p: self.phases.get(p, 0.0) for p in PHASES},
            "outcome": self.outcome,
            "cache_hit": self.cache_hit,
            "approximate": self.approximate,
            "batch_size": self.batch_size,
            "work": self.work,
            "depth": self.depth,
            "batch_sid": self.batch_sid,
            "error": self.error,
            "n_spans": len(self.spans) if self.spans else 0,
        }


# ----------------------------------------------------------------------
# cross-layer propagation (thread-local batch context)
# ----------------------------------------------------------------------
_tls = threading.local()


@contextmanager
def batch_context(trace_ids):
    """Mark the current thread as executing one coalesced batch.

    The service wraps each batch execution in this; the scatter-gather
    router reads the ids back with :func:`current_trace_ids` and tags
    every shard span with them, on every backend, so worker lanes in an
    exported timeline name the requests they computed for.
    """
    ids = tuple(trace_ids)
    prev = getattr(_tls, "trace_ids", None)
    _tls.trace_ids = ids or None
    try:
        yield
    finally:
        _tls.trace_ids = prev


def current_trace_ids() -> tuple[str, ...] | None:
    """Trace ids of the batch executing on this thread (None outside)."""
    return getattr(_tls, "trace_ids", None)


def batch_subtree(spans: list[Span]):
    """The batch span and its descendants from a recorder slice.

    ``spans`` is the slice of spans completed during one batch window
    (:meth:`SpanRecorder.spans_since`); concurrent spans from other
    threads are filtered out by descent.  Returns ``(root_sid, subtree)``
    with the subtree in sid order (root first), or ``(None, [])`` when
    no ``serve.dispatch`` span is in the slice.
    """
    root = None
    for s in spans:
        if s.name == "serve.dispatch" and (root is None or s.sid < root.sid):
            root = s
    if root is None:
        return None, []
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out = []
    stack = [root]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(kids.get(s.sid, ()))
    return root.sid, sorted(out, key=lambda s: s.sid)


# ----------------------------------------------------------------------
# tail-based sampling
# ----------------------------------------------------------------------
class TailSampler:
    """Streaming estimator of the latency tail threshold.

    Keeps a rolling window of completed-request latencies and refreshes
    the ``1 - tail_frac`` quantile every ``window // 8`` observations;
    :meth:`note` answers "is this latency in the slowest decile right
    now".  During warm-up (threshold still 0) everything counts as
    tail, so the first requests of a run are always explainable.
    """

    def __init__(self, window: int = 1024, tail_frac: float = 0.10):
        if not 0.0 < tail_frac <= 1.0:
            raise ValueError("tail_frac must be in (0, 1]")
        self.tail_frac = float(tail_frac)
        self._window: deque = deque(maxlen=max(16, int(window)))
        self._refresh = max(16, int(window) // 8)
        self._since = 0
        self._thresh = 0.0

    @property
    def threshold(self) -> float:
        return self._thresh

    def note(self, latency: float) -> bool:
        """Record one latency; True if it lands in the tail."""
        self._window.append(float(latency))
        self._since += 1
        if self._since >= self._refresh or self._thresh == 0.0:
            self._thresh = percentile(
                list(self._window), 100.0 * (1.0 - self.tail_frac)
            )
            self._since = 0
        return latency >= self._thresh


class FlightRecorder:
    """Always-on bounded ring of explained requests, sampled at the tail.

    Every completed request is offered via :meth:`observe`; the
    recorder tallies it, updates the tail threshold, and *retains* the
    full :class:`RequestTrace` (including the batch span subtree, when
    tracing was enabled) only when the request is interesting:

    * ``error``    — the request failed,
    * ``shed``     — typed admission/quota/timeout rejection,
    * ``degraded`` — answered approximately under overload,
    * ``tail``     — latency in the slowest decile of the rolling
      window (:class:`TailSampler`).

    Everything else costs one lock, one deque append, and a counter —
    the recorder can stay on in production.  Retention is bounded by
    ``capacity`` (oldest retained trace evicted first); the tail is the
    slowest decile of the last 1024 completions (:class:`TailSampler`).
    """

    def __init__(self, capacity: int = 512, *, registry=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, RequestTrace] = OrderedDict()
        self._sampler = TailSampler()
        self.seen = 0
        self._c_seen = self._f_retained = None
        if registry is not None:
            self._c_seen = registry.counter(
                "obs_flight_seen_total", "requests offered to the flight recorder"
            )
            self._f_retained = registry.counter(
                "obs_flight_retained_total",
                "requests retained with full trace detail, by reason",
                labels=("reason",),
            )

    def observe(self, trt: RequestTrace) -> str | None:
        """Offer one completed request; returns the retention reason.

        Returns ``"error" | "shed" | "degraded" | "tail"`` or None (not
        retained, and the record's ``spans`` are dropped).
        """
        with self._lock:
            self.seen += 1
            reason = None
            if trt.outcome == "error":
                reason = "error"
            elif trt.outcome in ("shed", "timeout"):
                reason = "shed"
            else:
                # only successful completions train the tail threshold
                is_tail = self._sampler.note(trt.latency)
                if trt.approximate:
                    reason = "degraded"
                elif is_tail:
                    reason = "tail"
            if reason is None:
                trt.spans = None
            else:
                self._traces[trt.trace_id] = trt
                self._traces.move_to_end(trt.trace_id)
                while len(self._traces) > self.capacity:
                    self._traces.popitem(last=False)
        if self._c_seen is not None:
            self._c_seen.inc()
            if reason is not None:
                self._f_retained.labels(reason).inc()
        return reason

    @property
    def tail_threshold(self) -> float:
        return self._sampler.threshold

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def lookup(self, trace_id: str) -> RequestTrace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def retained(self) -> list[RequestTrace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._traces.values())

    def slowest(self, n: int = 5) -> list[RequestTrace]:
        """The ``n`` slowest retained traces, slowest first."""
        with self._lock:
            traces = list(self._traces.values())
        return sorted(traces, key=lambda t: -t.latency)[:n]

    def snapshot(self) -> dict:
        with self._lock:
            traces = list(self._traces.values())
            seen = self.seen
        by_reason: dict[str, int] = {}
        for t in traces:
            r = ("error" if t.outcome == "error"
                 else "shed" if t.outcome in ("shed", "timeout")
                 else "degraded" if t.approximate else "tail")
            by_reason[r] = by_reason.get(r, 0) + 1
        return {
            "seen": seen,
            "retained": len(traces),
            "tail_threshold": self.tail_threshold,
            "by_reason": by_reason,
        }


# ----------------------------------------------------------------------
# validation + Perfetto export
# ----------------------------------------------------------------------
def validate_request_trace(trt: RequestTrace, *, rtol: float = 1e-6,
                           atol: float = 1e-9) -> list[str]:
    """Structural checks on one retained trace; returns problems ([] = ok).

    * phases are known, non-negative, and (for ``ok`` outcomes) sum to
      the measured latency within attribution tolerance;
    * the attached span subtree is *closed*: every span finished
      (``t1 >= t0``), every parent link lands inside the subtree except
      the batch root's, and the root is the ``serve.dispatch`` span the
      trace's ``batch_sid`` names;
    * links resolve: the batch span's ``links`` include this trace id.
    """
    problems: list[str] = []
    if trt.latency < 0:
        problems.append(f"negative latency {trt.latency!r}")
    for name, v in trt.phases.items():
        if name not in PHASES:
            problems.append(f"unknown phase {name!r}")
        if v < 0:
            problems.append(f"negative phase {name}={v!r}")
    if trt.outcome == "ok":
        tol = max(atol, rtol * max(trt.latency, 1e-6))
        if abs(trt.phase_total() - trt.latency) > tol:
            problems.append(
                f"phases sum {trt.phase_total():.9f}s != latency "
                f"{trt.latency:.9f}s"
            )
    if trt.spans:
        sids = {s.sid for s in trt.spans}
        if len(sids) != len(trt.spans):
            problems.append("duplicate sids in span subtree")
        roots = [s for s in trt.spans if s.parent not in sids]
        for s in trt.spans:
            if s.t1 < s.t0:
                problems.append(f"span {s.sid} ({s.name}) not closed: t1 < t0")
        if len(roots) != 1:
            problems.append(f"subtree has {len(roots)} roots, expected 1")
        else:
            root = roots[0]
            if trt.batch_sid is not None and root.sid != trt.batch_sid:
                problems.append(
                    f"root sid {root.sid} != batch_sid {trt.batch_sid}"
                )
            links = (root.meta or {}).get("links") or ()
            if trt.trace_id not in links:
                problems.append(
                    "batch span links do not include this trace id"
                )
    return problems


def flight_chrome_trace(traces: list[RequestTrace], *,
                        name: str = "repro flight recorder") -> dict:
    """Retained request traces as one Chrome trace-event JSON timeline.

    One shared wall-clock axis: pid 0 holds one lane per retained
    request with its phase slices (the six :data:`PHASES`: queue_wait /
    dispatch / compute / view_repair / merge / cache); pid 1 holds the
    parent-process batch spans; worker processes (spans tagged with a
    ``pid`` by :meth:`~repro.obs.span.SpanRecorder.ingest`) get their
    own process groups — so a single Perfetto view shows the request
    waiting, the batch it joined, and the worker lanes that computed it.
    """
    events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "retained requests (flight recorder)"}},
    ]
    traces = sorted(traces, key=lambda t: t.t_start)
    # one origin across phases and spans, so lanes align
    origins = [t.t_start for t in traces]
    uniq_spans: dict[int, Span] = {}
    for t in traces:
        for s in t.spans or ():
            uniq_spans.setdefault(s.sid, s)
            origins.append(s.t0)
    if not origins:
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"tool": name, "traces": 0}}
    t_origin = min(origins)

    for lane, t in enumerate(traces):
        label = f"{t.tenant} {t.trace_id[-8:]} [{t.outcome}]"
        events.append({"ph": "M", "pid": 0, "tid": lane,
                       "name": "thread_name", "args": {"name": label}})
        cursor = (t.t_start - t_origin) * 1e6
        for phase in PHASES:
            dur = t.phases.get(phase, 0.0) * 1e6
            if dur <= 0.0:
                continue
            events.append({
                "name": phase, "cat": "request", "ph": "X", "pid": 0,
                "tid": lane, "ts": round(cursor, 3),
                "dur": round(max(dur, 0.001), 3),
                "args": {"trace_id": t.trace_id, "tenant": t.tenant,
                         "kind": t.kind, "outcome": t.outcome,
                         "batch_size": t.batch_size, "work": t.work},
            })
            cursor += dur

    # batch + worker spans on shared lanes below the request lanes
    spans = sorted(uniq_spans.values(), key=lambda s: s.sid)
    events.append({"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                   "args": {"name": "serving process (batch spans)"}})
    events += wall_lane_events(spans, t_origin)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": name,
            "traces": len(traces),
            "spans": len(spans),
        },
    }


def write_flight_trace(path, traces: list[RequestTrace], *,
                       name: str = "repro flight recorder") -> dict:
    """Serialize :func:`flight_chrome_trace` to ``path``; returns the object."""
    import json

    obj = flight_chrome_trace(traces, name=name)
    with open(os.fspath(path), "w") as f:
        json.dump(obj, f)
        f.write("\n")
    return obj
