"""``repro.obs`` — observability over the fork-join runtime.

Five pieces (see DESIGN.md §5 and §9):

* **Span-tree tracing** (:mod:`repro.obs.span`): scheduler tasks and
  named algorithm phases emit spans — name, parent, wall time, charged
  work/depth, backend, batch size — into a bounded, thread-safe
  :class:`SpanRecorder`.  Off by default; the disabled hot path is one
  global load per scope.
* **Exporters** (:mod:`repro.obs.export`): Chrome trace-event JSON
  (Perfetto-loadable, with the DAG greedy-list-scheduled onto simulated
  worker lanes under Brent's bound) and a flame-style text summary.
* **Metrics registry** (:mod:`repro.obs.registry`): counters / gauges /
  histograms with one consistent ``snapshot()`` dict and Prometheus
  text exposition (crash-proof: raising callable gauges are skipped and
  counted, histogram buckets may carry exemplar trace ids); the serving
  layer's stats live on it.
* **Request tracing** (:mod:`repro.obs.rtrace`): one record per
  request (:class:`RequestTrace`) threaded through the serving stack,
  exact proportional attribution of coalesced-batch work
  (:func:`partition_work`), a tail-sampling
  :class:`FlightRecorder`, and a Perfetto export of retained requests
  (:func:`flight_chrome_trace`).
* **SLOs** (:mod:`repro.obs.slo`): per-tenant latency + availability
  objectives with multi-window (5m/1h) burn rates on an injectable
  clock, published as registry gauges.

Quickstart::

    from repro import KDTree, uniform
    from repro.obs import trace, summary, write_chrome_trace

    pts = uniform(50_000, 2, seed=0)
    with trace("knn") as rec:
        tree = KDTree(pts)
        tree.knn(pts, 8, exclude_self=True)
    print(summary(rec.spans()))
    write_chrome_trace("knn.trace.json", rec.spans(), workers=36)

or, from the command line, ``python -m repro profile knn pts.npy -k 8``.
"""

from .export import (
    chrome_trace,
    critical_path,
    self_work,
    simulate_schedule,
    span_children,
    span_roots,
    summary,
    totals,
    validate_chrome_trace,
    write_chrome_trace,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from .rtrace import (
    PHASES,
    FlightRecorder,
    RequestTrace,
    TailSampler,
    batch_context,
    batch_subtree,
    current_trace_ids,
    flight_chrome_trace,
    new_trace_id,
    partition_work,
    percentile,
    validate_request_trace,
    write_flight_trace,
)
from .slo import DEFAULT_WINDOWS, Objective, SLOTracker
from .span import (
    Span,
    SpanRecorder,
    active_recorder,
    disable_tracing,
    enable_tracing,
    span,
    trace,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_WINDOWS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Objective",
    "PHASES",
    "RequestTrace",
    "SLOTracker",
    "Span",
    "SpanRecorder",
    "TailSampler",
    "active_recorder",
    "batch_context",
    "batch_subtree",
    "chrome_trace",
    "critical_path",
    "current_trace_ids",
    "default_registry",
    "disable_tracing",
    "enable_tracing",
    "flight_chrome_trace",
    "new_trace_id",
    "partition_work",
    "percentile",
    "self_work",
    "simulate_schedule",
    "span",
    "span_children",
    "span_roots",
    "summary",
    "totals",
    "trace",
    "tracing_enabled",
    "validate_chrome_trace",
    "validate_request_trace",
    "write_chrome_trace",
    "write_flight_trace",
]
