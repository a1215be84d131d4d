"""Unified metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` is the single metrics surface of a
subsystem: every component registers its counters there (the geometry
service registers its request/batch counters, its result cache, and its
coalescing queue against one registry), and the registry renders two
expositions of the same state:

* :meth:`MetricsRegistry.snapshot` — a point-in-time ``dict`` (JSON-
  ready), what dashboards and the ``--metrics-out`` CLI flag consume;
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples), so the same
  counters can be scraped without a second bookkeeping path.

All metrics of one registry share the registry's lock, so a snapshot is
a consistent cut across every metric (exactly what the old hand-rolled
``ServiceStats`` lock provided).  Gauges may be backed by a callable
(:meth:`Gauge.set_function`) for values that live elsewhere — queue
lengths, cache sizes — which are polled at snapshot time instead of
being double-booked.

Metrics may be **labelled**: ``registry.counter("reqs", labels=("tenant",))``
returns a :class:`MetricFamily` whose :meth:`~MetricFamily.labels`
method vends one child metric per label-value combination (created
lazily, like prometheus_client).  Families render in the standard text
exposition form — one ``# HELP``/``# TYPE`` header, then one sample per
child with the label set inline (``reqs{tenant="acme"} 3``) — and
snapshot as a dict keyed by the rendered label string, so per-tenant
serving metrics are first-class in both expositions.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from collections import OrderedDict

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(v: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    pairs = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


def _fmt(v: float) -> str:
    """Prometheus sample formatting: integral floats print as ints."""
    if isinstance(v, float):
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
    return repr(float(v))


class _Metric:
    """Base: a named value guarded by the owning registry's lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock):
        self.name = name
        self.help = help
        self._lock = lock

    def value(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.RLock):
        super().__init__(name, help, lock)
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A value that can go up, down, or be read from a callable."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.RLock):
        super().__init__(name, help, lock)
        self._value = 0.0
        self._fn = None

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)

    def set_max(self, v: float) -> None:
        """Raise the gauge to ``v`` if larger (high-watermark gauges)."""
        with self._lock:
            if v > self._value:
                self._value = float(v)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    def set_function(self, fn) -> "Gauge":
        """Back the gauge by ``fn()`` — polled at read time, never stored."""
        self._fn = fn
        return self

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._value


#: Default histogram buckets (seconds-flavoured, like Prometheus').
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class Histogram(_Metric):
    """Cumulative-bucket histogram with sum and count."""

    kind = "histogram"

    def __init__(self, name, help, lock, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        # bucket index -> (labels dict, observed value): the most recent
        # exemplar-carrying observation per bucket (OpenMetrics-style)
        self._exemplars: dict[int, tuple[dict, float]] = {}
        self._keep = None

    def observe(self, v: float, exemplar: dict | None = None) -> None:
        """Record ``v``; ``exemplar`` optionally attaches trace labels
        (e.g. ``{"trace_id": ...}``) to the bucket ``v`` lands in, so the
        exposition can link a latency bucket to a concrete retained
        trace."""
        v = float(v)
        i = bisect.bisect_left(self.bounds, v)
        with self._lock:
            self._counts[i] += 1
            self._sum += v
            self._count += 1
            if exemplar:
                self._exemplars[i] = (dict(exemplar), v)

    def keep_exemplars(self, pred) -> "Histogram":
        """Expose only the exemplars whose labels satisfy ``pred(labels)``,
        checked at read time (an exemplar whose trace is gone is hidden)."""
        self._keep = pred
        return self

    @property
    def value(self) -> dict:
        """``{"count", "sum", "buckets": {le: cumulative}}`` (JSON-ready).

        An ``"exemplars"`` key (``{le: {labels, value}}``) is present
        only when exemplars were observed, so histograms without them
        snapshot exactly as before.
        """
        with self._lock:
            counts = list(self._counts)
            total, s = self._count, self._sum
            ex = dict(self._exemplars)
        if self._keep is not None:
            ex = {i: e for i, e in ex.items() if self._keep(e[0])}
        out, cum = {}, 0
        bound_strs = [_fmt(b) for b in self.bounds] + ["+Inf"]
        for bs, c in zip(bound_strs[:-1], counts):
            cum += c
            out[bs] = cum
        out["+Inf"] = total
        result = {"count": total, "sum": s, "buckets": out}
        if ex:
            result["exemplars"] = {
                bound_strs[i]: {"labels": labels, "value": v}
                for i, (labels, v) in sorted(ex.items())
            }
        return result


class MetricFamily(_Metric):
    """A labelled metric: one child Counter/Gauge/Histogram per label set.

    Children are created lazily by :meth:`labels` and share the
    registry lock.  The family's ``value`` is a dict keyed by the
    rendered label string (``'{tenant="acme"}'``), which is also how it
    appears in :meth:`MetricsRegistry.snapshot`.
    """

    def __init__(self, cls, name, help, lock, label_names: tuple[str, ...], **kw):
        super().__init__(name, help, lock)
        if not label_names:
            raise ValueError("a metric family needs at least one label name")
        for ln in label_names:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        self._cls = cls
        self._kw = kw
        self.label_names = tuple(label_names)
        self._children: OrderedDict[tuple, _Metric] = OrderedDict()

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self._cls.kind

    def _resolve(self, args: tuple, kw: dict) -> tuple[str, ...]:
        if kw:
            if args or set(kw) != set(self.label_names):
                raise ValueError(
                    f"family {self.name!r} takes labels {self.label_names}"
                )
            return tuple(str(kw[n]) for n in self.label_names)
        if len(args) != len(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes {len(self.label_names)} "
                f"label value(s) {self.label_names}, got {len(args)}"
            )
        return tuple(str(a) for a in args)

    def labels(self, *args, **kw):
        """The child metric for one label-value set (created on demand)."""
        values = self._resolve(args, kw)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._cls(self.name, self.help, self._lock, **self._kw)
                child.label_values = values
                self._children[values] = child
            return child

    def remove(self, *args, **kw) -> None:
        """Drop one child (e.g. when its tenant unregisters)."""
        values = self._resolve(args, kw)
        with self._lock:
            self._children.pop(values, None)

    def children(self) -> list[tuple[tuple[str, ...], _Metric]]:
        with self._lock:
            return list(self._children.items())

    @property
    def value(self) -> dict:
        with self._lock:
            items = list(self._children.items())
        return {
            _label_str(self.label_names, values): child.value
            for values, child in items
        }


class MetricsRegistry:
    """A named collection of metrics with one consistent snapshot.

    Exposition is **crash-proof**: a callable gauge whose function
    raises never aborts a dump — the sample is skipped and counted in
    ``obs_gauge_errors_total`` (rendered/snapshotted once any error has
    occurred), so one bad gauge cannot take down the scrape endpoint.
    """

    GAUGE_ERRORS = "obs_gauge_errors_total"
    _GAUGE_ERRORS_HELP = "callable gauges that raised during exposition"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: OrderedDict[str, _Metric] = OrderedDict()
        self._gauge_errors = 0

    # -- registration ------------------------------------------------------
    def _get_or_make(self, cls, name: str, help: str, labels=(), **kw):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                if labels:
                    m = MetricFamily(cls, name, help, self._lock, labels, **kw)
                else:
                    m = cls(name, help, self._lock, **kw)
                self._metrics[name] = m
            elif isinstance(m, MetricFamily):
                if m._cls is not cls or m.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as a {m.kind} "
                        f"family with labels {m.label_names}"
                    )
            elif labels or not isinstance(m, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {m.kind}, "
                    f"requested {cls.kind}"
                    + (f" with labels {labels}" if labels else "")
                )
            return m

    def counter(self, name: str, help: str = "", labels=()) -> Counter:
        return self._get_or_make(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> Gauge:
        return self._get_or_make(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS,
                  labels=()) -> Histogram:
        return self._get_or_make(Histogram, name, help, labels, buckets=buckets)

    # -- introspection -----------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- exposition --------------------------------------------------------
    def _note_gauge_error(self, n: int = 1) -> None:
        with self._lock:
            self._gauge_errors += n

    @property
    def gauge_errors(self) -> int:
        with self._lock:
            return self._gauge_errors

    def snapshot(self) -> dict:
        """Every metric's current value as one JSON-ready dict.

        Callable gauges that raise are skipped (family children
        individually) and counted in ``obs_gauge_errors_total``.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        out: dict = {}
        errs = 0
        for name, m in metrics:
            if isinstance(m, MetricFamily):
                fam: dict = {}
                for values, child in m.children():
                    try:
                        fam[_label_str(m.label_names, values)] = child.value
                    except Exception:
                        errs += 1
                out[name] = fam
            else:
                try:
                    out[name] = m.value
                except Exception:
                    errs += 1
        if errs:
            self._note_gauge_error(errs)
        if self.gauge_errors:
            out[self.GAUGE_ERRORS] = float(self._gauge_errors)
        return out

    @staticmethod
    def _render_samples(lines: list[str], m: _Metric, labelstr: str = "") -> None:
        """Samples for one (possibly labelled) concrete metric.

        Raises whatever a callable gauge raises — the caller decides how
        to degrade (``render_prometheus`` skips and counts).
        """
        if isinstance(m, Histogram):
            v = m.value
            ex = v.get("exemplars", {})
            base = labelstr[1:-1] + "," if labelstr else ""
            for le, c in v["buckets"].items():
                line = f'{m.name}_bucket{{{base}le="{le}"}} {c}'
                if le in ex:
                    pairs = ",".join(
                        f'{k}="{_escape_label_value(str(x))}"'
                        for k, x in ex[le]["labels"].items()
                    )
                    # OpenMetrics exemplar syntax: links the bucket to a
                    # concrete trace retained by the flight recorder
                    line += f" # {{{pairs}}} {_fmt(ex[le]['value'])}"
                lines.append(line)
            lines.append(f"{m.name}_sum{labelstr} {_fmt(v['sum'])}")
            lines.append(f"{m.name}_count{labelstr} {v['count']}")
        else:
            lines.append(f"{m.name}{labelstr} {_fmt(m.value)}")

    def render_prometheus(self) -> str:
        """Prometheus text exposition format of every metric.

        HELP/TYPE is emitted exactly once per (possibly labelled)
        family; a raising callable gauge skips only its own sample(s)
        and is tallied in ``obs_gauge_errors_total``, which is appended
        to the exposition once any error has ever occurred.
        """
        lines: list[str] = []
        emitted: set[str] = set()
        errs = 0
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if m.name in emitted:
                continue
            emitted.add(m.name)
            header = []
            if m.help:
                header.append(f"# HELP {m.name} {m.help}")
            header.append(f"# TYPE {m.name} {m.kind}")
            samples: list[str] = []
            if isinstance(m, MetricFamily):
                for values, child in m.children():
                    try:
                        self._render_samples(
                            samples, child, _label_str(m.label_names, values)
                        )
                    except Exception:
                        errs += 1
            else:
                try:
                    self._render_samples(samples, m)
                except Exception:
                    errs += 1
            lines.extend(header)
            lines.extend(samples)
        if errs:
            self._note_gauge_error(errs)
        total_errs = self.gauge_errors
        if total_errs and self.GAUGE_ERRORS not in emitted:
            lines.append(f"# HELP {self.GAUGE_ERRORS} {self._GAUGE_ERRORS_HELP}")
            lines.append(f"# TYPE {self.GAUGE_ERRORS} counter")
            lines.append(f"{self.GAUGE_ERRORS} {total_errs}")
        return "\n".join(lines) + "\n"


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (components may also own private ones)."""
    return _default
