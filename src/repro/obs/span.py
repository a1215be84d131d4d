"""Span-tree tracing over the fork-join runtime.

A *span* is one timed, cost-attributed scope of the computation: a
scheduler task, a named algorithm phase (``hull2d.partition``,
``kdtree.batch.frontier``, ``seb.sample``), or a whole run.  Spans nest
the way the fork-join DAG nests — every span records its parent — so
the recorded set forms the span tree of the run, each node carrying

* wall-clock start/end (``t0``/``t1``, ``time.perf_counter`` seconds),
* the (work, depth) its frame charged to the cost model (inclusive of
  children, exactly the :class:`~repro.parlay.workdepth.Cost` of the
  scope),
* the scheduler backend and batch size where applicable.

Tracing is **off by default** and costs one global load plus a ``None``
check per instrumented scope when disabled; the runtime never allocates
a span unless a recorder is installed.  Enabling installs a
:class:`SpanRecorder` into :mod:`repro.parlay.workdepth`'s tracer hook;
:func:`trace` is the scoped form, wrapping a block in a root span.

The recorder is thread-safe and **bounded**: spans past ``max_spans``
are counted as dropped, and the bound is enforced at *begin* time so a
recorded span's ancestors are always recorded too (the tree stays
closed under parents; drops only ever prune subtrees).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from ..parlay import workdepth

__all__ = [
    "Span",
    "SpanRecorder",
    "active_recorder",
    "disable_tracing",
    "enable_tracing",
    "span",
    "spans_to_payload",
    "trace",
    "tracing_enabled",
]

#: Default recorder capacity; ~100 bytes/span, so ~20 MB worst case.
DEFAULT_MAX_SPANS = 200_000

_INHERIT = object()


@dataclass(frozen=True)
class Span:
    """One completed scope of the fork-join computation."""

    sid: int                    #: unique id, allocated in begin order
    parent: int | None          #: parent span's sid (None = root)
    name: str
    cat: str                    #: "run" | "task" | "phase" | "serve" | ...
    t0: float                   #: perf_counter at scope entry (seconds)
    t1: float                   #: perf_counter at scope exit
    work: float                 #: work charged inside the scope (inclusive)
    depth: float                #: depth charged inside the scope (inclusive)
    backend: str | None = None  #: scheduler backend, for task spans
    batch: int | None = None    #: batch size / fanout where applicable
    tid: int = 0                #: OS thread ident that ran the scope
    meta: dict | None = field(default=None, compare=False)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class _OpenSpan:
    """Begin-time token; turned into a :class:`Span` at end()."""

    __slots__ = ("sid", "parent", "name", "cat", "t0", "backend", "batch",
                 "meta", "tid", "dropped")

    def __init__(self, sid, parent, name, cat, backend, batch, meta, dropped):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.backend = backend
        self.batch = batch
        self.meta = meta
        self.tid = threading.get_ident()
        self.dropped = dropped
        self.t0 = time.perf_counter()


class SpanRecorder:
    """Thread-safe, bounded collector of completed spans.

    Each thread keeps its own open-span stack (for parenting); completed
    spans land in one shared list under a lock.  Cross-thread edges —
    a task forked onto a pool worker — are recorded by passing the
    forking span's id as ``parent`` explicitly (the scheduler does
    this), so the tree spans threads.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_sid = 1
        self._local = threading.local()

    # -- open-span stack ---------------------------------------------------
    def _stack(self) -> list:
        stk = getattr(self._local, "stack", None)
        if stk is None:
            stk = self._local.stack = []
        return stk

    def current_id(self) -> int | None:
        """sid of this thread's innermost open span (None outside spans)."""
        stk = self._stack()
        return stk[-1].sid if stk else None

    # -- recording ---------------------------------------------------------
    def begin(self, name, cat="span", parent=_INHERIT, backend=None,
              batch=None, **meta) -> _OpenSpan:
        """Open a span; returns the token to pass to :meth:`end`.

        ``parent`` defaults to the calling thread's innermost open span;
        pass an explicit sid (or None) to parent across threads.  Spans
        past the capacity bound are dropped *here*, before allocation,
        so recorded children always have recorded ancestors.
        """
        stk = self._stack()
        if parent is _INHERIT:
            parent = stk[-1].sid if stk else None
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            dropped = sid > self.max_spans
            if dropped:
                self.dropped += 1
        tok = _OpenSpan(sid, parent, str(name), cat, backend,
                        int(batch) if batch is not None else None,
                        meta or None, dropped)
        if not dropped:
            stk.append(tok)
        return tok

    def end(self, tok: _OpenSpan, work: float, depth: float) -> None:
        """Close a span with the (work, depth) its scope charged."""
        t1 = time.perf_counter()
        if tok.dropped:
            return
        stk = self._stack()
        # frames unwind LIFO even under exceptions, so the top *is* tok;
        # tolerate strays defensively rather than corrupt the stack
        while stk and stk[-1] is not tok:
            stk.pop()
        if stk:
            stk.pop()
        s = Span(tok.sid, tok.parent, tok.name, tok.cat, tok.t0, t1,
                 float(work), float(depth), tok.backend, tok.batch,
                 tok.tid, tok.meta)
        with self._lock:
            self._spans.append(s)

    # -- access ------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Completed spans in sid (begin) order — parents before children."""
        with self._lock:
            return sorted(self._spans, key=lambda s: s.sid)

    def mark(self) -> int:
        """Position token for :meth:`spans_since` (completion order)."""
        with self._lock:
            return len(self._spans)

    def spans_since(self, mark: int) -> list[Span]:
        """Spans completed (or ingested) after ``mark`` was taken.

        Completion order, not sid order; spans from other threads that
        completed in the window are included — callers filtering to one
        logical scope should walk the subtree from a known root (see
        :func:`repro.obs.rtrace.batch_subtree`).
        """
        with self._lock:
            return list(self._spans[mark:])

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0
            self._next_sid = 1

    # -- cross-process forwarding ------------------------------------------
    def ingest(self, payload: list[tuple], *, parent: int | None = None,
               pid: int | None = None) -> None:
        """Splice spans recorded in another process into this recorder.

        ``payload`` is the :func:`spans_to_payload` form of a worker
        recorder's spans.  Sids are remapped into this recorder's space
        (intra-payload parent links preserved); spans whose parent is
        not in the payload are re-parented under ``parent`` — the
        forking span in this process — so the tree stays connected
        across the process boundary.  Each span's meta is tagged with
        the worker ``pid`` so exporters can render real process lanes.

        The capacity bound applies: a payload overflowing ``max_spans``
        is dropped whole (keeping the tree closed under parents).
        """
        if not payload:
            return
        with self._lock:
            if self._next_sid + len(payload) - 1 > self.max_spans:
                self.dropped += len(payload)
                return
            base = self._next_sid
            self._next_sid += len(payload)
            sid_map: dict[int, int] = {}
            for i, row in enumerate(payload):
                sid_map[row[0]] = base + i
            for row in payload:
                (sid, par, name, cat, t0, t1, work, depth,
                 backend, batch, tid, meta) = row
                meta = dict(meta) if meta else {}
                if pid is not None:
                    meta.setdefault("pid", pid)
                self._spans.append(Span(
                    sid_map[sid], sid_map.get(par, parent), name, cat,
                    t0, t1, work, depth, backend, batch, tid,
                    meta or None,
                ))


def spans_to_payload(spans: list[Span]) -> list[tuple]:
    """Flatten spans to plain tuples for cheap pickling across processes.

    The inverse is :meth:`SpanRecorder.ingest`, which remaps sids into
    the receiving recorder's space.
    """
    return [
        (s.sid, s.parent, s.name, s.cat, s.t0, s.t1, s.work, s.depth,
         s.backend, s.batch, s.tid, s.meta)
        for s in spans
    ]


# ----------------------------------------------------------------------
# process-wide enable/disable (installs into the workdepth tracer hook)
# ----------------------------------------------------------------------
def enable_tracing(recorder: SpanRecorder | None = None, *,
                   max_spans: int = DEFAULT_MAX_SPANS) -> SpanRecorder:
    """Install a recorder; every instrumented scope now emits spans."""
    rec = recorder if recorder is not None else SpanRecorder(max_spans=max_spans)
    workdepth.set_tracer(rec)
    return rec


def disable_tracing() -> SpanRecorder | None:
    """Uninstall the active recorder (returned, for inspection)."""
    rec = workdepth.get_tracer()
    workdepth.set_tracer(None)
    return rec


def tracing_enabled() -> bool:
    return workdepth.get_tracer() is not None


def active_recorder() -> SpanRecorder | None:
    return workdepth.get_tracer()


@contextmanager
def trace(name: str = "run", *, max_spans: int = DEFAULT_MAX_SPANS,
          recorder: SpanRecorder | None = None):
    """Trace the enclosed block: install a recorder, wrap it in a root span.

    Yields the :class:`SpanRecorder`; on exit the previous tracer (if
    any) is restored.  The root span's (work, depth) is exactly the cost
    the block charged — it reconciles with ``tracker.total()`` when the
    tracker was reset at block entry — and, like
    :func:`~repro.parlay.workdepth.capture`, the cost is folded serially
    into the enclosing frame so outer accounting is unchanged.
    """
    rec = recorder if recorder is not None else SpanRecorder(max_spans=max_spans)
    prev = workdepth.get_tracer()
    workdepth.set_tracer(rec)
    c = None
    try:
        with workdepth.tracker.frame(label=name, cat="run") as c:
            yield rec
    finally:
        workdepth.set_tracer(prev)
        if c is not None:
            workdepth.tracker.merge_serial(c)


#: What a disabled :func:`span` returns: one shared do-nothing context.
_NO_SPAN = nullcontext()


def span(name: str, *, cat: str = "phase", backend: str | None = None,
         batch: int | None = None, **meta):
    """Emit a named phase span around the enclosed block.

    The no-op path (tracing disabled) is a global load, a ``None``
    check and a shared do-nothing context manager — safe to leave in
    hot entry points.  When enabled, the block runs in its own cost
    frame whose total is folded serially into the parent on exit (even
    if the block raises), so the charge composition is bit-identical to
    the untraced run.

    The context yields the frame's
    :class:`~repro.parlay.workdepth.Cost` (or None when disabled).
    """
    if workdepth.get_tracer() is None:
        return _NO_SPAN
    return _span(name, cat, backend, batch, meta)


@contextmanager
def _span(name, cat, backend, batch, meta):
    c = None
    try:
        with workdepth.tracker.frame(label=name, cat=cat, backend=backend,
                                     batch=batch, **meta) as c:
            yield c
    finally:
        if c is not None:
            workdepth.tracker.merge_serial(c)
