"""Work-depth cost accounting for the parallel runtime.

ParGeo measures scalability on a 36-core machine; this reproduction runs
on CPython where the GIL precludes shared-memory speedups.  Instead,
every parallel primitive charges its *work* (total operations) and
*depth* (critical-path length) to a scoped :class:`CostTracker`.  Costs
compose the way a fork-join DAG composes: sequential composition adds
both work and depth; parallel composition adds work but takes the
maximum depth over the children (plus a logarithmic fork-join term).

Simulated running time on ``p`` workers uses Brent's bound::

    T_p = W / p + c * D

where ``c`` models per-task scheduling overhead.  The self-relative
speedup reported by the benchmark harness is ``T_1 / T_p`` under this
model, scaled onto the measured single-thread wall-clock time.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Cost",
    "CostTracker",
    "tracker",
    "capture",
    "charge",
    "charge_blocked",
    "frame",
    "get_tracer",
    "parallel_merge",
    "set_tracer",
    "simulated_time",
    "simulated_speedup",
    "HYPERTHREAD_FACTOR",
]

# -- tracing hook ------------------------------------------------------
# repro.obs installs a span recorder here (see repro.obs.span).  The
# default None keeps the hot path to one global load per frame: no span
# is ever allocated unless tracing is enabled.
_tracer = None


def set_tracer(tracer) -> None:
    """Install (or, with None, remove) the process-wide span tracer."""
    global _tracer
    _tracer = tracer


def get_tracer():
    """The active span tracer, or None when tracing is disabled."""
    return _tracer

# Two-way hyper-threading gives the paper's machine 72 logical cores but
# roughly 36 * 1.3 cores' worth of throughput; the harness uses this when
# it reports "36h" numbers.
HYPERTHREAD_FACTOR = 1.3

# Scheduling overhead per unit of depth, in work-units.  Calibrated so
# that fine-grained algorithms (incremental hull) show visibly lower
# scalability than coarse-grained ones (divide-and-conquer), matching
# the paper's qualitative findings.
DEPTH_OVERHEAD = 8.0


@dataclass
class Cost:
    """An accumulated (work, depth) pair, in abstract operation units."""

    work: float = 0.0
    depth: float = 0.0

    def add_serial(self, other: "Cost") -> None:
        """Sequential composition: work and depth both accumulate."""
        self.work += other.work
        self.depth += other.depth

    def copy(self) -> "Cost":
        return Cost(self.work, self.depth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cost(work={self.work:.3g}, depth={self.depth:.3g})"


class CostTracker(threading.local):
    """Thread-local stack of cost frames.

    The bottom frame accumulates the whole computation.  ``frame()``
    pushes a child frame; on exit the child's cost is *returned* to the
    caller, which decides how to merge it (serially for plain scopes,
    max-depth for parallel siblings).
    """

    def __init__(self) -> None:
        super().__init__()
        self._stack = [Cost()]

    # -- plain accounting -------------------------------------------------
    @property
    def current(self) -> Cost:
        return self._stack[-1]

    def charge(self, work: float, depth: float | None = None) -> None:
        """Charge ``work`` operations with critical path ``depth``.

        ``depth`` defaults to ``log2(work)`` which is the depth of the
        canonical balanced reduction over ``work`` elements.
        """
        if depth is None:
            depth = math.log2(work) if work > 1 else 1.0
        top = self._stack[-1]
        top.work += work
        top.depth += depth

    def reset(self) -> Cost:
        """Clear all accumulated cost; return what had accumulated."""
        old = self._stack[0].copy()
        self._stack = [Cost()]
        return old

    def total(self) -> Cost:
        return self._stack[0].copy()

    # -- scoped accounting -------------------------------------------------
    def frame(self, label: str | None = None, **attrs) -> "_Frame":
        """Collect the cost of the enclosed block into a fresh Cost.

        The cost is *not* automatically merged into the parent; the
        caller receives it and merges explicitly.  Used by the scheduler
        to implement parallel (max-depth) composition.

        With a ``label`` and an installed tracer (see :func:`set_tracer`)
        the frame also emits a span carrying the label, any extra
        ``attrs`` (cat, backend, batch, parent, ...), and the frame's
        final (work, depth).

        The pop is exception-safe: the frame is removed on exit and any
        stray frames a raising (or mis-nested) block left above it are
        unwound into this frame's cost first, so a raising algorithm can
        never corrupt the thread-local frame stack.
        """
        return _Frame(self, label, attrs)

    def merge_parallel(self, children: list[Cost], fanout: int | None = None) -> None:
        """Merge sibling costs that ran in parallel.

        Work adds; depth is the max over the children plus the
        logarithmic fork-join overhead of spawning ``fanout`` tasks.
        """
        if not children:
            return
        n = fanout if fanout is not None else len(children)
        top = self._stack[-1]
        top.work += sum(c.work for c in children) + n
        top.depth += max(c.depth for c in children) + math.log2(max(n, 2))

    def merge_serial(self, child: Cost) -> None:
        self._stack[-1].add_serial(child)


class _Frame:
    """The context manager :meth:`CostTracker.frame` returns.

    A slotted class rather than a generator: the erase descent and
    ``fork_costs`` open frames at every node they visit.
    """

    __slots__ = ("_tracker", "_label", "_attrs", "_stack", "_child", "_tr", "_tok")

    def __init__(self, tracker: CostTracker, label: str | None, attrs: dict):
        self._tracker = tracker
        self._label = label
        self._attrs = attrs

    def __enter__(self) -> Cost:
        child = self._child = Cost()
        stack = self._stack = self._tracker._stack
        stack.append(child)
        tr = self._tr = _tracer
        self._tok = (
            tr.begin(self._label, **self._attrs)
            if tr is not None and self._label is not None
            else None
        )
        return child

    def __exit__(self, *exc) -> bool:
        stack, child = self._stack, self._child
        while len(stack) > 1 and stack[-1] is not child:
            child.add_serial(stack.pop())
        if stack[-1] is child:
            stack.pop()
        if self._tok is not None:
            self._tr.end(self._tok, child.work, child.depth)
        return False


#: The process-wide tracker.  Thread-local so the thread backend's
#: workers don't interleave their accounting; the scheduler merges
#: worker-side costs back explicitly.
tracker = CostTracker()


def charge(work: float, depth: float | None = None) -> None:
    """Module-level convenience wrapper around ``tracker.charge``."""
    tracker.charge(work, depth)


def frame(label: str | None = None, **attrs) -> _Frame:
    """Module-level convenience wrapper around ``tracker.frame``."""
    return tracker.frame(label, **attrs)


def parallel_merge(children: list[Cost], fanout: int | None = None) -> None:
    tracker.merge_parallel(children, fanout)


@contextmanager
def capture(absorb: bool = True, label: str | None = None, **attrs):
    """Capture exactly the cost charged by the enclosed block.

    Pushes a fresh frame on the *current thread's* tracker and yields
    its :class:`Cost`: on exit it holds precisely the (work, depth) the
    block charged — a snapshot-and-re-zero around one request.  Because
    the tracker is thread-local, two threads capturing concurrently can
    never bleed costs into each other's capture; worker-side costs that
    the scheduler merges back (``parallel_do`` on the ``threads``
    backend) land in the frame of the thread that *forked* them, i.e.
    the right capture.

    With ``absorb=True`` (default) the captured cost is folded serially
    into the enclosing frame on exit, so outer accounting still sees
    the work; ``absorb=False`` discards it from the enclosing totals
    (pure measurement).

    A ``label`` additionally emits a span for the captured scope when
    tracing is enabled (see :meth:`CostTracker.frame`).  The absorb
    happens in ``finally``, so work charged before an exception still
    reaches the enclosing frame.
    """
    c = None
    try:
        with tracker.frame(label, **attrs) as c:
            yield c
    finally:
        if absorb and c is not None:
            tracker.merge_serial(c)


def charge_blocked(works, depths, blocks) -> None:
    """Charge per-item (work, depth) pairs as a blocked parallel loop.

    ``works``/``depths`` are per-item cost arrays; ``blocks`` is a list
    of ``(lo, hi)`` index ranges (e.g. from ``query_blocks``).  The
    composition is exactly what ``scheduler.parallel_for`` over those
    blocks would record — each block is a serial run of its items, the
    blocks are parallel siblings — so a batched (array-at-a-time)
    execution that accumulates per-item costs can charge the same
    fork-join structure as an item-at-a-time loop.
    """
    if not blocks:
        return
    costs = [
        Cost(float(works[lo:hi].sum()), float(depths[lo:hi].sum()))
        for lo, hi in blocks
    ]
    if len(costs) == 1:
        tracker.merge_serial(costs[0])
    else:
        tracker.merge_parallel(costs, fanout=len(costs))


def fork_costs(thunks) -> list:
    """Run thunks serially but compose their costs as parallel siblings.

    This is how algorithmically-parallel recursion below a scheduler
    grain cutoff is accounted: execution is inline (cheap), the cost
    model still sees the fork-join structure.
    """
    out = []
    costs = []
    for t in thunks:
        with tracker.frame() as c:
            out.append(t())
        costs.append(c)
    tracker.merge_parallel(costs, fanout=len(costs) or 1)
    return out


def simulated_time(cost: Cost, workers: float) -> float:
    """Brent's bound for running ``cost`` on ``workers`` processors."""
    if workers <= 1:
        return cost.work + cost.depth
    return cost.work / workers + DEPTH_OVERHEAD * cost.depth


def simulated_speedup(cost: Cost, workers: float) -> float:
    """Self-relative speedup T1 / Tp predicted by the cost model."""
    t1 = simulated_time(cost, 1.0)
    tp = simulated_time(cost, workers)
    if tp <= 0:
        return 1.0
    return t1 / tp
