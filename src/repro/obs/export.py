"""Span-tree exporters: Chrome trace-event JSON and text summaries.

Two renderings of one recorded span tree:

**Chrome trace JSON** (:func:`chrome_trace`, loadable in Perfetto /
``chrome://tracing``) with two process groups:

* *simulated schedule* (pid 0): the span DAG greedy-list-scheduled onto
  ``p`` worker lanes.  Each span contributes one task of duration equal
  to its *self work* (work minus recorded children's work, in
  work-units = microseconds); a task becomes ready when its parent
  starts (the fork point), and Graham's greedy rule assigns it to the
  earliest-free lane.  The resulting makespan obeys Brent's bound
  ``W/p <= makespan <~ W/p + D`` — a visual answer to "what does this
  run look like on 36 cores".
* *recorded wall clock* (pid 1): the spans at their measured
  ``perf_counter`` times, one lane per OS thread — what actually
  happened on this machine.

**Text summary** (:func:`summary`): totals (W, D, parallelism, Brent
speedup), a flame-style top-by-self-work table aggregated by span name,
the deepest individual spans by depth share, and the critical-path
listing.  :func:`critical_path` walks root-to-leaf choosing the
max-depth child at every step; its head's depth is the tracked D when
the root span wraps the run.

:func:`validate_chrome_trace` is the schema check the CI gate runs on
exported traces.
"""

from __future__ import annotations

import json
import os

from ..parlay.workdepth import DEPTH_OVERHEAD
from .span import Span

__all__ = [
    "chrome_trace",
    "critical_path",
    "self_work",
    "simulate_schedule",
    "span_children",
    "span_roots",
    "summary",
    "totals",
    "validate_chrome_trace",
    "wall_lane_events",
    "write_chrome_trace",
]


# ----------------------------------------------------------------------
# tree helpers
# ----------------------------------------------------------------------
def span_children(spans: list[Span]) -> dict[int | None, list[Span]]:
    """parent sid -> children (sid order).  Unknown parents map to None."""
    known = {s.sid for s in spans}
    kids: dict[int | None, list[Span]] = {}
    for s in sorted(spans, key=lambda s: s.sid):
        p = s.parent if s.parent in known else None
        kids.setdefault(p, []).append(s)
    return kids


def span_roots(spans: list[Span]) -> list[Span]:
    """Spans whose parent was not recorded (usually the run roots)."""
    return span_children(spans).get(None, [])


def self_work(spans: list[Span]) -> dict[int, float]:
    """sid -> exclusive work: own work minus recorded children's work.

    Sums to the roots' total work exactly (fork bookkeeping charged to
    the parent frame stays with the parent); clamped at 0 for spans
    whose children were captured with ``absorb=False``.
    """
    kids = span_children(spans)
    return {
        s.sid: max(s.work - sum(c.work for c in kids.get(s.sid, [])), 0.0)
        for s in spans
    }


def totals(spans: list[Span]) -> tuple[float, float]:
    """(W, D) over the recorded roots — the whole run when traced via
    :func:`~repro.obs.span.trace`."""
    roots = span_roots(spans)
    return sum(s.work for s in roots), sum(s.depth for s in roots)


def critical_path(spans: list[Span]) -> list[Span]:
    """Root-to-leaf chain following the max-depth child at every step.

    Starts at the deepest root; the head's ``depth`` is the critical
    path's total, which equals the tracked D for a run-rooted trace.
    """
    if not spans:
        return []
    kids = span_children(spans)
    node = max(span_roots(spans), key=lambda s: s.depth)
    path = [node]
    while kids.get(node.sid):
        node = max(kids[node.sid], key=lambda s: s.depth)
        path.append(node)
    return path


# ----------------------------------------------------------------------
# simulated schedule (greedy list scheduling under Brent's bound)
# ----------------------------------------------------------------------
def simulate_schedule(
    spans: list[Span], workers: int
) -> tuple[list[tuple[Span, int, float, float]], float]:
    """Greedy-list-schedule the span DAG onto ``workers`` lanes.

    Tasks are spans with duration = self work; a task is ready at its
    parent's start time (the fork point) and is placed, in begin order
    (a topological order — parents begin before children), on the lane
    where it can start earliest, preferring the parent's lane on ties.

    Returns ``(placements, makespan)`` where each placement is
    ``(span, lane, start, duration)`` in work-units.
    """
    p = max(1, int(workers))
    selfw = self_work(spans)
    free = [0.0] * p
    start: dict[int, float] = {}
    lane_of: dict[int, int] = {}
    placements: list[tuple[Span, int, float, float]] = []
    for s in sorted(spans, key=lambda s: s.sid):
        ready = start.get(s.parent, 0.0) if s.parent is not None else 0.0
        pref = lane_of.get(s.parent, 0) if s.parent is not None else 0
        best_lane, best_start = pref, max(ready, free[pref])
        for lane in range(p):
            st = max(ready, free[lane])
            if st < best_start:
                best_lane, best_start = lane, st
        dur = selfw[s.sid]
        free[best_lane] = best_start + dur
        start[s.sid] = best_start
        lane_of[s.sid] = best_lane
        placements.append((s, best_lane, best_start, dur))
    return placements, max(free) if placements else 0.0


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(spans: list[Span], *, workers: int = 36,
                 name: str = "repro") -> dict:
    """The span tree as a Chrome trace-event JSON object (Perfetto)."""
    W, D = totals(spans)
    placements, makespan = simulate_schedule(spans, workers)
    events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": f"simulated {int(workers)}-core schedule"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "recorded wall clock"}},
    ]
    for lane in range(max(1, int(workers))):
        events.append({"ph": "M", "pid": 0, "tid": lane, "name": "thread_name",
                       "args": {"name": f"core {lane}"}})

    # pid 0: simulated lanes; 1 work-unit = 1 us
    for s, lane, start, dur in placements:
        events.append({
            "name": s.name, "cat": s.cat, "ph": "X", "pid": 0, "tid": lane,
            "ts": round(start, 3), "dur": round(max(dur, 0.001), 3),
            "args": {"sid": s.sid, "work": s.work, "depth": s.depth,
                     **({"batch": s.batch} if s.batch is not None else {})},
        })

    # pid 1+: measured wall clock
    if spans:
        events += wall_lane_events(spans, min(s.t0 for s in spans))

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": name,
            "workers": int(workers),
            "work": W,
            "depth": D,
            "brent_tp": (W / max(int(workers), 1)) + DEPTH_OVERHEAD * D,
            "makespan": makespan,
            "spans": len(spans),
        },
    }


def wall_lane_events(spans: list[Span], t_origin: float) -> list[dict]:
    """Chrome events placing ``spans`` at their measured wall-clock times.

    Spans forwarded from worker processes carry their worker's OS pid
    in ``meta["pid"]`` and get a chrome process lane of their own
    (pid 2, 3, ...); everything else — the parent process — lands on
    pid 1, one lane per OS thread.  The caller names pid 1.  ``ts`` is
    microseconds since ``t_origin`` (a ``perf_counter`` reading); the
    span meta's ``links`` / ``trace_ids``, when present, are copied
    into the event args.
    """
    worker_pids = sorted({
        s.meta["pid"] for s in spans if s.meta and "pid" in s.meta
    })
    cpid_for = {wp: 2 + i for i, wp in enumerate(worker_pids)}
    events: list[dict] = [
        {"ph": "M", "pid": cpid, "tid": 0, "name": "process_name",
         "args": {"name": f"worker pid {wp}"}}
        for wp, cpid in cpid_for.items()
    ]
    groups: dict[int, list[Span]] = {}
    for s in spans:
        wp = s.meta.get("pid") if s.meta else None
        groups.setdefault(cpid_for.get(wp, 1), []).append(s)
    for cpid, group in sorted(groups.items()):
        tids = sorted({s.tid for s in group})
        lane_for = {tid: i for i, tid in enumerate(tids)}
        for i, tid in enumerate(tids):
            events.append({"ph": "M", "pid": cpid, "tid": i,
                           "name": "thread_name",
                           "args": {"name": f"thread {tid}"}})
        for s in group:
            args = {"sid": s.sid, "work": s.work, "depth": s.depth,
                    "backend": s.backend}
            meta = s.meta or {}
            if "links" in meta:
                args["links"] = list(meta["links"])
            if "trace_ids" in meta:
                args["trace_ids"] = list(meta["trace_ids"])
            events.append({
                "name": s.name, "cat": s.cat, "ph": "X", "pid": cpid,
                "tid": lane_for[s.tid],
                "ts": round((s.t0 - t_origin) * 1e6, 3),
                "dur": round(max((s.t1 - s.t0) * 1e6, 0.001), 3),
                "args": args,
            })
    return events


def write_chrome_trace(path: str | os.PathLike, spans: list[Span], *,
                       workers: int = 36, name: str = "repro") -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the object."""
    obj = chrome_trace(spans, workers=workers, name=name)
    with open(os.fspath(path), "w") as f:
        json.dump(obj, f)
        f.write("\n")
    return obj


def validate_chrome_trace(obj) -> list[str]:
    """Schema-check a trace-event JSON object; returns problems ([] = ok).

    Checks the JSON-object trace format: a ``traceEvents`` list whose
    events carry ``ph``/``pid``/``tid``/``name``, with numeric
    non-negative ``ts``/``dur`` on complete (``X``) events.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"trace must be a JSON object, got {type(obj).__name__}"]
    ev = obj.get("traceEvents")
    if not isinstance(ev, list):
        return ["missing or non-list 'traceEvents'"]
    for i, e in enumerate(ev):
        if not isinstance(e, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in e:
                problems.append(f"event {i}: missing {key!r}")
        ph = e.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                v = e.get(key)
                if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                    problems.append(f"event {i}: bad {key!r}: {v!r}")
        elif ph == "M":
            if not isinstance(e.get("args"), dict):
                problems.append(f"event {i}: metadata event without args")
        elif not isinstance(ph, str):
            problems.append(f"event {i}: bad 'ph': {ph!r}")
        if len(problems) > 20:
            problems.append("... (truncated)")
            break
    return problems


# ----------------------------------------------------------------------
# text summary (flame-style)
# ----------------------------------------------------------------------
def summary(spans: list[Span], *, top: int = 12, workers: float = 36.0) -> str:
    """Human-readable profile: totals, top spans, critical path."""
    if not spans:
        return "(no spans recorded)"
    W, D = totals(spans)
    p = max(float(workers), 1.0)
    tp = W / p + DEPTH_OVERHEAD * D
    t1 = W + D
    lines = [
        f"work W = {W:,.0f}   depth D = {D:,.1f}   "
        f"parallelism W/D = {W / D if D else float('inf'):,.1f}",
        f"Brent T_{int(p)} = {tp:,.0f} work-units  "
        f"(modeled speedup {t1 / tp if tp else 1.0:.1f}x)",
        "",
    ]

    # top by aggregate self-work, grouped by span name
    selfw = self_work(spans)
    agg: dict[str, list[float]] = {}
    for s in spans:
        a = agg.setdefault(s.name, [0.0, 0])
        a[0] += selfw[s.sid]
        a[1] += 1
    lines.append(f"{'top spans by self-work':<38} {'count':>7} "
                 f"{'self-work':>14} {'% of W':>8}")
    for nm, (w, n) in sorted(agg.items(), key=lambda kv: -kv[1][0])[:top]:
        lines.append(
            f"{nm:<38} {n:>7} {w:>14,.0f} {100.0 * w / W if W else 0.0:>7.1f}%"
        )
    lines.append("")

    # deepest individual spans (depth share of D)
    lines.append(f"{'deepest spans':<38} {'sid':>7} {'depth':>14} {'% of D':>8}")
    for s in sorted(spans, key=lambda s: -s.depth)[:top]:
        lines.append(
            f"{s.name:<38} {s.sid:>7} {s.depth:>14,.1f} "
            f"{100.0 * s.depth / D if D else 0.0:>7.1f}%"
        )
    lines.append("")

    # critical path
    path = critical_path(spans)
    lines.append(f"critical path ({path[0].depth:,.1f} depth, {len(path)} spans):")
    for i, s in enumerate(path):
        lines.append(f"{'  ' * i}- {s.name} (work {s.work:,.0f}, "
                     f"depth {s.depth:,.1f})")
    return "\n".join(lines)
