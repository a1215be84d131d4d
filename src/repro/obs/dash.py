"""Live text dashboard over a running :class:`~repro.frontend.frontend.Frontend`.

One :func:`render` call turns the front-end's snapshot — per-tenant
queue/counter state, SLO burn rates over both windows, and the flight
recorder's retention tallies — into a fixed-width text frame, with the
slowest retained requests decomposed into their phase bars.  The
``dash`` CLI subcommand drives a synthetic open-loop load and redraws
the frame every ``--interval`` seconds, which is the quickest way to
*watch* admission control trip, burn rates spike, and the tail
threshold chase the p90.

The renderer is read-only and lock-free on the caller's side: it only
touches :meth:`Frontend.snapshot` and :meth:`FlightRecorder.slowest`,
both of which take their own locks briefly.
"""

from __future__ import annotations

from .rtrace import PHASES, RequestTrace

__all__ = ["render", "render_trace_line"]

#: One glyph per phase, in timeline order, for the inline bars.
_PHASE_GLYPHS = dict(zip(PHASES, "░▒█▪▓·"))


def _bar(trt: RequestTrace, width: int = 24) -> str:
    """A ``width``-char bar slicing the request's latency into phases."""
    if trt.latency <= 0.0 or not trt.phases:
        return " " * width
    out = []
    for p in PHASES:
        n = int(round(width * trt.phases.get(p, 0.0) / trt.latency))
        out.append(_PHASE_GLYPHS[p] * n)
    s = "".join(out)[:width]
    return s + " " * (width - len(s))


def render_trace_line(trt: RequestTrace, width: int = 24) -> str:
    """One slowest-trace row: identity, latency, phase bar, top phases."""
    top = sorted(
        ((p, v) for p, v in trt.phases.items() if v > 0.0),
        key=lambda kv: -kv[1],
    )[:3]
    detail = "  ".join(f"{p} {v * 1e3:.1f}ms" for p, v in top)
    return (
        f"  {trt.tenant:>8s} {trt.trace_id[-8:]} [{trt.outcome:>5s}]"
        f" {trt.latency * 1e3:8.2f}ms  {_bar(trt, width)}  {detail}"
    )


_WIDTH = 78  #: frame width in characters


def render(frontend) -> str:
    """Render one dashboard frame for ``frontend`` as a multi-line string."""
    snap = frontend.snapshot()
    lines = [
        f"repro dash  admission={snap['admission_state']}"
        f"  queued={snap['queue_depth_total']}"
        f"  drain={snap['drain_rate']:.0f} req/s",
        "-" * _WIDTH,
    ]

    slo = snap.get("slo", {})
    header = (f"{'tenant':>10s} {'queued':>6s} {'done':>8s} {'shed':>6s}"
              f" {'degr':>6s} {'hit%':>5s}")
    if slo:
        header += f"  {'burn lat 5m/1h':>14s} {'avail 5m/1h':>12s}"
    lines.append(header)
    for name, t in sorted(snap["per_tenant"].items()):
        shed = t["rejected"] + t["quota_rejections"]
        row = (f"{name:>10s} {t['queue_depth']:6d} {t['completed']:8d}"
               f" {shed:6d} {t['degraded']:6d} {t['hit_rate'] * 100:4.0f}%")
        burn = slo.get(name, {}).get("burn")
        if burn:
            lat, av = burn.get("latency", {}), burn.get("availability", {})
            row += (f"  {lat.get('5m', 0.0):6.2f}/{lat.get('1h', 0.0):<6.2f}"
                    f" {av.get('5m', 0.0):5.2f}/{av.get('1h', 0.0):<5.2f}")
        lines.append(row)

    view_rows = []
    for name in sorted(snap["per_tenant"]):
        mgr = getattr(frontend.tenant_index(name), "views", None)
        if mgr is None:
            continue
        for vname, vs in sorted(mgr.stats().items()):
            view_rows.append(
                f"{name:>10s} {vname:>14s} v{vs['version']:<6d}"
                f" repairs {vs['repairs']:6d}  recomputes {vs['recomputes']:4d}"
            )
    if view_rows:
        lines.append("-" * _WIDTH)
        lines.append(f"{'tenant':>10s} {'view':>14s} {'ver':<7s}"
                     f" repairs vs recompute-fallbacks")
        lines.extend(view_rows)

    flight = snap.get("flight")
    if flight:
        by = flight.get("by_reason", {})
        reasons = "  ".join(f"{k} {v}" for k, v in sorted(by.items()))
        lines.append("-" * _WIDTH)
        lines.append(
            f"flight: {flight['seen']} seen, {flight['retained']} retained"
            f" ({reasons or 'none'}),"
            f" tail >= {flight['tail_threshold'] * 1e3:.2f}ms"
        )
        slow = frontend.flight.slowest(5) if frontend.flight else []
        if slow:
            key = "  ".join(f"{g}={p}" for p, g in _PHASE_GLYPHS.items())
            lines.append(f"slowest retained   ({key})")
            lines.extend(render_trace_line(t) for t in slow)
    return "\n".join(lines)
