"""Benchmark harness: wall-clock timing plus simulated parallel speedup.

The paper reports T_1 (one thread) and T_36h (36 cores, two-way
hyper-threading).  Here T_1 is measured wall-clock and T_p comes from
the work-depth cost model (DESIGN.md §1): the tracked (W, D) of the run
give the Brent-bound speedup, which is applied to the measured T_1.

``REPRO_BENCH_SCALE`` scales every benchmark's input size (default 1.0;
the defaults are chosen so the whole suite runs in minutes in Python).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import (
    HYPERTHREAD_FACTOR,
    Cost,
    simulated_speedup,
    tracker,
)

__all__ = [
    "Measurement",
    "measure",
    "Table",
    "bench_scale",
    "PAPER_CORES",
]

#: the paper's machine: 36 cores, 2-way hyper-threading
PAPER_CORES = 36 * HYPERTHREAD_FACTOR


def bench_scale(n: int) -> int:
    """Scale a benchmark size by the REPRO_BENCH_SCALE env var."""
    return max(16, int(n * float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))))


@dataclass
class Measurement:
    """One benchmark run: wall time + modeled parallel behavior.

    ``meta`` carries run metadata (n, dims, k, repeat, backend,
    ...) so serialized records are self-describing; :func:`measure`
    always stamps ``repeat`` and the scheduler ``backend``.
    """

    name: str
    t1: float  # measured single-thread wall-clock seconds
    cost: Cost
    result: object = None
    meta: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # best run's spans when traced

    def speedup(self, workers: float = PAPER_CORES) -> float:
        # a parallel implementation can always fall back to its serial
        # schedule, so the modeled speedup is never below 1
        return max(1.0, simulated_speedup(self.cost, workers))

    def tp(self, workers: float = PAPER_CORES) -> float:
        s = self.speedup(workers)
        return self.t1 / s if s > 0 else self.t1

    def to_json(self) -> dict:
        """A self-describing JSON-ready record of this run."""
        return {
            "name": self.name,
            "t1": self.t1,
            "work": self.cost.work,
            "depth": self.cost.depth,
            "meta": dict(self.meta),
        }


def measure(name: str, fn, *args, repeat: int = 1, meta: dict | None = None,
            tracing: bool = False, **kwargs) -> Measurement:
    """Run ``fn`` and capture wall time and work-depth cost.

    ``meta`` is merged into the measurement's metadata, alongside the
    automatically recorded ``repeat`` and scheduler ``backend``.  With
    ``tracing=True`` each repeat runs under a fresh span recorder (see
    :mod:`repro.obs`) rooted at ``name``; the best run's spans are kept
    on the measurement.
    """
    best_t = float("inf")
    cost = Cost()
    result = None
    spans: list = []
    for _ in range(max(repeat, 1)):
        tracker.reset()
        if tracing:
            from ..obs import trace

            t0 = time.perf_counter()
            with trace(name) as rec:
                result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        if dt < best_t:
            best_t = dt
            cost = tracker.total()
            if tracing:
                spans = rec.spans()
    tracker.reset()
    full_meta = {"repeat": max(repeat, 1), "backend": get_scheduler().backend}
    if tracing:
        full_meta["tracing"] = True
    if meta:
        full_meta.update(meta)
    return Measurement(name, best_t, cost, result, full_meta, spans)


class Table:
    """Accumulates measurement rows and prints a paper-style table."""

    def __init__(self, title: str, columns: tuple[str, ...] = ("T1", "T36h", "speedup")):
        self.title = title
        self.columns = columns
        self.rows: list[tuple] = []

    def add(self, m: Measurement, workers: float = PAPER_CORES, extra: str = "") -> None:
        self.rows.append(
            (m.name, m.t1, m.tp(workers), m.speedup(workers), extra)
        )

    def add_raw(self, name: str, *values) -> None:
        self.rows.append((name, *values))

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        head = f"{'benchmark':<42} " + " ".join(f"{c:>12}" for c in self.columns)
        lines.append(head)
        lines.append("-" * len(head))
        for row in self.rows:
            name = row[0]
            cells = []
            for v in row[1:]:
                if isinstance(v, float):
                    cells.append(f"{v:>12.4g}")
                else:
                    cells.append(f"{v!s:>12}")
            lines.append(f"{name:<42} " + " ".join(cells))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())
