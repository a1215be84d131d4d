"""``repro.bench`` — timing + simulated-speedup benchmark harness."""

from .harness import (
    Measurement,
    PAPER_CORES,
    Table,
    bench_scale,
    measure,
)

__all__ = [
    "Measurement",
    "PAPER_CORES",
    "Table",
    "bench_scale",
    "measure",
]
