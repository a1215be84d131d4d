#!/usr/bin/env python3
"""Wall-clock benchmark of the geometry query and update path.

    python3 wallbench/run.py --workload stream_views --seed 1 --seconds 45 --trace 0

Runs one workload of ``bench.py`` against the library sources in
``src/`` of the checkout and prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics with the benchmark's layer
timers off; ``--trace 1`` times each layer from the benchmark's side of
its entry points (``layers.py``) and reports per-layer metrics instead.
In both the front end runs with its default request tracing.

The process is pinned to one CPU before anything else starts.  The
serving stack runs its Python on one interpreter lock, so a second CPU
adds no throughput, only the jitter of waking the event-loop and
dispatch threads on different CPUs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the library's defaults (sequential backend, batched engines, hull
    # filter on), whatever the calling shell sets
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # numpy and the library load only after pinning, so every thread
    # they start inherits the one CPU
    sys.path[:0] = [str(HERE), str(SRC)]
    from bench import WORKLOADS, bench

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = asyncio.run(bench(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
