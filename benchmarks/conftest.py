"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark prints the paper-style table at module teardown, and
registers with pytest-benchmark so ``pytest benchmarks/
--benchmark-only`` gives machine-readable timings as well.

Dataset sizes default to Python-scale (10k–50k, vs the paper's 10M) and
multiply by ``REPRO_BENCH_SCALE``.
"""

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.generators import dataset as make_dataset
from repro.parlay import tracker

_cache: dict = {}


@pytest.fixture(autouse=True)
def _reset_tracker():
    tracker.reset()
    yield
    tracker.reset()


def data(name: str, seed: int = 0) -> np.ndarray:
    """Memoized paper-style dataset (coordinates array)."""
    key = (name, seed)
    if key not in _cache:
        _cache[key] = make_dataset(name, seed=seed).coords
    return _cache[key]


def run_once(benchmark, fn, *args, **kwargs):
    """Register a single-shot measurement with pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _git(root: Path, *args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def bench_meta() -> dict:
    """The facts a BENCH record needs to be read on another machine:
    commit (and whether tracked files differed from it), cores,
    interpreter and numpy versions, and the scale."""
    root = Path(__file__).resolve().parent.parent
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
    }
