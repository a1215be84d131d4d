"""Force every kd-tree query onto one engine, for equivalence tests.

The library picks a query engine per tree call by batch size
(``repro.kdtree.batch.resolve_engine``): the per-query walk below
``WALK_BELOW[family]`` queries, the lock-step engine from there on.
:func:`forced_engine` patches those cutoffs so every tree call in the
block runs one engine, which lets a test compare the two engines'
rows and work/depth charges on the same input.

The patch changes a module global of this process, so it cannot reach
``processes``-backend pool workers: use it in-process only.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.kdtree import batch

#: The two query engines: the lock-step frontier engine and the
#: per-query walk.
ENGINES = ("batched", "recursive")


@contextmanager
def forced_engine(engine: str):
    """Run every tree call in the block on ``engine``."""
    if engine not in ENGINES:
        raise ValueError(f"unknown query engine {engine!r}; expected one of {ENGINES}")
    cutoff = 0 if engine == "batched" else float("inf")
    saved = batch.WALK_BELOW
    batch.WALK_BELOW = {family: cutoff for family in saved}
    try:
        yield
    finally:
        batch.WALK_BELOW = saved
