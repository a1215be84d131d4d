"""Range requests still pass through the entry points wallbench's layer
clock wraps.

``wallbench/layers.py`` times each serving layer by wrapping named
entry points (``ShardedIndex.range_query_box_batch`` as ``router``,
``BDLTree.range_query_box_batch`` and the ``kdtree.batch`` lock-step
functions as ``kernel``, ...).  A refactor that reaches the shared
range code without going through those names would leave a traced run
reading 0 for the layer, silently.  The module is loaded from its file
and only its clock is used; nothing there is changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ShardedIndex
from repro.kdtree import KDTree
from repro.kdtree.batch import execute_requests

from ._engines import forced_engine

LAYERS = Path(__file__).resolve().parents[1] / "wallbench" / "layers.py"


@pytest.fixture
def clock():
    spec = importlib.util.spec_from_file_location("wallbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    c = layers.LayerClock()
    layers.install(c)
    try:
        yield c
    finally:
        c.uninstall()


def _requests(kind, n):
    rng = np.random.default_rng(5)
    out = []
    for c in rng.uniform(20, 80, (n, 2)):
        if kind == "box":
            out.append(("box", np.stack([c - 6.0, c + 6.0]), {}))
        else:
            out.append(("ball", (c, 6.0), {}))
    return out


def _pts():
    return np.random.default_rng(1).uniform(0, 100, (800, 2))


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_sharded_range_is_router_and_kernel_time(clock, kind):
    idx = ShardedIndex(_pts(), 4)
    (hits,) = execute_requests(idx, _requests(kind, 1))
    assert len(hits)
    assert clock.calls["router"] >= 1
    assert clock.calls["kernel"] >= 1


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_static_tree_lockstep_range_is_kernel_time(clock, kind):
    with forced_engine("batched"):
        hits = execute_requests(KDTree(_pts()), _requests(kind, 3))
    assert all(len(h) for h in hits)
    assert clock.calls["kernel"] == 1
