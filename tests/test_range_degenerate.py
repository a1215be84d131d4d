"""Box and ball queries on degenerate input against brute force.

Points sit on an integer grid with many duplicates, so query faces and
rims pass exactly through points.  The oracle is independent of the
library: ``lo <= p <= hi`` per coordinate for a box, ``||p - c|| <= r``
(a square root, not the squared test the engines run) for a ball.  Each
case runs on the per-query walk and the lock-step engine (which must
also charge the same work and depth), on a BDL tree whose buffer holds
points, on a ``ShardedIndex`` and through ``execute_requests``.
"""

import numpy as np
import pytest

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.kdtree import KDTree
from repro.kdtree.batch import execute_requests
from repro.kdtree.range_search import range_query_ball_batch, range_query_batch
from repro.parlay import tracker

from ._engines import forced_engine

INF = np.inf

#: (kind, first, second): a box is (lo, hi), a ball (center, radius)
CASES = {
    "box-faces-on-grid": ("box", [20.0, 30.0], [45.0, 60.0]),
    "box-point-on-duplicates": ("box", [7.0, 7.0], [7.0, 7.0]),
    "box-inverted-x": ("box", [50.0, 10.0], [49.0, 90.0]),
    "box-inverted-y": ("box", [10.0, 50.0], [90.0, 49.999]),
    "box-half-infinite": ("box", [-INF, 40.0], [30.0, INF]),
    "box-all-space": ("box", [-INF, -INF], [INF, INF]),
    "box-infinite-empty": ("box", [INF, -INF], [INF, INF]),
    "ball-rim-on-grid": ("ball", [7.0, 7.0], 5.0),
    "ball-point-on-duplicates": ("ball", [7.0, 7.0], 0.0),
    "ball-negative": ("ball", [7.0, 7.0], -1.0),
    "ball-all-space": ("ball", [50.0, 50.0], INF),
}


def _pts(n=900, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 60, (n, 2)).astype(np.float64)
    pts[::9] = [7.0, 7.0]  # one heavily duplicated coordinate
    # on the rim of the radius-5 ball around it, on a face and a corner
    # of the grid-aligned box
    pts[-4:] = [[10.0, 11.0], [12.0, 7.0], [20.0, 45.0], [45.0, 60.0]]
    return pts


def _brute(pts, gids, kind, a, b):
    """Gids inside the region, ascending, by the definition."""
    if kind == "box":
        inside = np.all((pts >= np.asarray(a)) & (pts <= np.asarray(b)), axis=1)
    else:
        inside = np.sqrt(((pts - np.asarray(a)) ** 2).sum(axis=1)) <= b
    return np.sort(gids[inside])


def _tree_batch(t, kind, a, b):
    """One-query batch through the public tree-level batch function."""
    if kind == "box":
        return range_query_batch(t, [a], [b])
    return range_query_ball_batch(t, [a], [b])


def _costed(engine, fn, *args):
    tracker.reset()
    with forced_engine(engine):
        out = fn(*args)
    cost = tracker.total()
    tracker.reset()
    return out, cost


def _request(kind, a, b):
    if kind == "box":
        return ("box", np.array([a, b], dtype=np.float64), {})
    return ("ball", (np.asarray(a, dtype=np.float64), b), {})


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_cases_are_not_trivial():
    pts = _pts()
    gids = np.arange(len(pts))
    sizes = {name: len(_brute(pts, gids, *c)) for name, c in CASES.items()}
    assert sizes["box-point-on-duplicates"] > 50
    assert sizes["ball-point-on-duplicates"] == sizes["box-point-on-duplicates"]
    assert sizes["box-all-space"] == sizes["ball-all-space"] == len(pts)
    for name in ("box-inverted-x", "box-inverted-y", "box-infinite-empty",
                 "ball-negative"):
        assert sizes[name] == 0
    # faces and rims pass through points that are in the answer
    for p in pts[-4:-2]:
        assert np.hypot(*(p - 7.0)) == 5.0
    face = _brute(pts, gids, *CASES["box-faces-on-grid"])
    assert {len(pts) - 2, len(pts) - 1} <= set(face.tolist())


def test_walk_and_lockstep(case):
    pts = _pts()
    t = KDTree(pts, leaf_size=4)
    # tombstones (live counts differ from build counts), sparing the
    # duplicated coordinate and the rim, face and corner points
    t.erase(pts[1:40][np.arange(1, 40) % 9 != 0])
    live = np.flatnonzero(t.alive)
    want = _brute(pts[live], live, *case)
    (walk,), cw = _costed("recursive", _tree_batch, t, *case)
    (lock,), cl = _costed("batched", _tree_batch, t, *case)
    assert np.array_equal(np.sort(walk), want)
    assert np.array_equal(walk, lock)  # same emission order too
    assert cw.work == cl.work
    assert np.isclose(cw.depth, cl.depth, rtol=1e-12)
    kind, a, b = case
    single = t.range_query_box(a, b) if kind == "box" else t.range_query_ball(a, b)
    assert np.array_equal(single, walk)


def test_bdl_buffer_and_trees(case):
    pts = _pts(700)
    tree = BDLTree(2, buffer_size=64)
    gids = tree.insert(pts)
    assert len(tree.buf_pts) > 0  # the buffer scan is exercised
    kind, a, b = case
    want = _brute(pts, gids, *case)
    if kind == "box":
        single = tree.range_query_box(a, b)
        (batch,) = tree.range_query_box_batch([a], [b])
    else:
        single = tree.range_query_ball(a, b)
        (batch,) = tree.range_query_ball_batch([a], [b])
    assert np.array_equal(np.sort(single), want)
    assert np.array_equal(batch, single)


def test_sharded_and_execute_requests(case):
    pts = _pts()
    gids = np.arange(len(pts))
    want = _brute(pts, gids, *case)
    idx = ShardedIndex(pts, 5)
    kind, a, b = case
    if kind == "box":
        (got,) = idx.range_query_box_batch([a], [b])
    else:
        (got,) = idx.range_query_ball_batch([a], [b])
    assert np.array_equal(got, want)  # sharded hits come back sorted
    bdl = BDLTree(2, buffer_size=64)
    bdl.insert(pts)
    for index in (idx, KDTree(pts), bdl):
        (res,) = execute_requests(index, [_request(*case)])
        assert np.array_equal(np.sort(res), want)
