"""Ball queries against brute force ``||p - c|| <= r``, negative radii included.

A ball of negative radius holds no point: ``||p - c|| <= r < 0`` is
never true.  Every engine that answers a ball query -- the per-query
walk, the lock-step engine, the BDL-tree's buffer scan, the sharded
router's ``plan_ball``, ``execute_requests`` and ``Frontend.ball`` --
must return the empty set for it, and the walk and lock-step engines
must still charge the same work and depth.
"""

import asyncio

import numpy as np
import pytest

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.cluster.router import plan_ball
from repro.frontend import Frontend
from repro.kdtree import KDTree
from repro.kdtree.batch import execute_requests
from repro.kdtree.range_search import (
    ball_r2,
    ball_r2s,
    range_query_ball,
    range_query_ball_batch,
)
from repro.parlay import tracker

from ._engines import forced_engine

RADII = [-20.0, -1e-300, -0.0, 0.0, 7.5, 20.0, -np.inf, np.inf]


def _pts(n=1000, seed=7):
    # integer coordinates: some points sit exactly on a ball's rim
    return np.random.default_rng(seed).integers(0, 100, (n, 2)).astype(np.float64)


def _brute(pts, gids, c, r):
    """Gids of the points with ``||p - c|| <= r``, ascending."""
    dist = np.sqrt(((pts - c) ** 2).sum(axis=1))
    return np.sort(gids[dist <= r])


def _costed(engine, fn, *args):
    tracker.reset()
    with forced_engine(engine):
        out = fn(*args)
    cost = tracker.total()
    tracker.reset()
    return out, cost


def test_squared_radius_helpers():
    assert ball_r2(-20.0) == -np.inf and ball_r2(3.0) == 9.0
    assert ball_r2(-0.0) == 0.0
    got = ball_r2s(np.array([-20.0, 3.0, 0.0, -np.inf]))
    assert got.tolist() == [-np.inf, 9.0, 0.0, -np.inf]


@pytest.mark.parametrize("r", RADII)
def test_walk_and_lockstep_match_brute_force_and_each_other(r):
    pts = _pts()
    t = KDTree(pts)
    t.erase(pts[:50])  # tombstones: live counts differ from build counts
    live = np.flatnonzero(t.alive)
    centers = np.array([[40.0, 60.0], [0.0, 0.0], [99.0, 12.0]])
    walk, cw = _costed("recursive", range_query_ball_batch, t, centers, np.full(3, r))
    lock, cl = _costed("batched", range_query_ball_batch, t, centers, np.full(3, r))
    for c, a, b in zip(centers, walk, lock):
        want = _brute(pts[live], live, c, r)
        assert np.array_equal(np.sort(a), want)
        assert np.array_equal(np.sort(b), want)
    assert cw.work == cl.work
    assert np.isclose(cw.depth, cl.depth, rtol=1e-9)
    if r < 0:
        assert all(len(a) == 0 for a in walk)
        assert len(range_query_ball(t, centers[0], r)) == 0


@pytest.mark.parametrize("r", RADII)
def test_bdl_buffer_and_trees(r):
    pts = _pts(700)
    tree = BDLTree(2, buffer_size=64)
    gids = tree.insert(pts)
    assert len(tree.buf_pts) > 0  # the buffer scan is exercised
    c = np.array([50.0, 50.0])
    want = _brute(pts, gids, c, r)
    assert np.array_equal(np.sort(tree.range_query_ball(c, r)), want)
    (got,) = tree.range_query_ball_batch(c[None], [r])
    assert np.array_equal(np.sort(got), want)


@pytest.mark.parametrize("r", RADII)
def test_sharded_plan_and_execute_requests(r):
    pts = _pts()
    idx = ShardedIndex(pts, 6)
    gids = np.arange(len(pts))
    c = np.array([30.0, 70.0])
    lo, hi = idx._boxes()
    plan = plan_ball(lo, hi, c[None], ball_r2s([r]))
    if r < 0:
        assert not plan.any()
    for index in (idx, KDTree(pts)):
        (got,) = execute_requests(index, [("ball", (c, r), {})])
        assert np.array_equal(np.sort(got), _brute(pts, gids, c, r))


def test_frontend_ball_with_negative_radius_is_empty():
    pts = _pts(400)
    want = _brute(pts, np.arange(len(pts)), np.array([50.0, 50.0]), 20.0)
    assert len(want) > 0

    async def go():
        fe = Frontend(max_batch=8, queue_depth=64)
        fe.register_tenant("t", KDTree(pts))
        fe.register_tenant("s", ShardedIndex(pts, 4))
        async with fe:
            for tenant in ("t", "s"):
                neg = await fe.ball(tenant, [50.0, 50.0], -20.0)
                pos = await fe.ball(tenant, [50.0, 50.0], 20.0)
                assert len(neg.value) == 0
                assert np.array_equal(np.sort(pos.value), want)

    asyncio.run(go())
