"""The hull view's write path against its oracles.

* The monotone chain runs its turns on Python floats; the numpy-scalar
  chain it replaced is kept in ``tests/_hull_reference.py``.  Both must
  return the same index list on every lex-sorted distinct input:
  collinear sets, duplicate-heavy grids, and coordinates near 1e-300
  (products underflow) or 1e15 (differences lose low bits).
* The mirror grows by doubling a buffer; views must stay canonical
  (bitwise-equal to a from-scratch compute) across every growth.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.views import HullView, Mirror, ViewManager
from repro.views.hull2d import _chain, _dedup_lex

from ._hull_reference import reference_chain

_SCALES = [1.0, 1e-300, 1e15, 3.0e-7]


def _lex_distinct(pts):
    p, _ = _dedup_lex(pts, np.arange(len(pts), dtype=np.int64))
    return p


@st.composite
def _inputs(draw):
    """Lex-sorted distinct coords from one of four degenerate families."""
    kind = draw(st.sampled_from(["grid", "collinear", "uniform", "offset"]))
    scale = draw(st.sampled_from(_SCALES))
    n = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "grid":  # duplicate-heavy: a 5x5 lattice
        pts = rng.integers(0, 5, (n, 2)).astype(np.float64) * scale
    elif kind == "collinear":
        base, step = rng.integers(-9, 9, 2), rng.integers(-4, 5, 2)
        pts = (base + np.outer(rng.integers(-20, 20, n), step)).astype(np.float64) * scale
    elif kind == "uniform":
        pts = rng.uniform(-1.0, 1.0, (n, 2)) * scale
    else:  # large offset, small spread: cancellation in every turn
        pts = 1e15 + rng.integers(0, 7, (n, 2)).astype(np.float64)
    return _lex_distinct(pts)


def _check(p):
    assert _chain(p) == reference_chain(p)


class TestChainMatchesReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(p=_inputs())
    def test_identical_index_lists(self, p):
        _check(p)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(p=_inputs())
    def test_identical_index_lists_long(self, p):
        _check(p)

    @pytest.mark.parametrize("scale", _SCALES)
    def test_fixed_degenerate_cases(self, scale):
        for pts in (
            np.zeros((1, 2)),
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),  # collinear
            np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]),  # vertical
            np.array([[x, y] for x in range(4) for y in range(4)], dtype=np.float64),
        ):
            _check(_lex_distinct(pts * scale))


class TestMirrorGrowth:
    def test_append_keeps_rows_and_grows_by_doubling(self):
        m = Mirror(np.zeros((3, 2)), np.arange(3))
        caps = set()
        for i in range(40):
            rows = m.append(np.full((5, 2), float(i)), np.arange(100 + 5 * i, 105 + 5 * i))
            caps.add(len(m._gids))
            assert rows.tolist() == list(range(3 + 5 * i, 8 + 5 * i))
            assert len(m.pts) == len(m.gids) == len(m.alive) == 8 + 5 * i
        assert len(caps) >= 3  # several growths happened
        assert m.n_live() == len(m.gids)
        assert all(m.row_of[int(g)] == r for r, g in enumerate(m.gids))
        assert np.array_equal(m.pts[-5:], np.full((5, 2), 39.0))

    @pytest.mark.parametrize("make", ["bdl", "sharded"])
    def test_views_stay_canonical_across_growth(self, make):
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 30, (20, 2)).astype(np.float64)
        if make == "bdl":
            idx = BDLTree(2, buffer_size=8)
            idx.insert(pts)
        else:
            idx = ShardedIndex(pts, 3)
        mgr = ViewManager(idx)
        mgr.hull2d()
        caps = set()
        for step in range(60):
            if step % 4 == 3:
                live, _ = idx.gather_points()
                mgr.erase(live[rng.choice(len(live), size=3, replace=False)])
            else:
                mgr.insert(rng.integers(0, 30 + step, (8, 2)).astype(np.float64))
            caps.add(len(mgr.mirror._gids))
            live, gids = idx.gather_points()
            got, ver = mgr.get("hull2d")
            assert got == HullView.compute(live, gids)
            assert ver == int(idx.version)
            mp, mg = mgr.mirror.live()
            assert sorted(mg.tolist()) == sorted(gids.tolist())
        assert len(caps) >= 3
