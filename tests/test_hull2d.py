"""Tests for 2D convex hull algorithms (all four variants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from repro.generators import in_sphere, on_cube, on_sphere, uniform
from repro.hull import (
    at_extremes,
    at_filter,
    divide_conquer_2d,
    quickhull2d_parallel,
    quickhull2d_seq,
    randinc_hull2d,
    reservation_quickhull2d,
)


def hull_set(fn, pts):
    out = fn(pts)
    h = out[0] if isinstance(out, tuple) else out
    return np.asarray(h)


ALL_2D = [
    quickhull2d_seq,
    quickhull2d_parallel,
    divide_conquer_2d,
    randinc_hull2d,
    reservation_quickhull2d,
]


def signed_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


class TestAgainstQhull:
    @pytest.mark.parametrize("fn", ALL_2D)
    @pytest.mark.parametrize(
        "make", [uniform, in_sphere, on_sphere, on_cube], ids=["U", "IS", "OS", "OC"]
    )
    def test_vertex_set_matches(self, fn, make, rng):
        pts = make(3000, 2, seed=7).coords
        ref = set(ConvexHull(pts).vertices.tolist())
        assert set(hull_set(fn, pts).tolist()) == ref

    @pytest.mark.parametrize("fn", ALL_2D)
    def test_ccw_order(self, fn, rng):
        pts = rng.normal(size=(500, 2))
        h = hull_set(fn, pts)
        assert signed_area(pts[h]) > 0

    @pytest.mark.parametrize("fn", ALL_2D)
    def test_all_points_inside(self, fn, rng):
        pts = rng.normal(size=(800, 2))
        h = hull_set(fn, pts)
        poly = pts[h]
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            cr = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            assert cr.min() > -1e-9


class TestEdgeCases:
    @pytest.mark.parametrize("fn", [quickhull2d_seq, quickhull2d_parallel, divide_conquer_2d])
    def test_triangle(self, fn):
        pts = np.array([[0.0, 0], [1, 0], [0, 1]])
        assert set(hull_set(fn, pts).tolist()) == {0, 1, 2}

    def test_square_with_interior(self):
        pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        h = hull_set(quickhull2d_seq, pts)
        assert set(h.tolist()) == {0, 1, 2, 3}

    def test_collinear_interior_points_excluded(self):
        pts = np.array([[0.0, 0], [2, 0], [1, 0], [0, 2], [2, 2]])
        h = hull_set(quickhull2d_seq, pts)
        assert 2 not in set(h.tolist())

    def test_duplicates(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [0, 0], [1, 0]])
        h = hull_set(quickhull2d_seq, pts)
        assert len(h) == 3

    def test_single_point(self):
        assert len(quickhull2d_seq(np.zeros((1, 2)))) == 1

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            quickhull2d_seq(np.zeros((5, 3)))

    @pytest.mark.parametrize("fn", [randinc_hull2d, reservation_quickhull2d])
    def test_all_collinear_raises(self, fn):
        pts = np.column_stack([np.arange(10.0), np.arange(10.0)])
        with pytest.raises(ValueError):
            fn(pts)


# ----------------------------------------------------------------------
# Akl–Toussaint filter-first (repro.hull.filter)
# ----------------------------------------------------------------------
_LIM = 1 << 20  # integer grid: every cross product below is exact


def _grid(min_n, max_n, lim=_LIM):
    coord = st.integers(-lim, lim)
    return st.lists(
        st.tuples(coord, coord), min_size=min_n, max_size=max_n
    ).map(lambda xs: np.array(xs, dtype=np.float64))


def _assert_filter_transparent(pts):
    """Filtered hull bitwise-equal to unfiltered, for both variants."""
    for fn in (quickhull2d_seq, quickhull2d_parallel):
        unf = fn(pts, prefilter=False)
        fil = fn(pts, prefilter=True)
        assert np.array_equal(unf, fil), (fn.__name__, pts[:8])


class TestAklToussaintFilter:
    def test_default_is_on(self, monkeypatch):
        import repro.hull.hull2d as H

        calls = []
        monkeypatch.setattr(H, "at_filter", lambda p: calls.append(len(p)) or at_filter(p))
        pts = uniform(500, 2, seed=1).coords
        for fn in (quickhull2d_seq, quickhull2d_parallel):
            calls.clear()
            fn(pts)
            assert calls == [len(pts)], fn.__name__
            calls.clear()
            fn(pts, prefilter=False)
            assert calls == [], fn.__name__

    def test_filter_actually_eliminates(self):
        pts = uniform(3000, 2, seed=3).coords
        keep = at_filter(pts)
        # interior-heavy input: the vast majority must be rejected
        assert keep.sum() < len(pts) // 2
        _assert_filter_transparent(pts)

    @pytest.mark.parametrize(
        "make", [uniform, in_sphere, on_sphere, on_cube], ids=["U", "IS", "OS", "OC"]
    )
    def test_transparent_on_generators(self, make):
        _assert_filter_transparent(make(3000, 2, seed=7).coords)

    @given(pts=_grid(1, 120))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_never_discards_a_hull_vertex(self, pts):
        # the property the whole optimization rests on: every vertex of
        # the true hull survives the filter, so the filtered result is
        # bitwise-identical — checked on exact integer-grid inputs
        _assert_filter_transparent(pts)
        if len(pts) >= 3:
            keep = at_filter(pts)
            assert keep[at_extremes(pts)].all()
            hull = quickhull2d_seq(pts, prefilter=False)
            assert keep[hull].all()

    @given(pts=_grid(3, 80, lim=3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_duplicate_heavy(self, pts):
        # a 7x7 grid forces massive coordinate duplication: duplicates
        # of hull vertices sit exactly on the extreme polygon's boundary
        # and must never be eliminated
        _assert_filter_transparent(pts)

    @given(
        base=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
        step=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        ts=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_collinear_inputs(self, base, step, ts):
        pts = np.array(
            [[base[0] + t * step[0], base[1] + t * step[1]] for t in ts],
            dtype=np.float64,
        )
        # degenerate extreme polygon (<3 distinct extremes) keeps all
        _assert_filter_transparent(pts)
        assert at_filter(pts).all()

    def test_all_interior_degenerate(self):
        # every non-vertex point strictly inside a triangle is dropped;
        # the triangle itself survives
        rng = np.random.default_rng(5)
        tri = np.array([[-1000.0, -1000], [1000, -1000], [0, 1000]])
        w = rng.dirichlet([2.0, 2.0, 2.0], size=500)
        pts = np.vstack([tri, w @ tri])
        keep = at_filter(pts)
        assert keep[:3].all()
        assert keep[3:].sum() < 50
        _assert_filter_transparent(pts)

    def test_tiny_and_identical_inputs(self):
        for pts in (
            np.zeros((1, 2)),
            np.zeros((2, 2)),
            np.zeros((5, 2)),  # all points identical
            np.array([[1.0, 2], [3, 4]]),
        ):
            assert at_filter(pts).all()
            _assert_filter_transparent(pts)


class TestReservationBehavior:
    def test_batch_one_equals_sequential_result(self, rng):
        pts = rng.normal(size=(400, 2))
        h1, _ = randinc_hull2d(pts, batch=1, seed=3)
        h2, _ = randinc_hull2d(pts, batch=16, seed=3)
        assert set(h1.tolist()) == set(h2.tolist())

    def test_stats_populated(self, rng):
        pts = rng.normal(size=(2000, 2))
        _, st = randinc_hull2d(pts)
        assert st.rounds > 0
        assert st.reservations_succeeded <= st.reservations_attempted
        assert st.facets_created >= 3

    def test_contention_lowers_success_rate(self):
        """Tiny hull (gaussian) -> few facets -> reservation conflicts;
        hull on a circle -> many facets -> high success (paper §6.1)."""
        rng = np.random.default_rng(0)
        small_out = rng.normal(size=(5000, 2))  # hull ~ log n
        big_out = on_sphere(5000, 2, seed=1).coords
        _, st_small = randinc_hull2d(small_out, batch=32)
        _, st_big = randinc_hull2d(big_out, batch=32)
        rate_small = st_small.reservations_succeeded / st_small.reservations_attempted
        rate_big = st_big.reservations_succeeded / st_big.reservations_attempted
        assert rate_big > rate_small

    def test_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(1000, 2))
        h1, _ = randinc_hull2d(pts, seed=5)
        h2, _ = randinc_hull2d(pts, seed=5)
        assert np.array_equal(h1, h2)

    def test_threads_backend_same_hull(self, rng, any_backend):
        pts = rng.normal(size=(3000, 2))
        h, _ = reservation_quickhull2d(pts)
        ref = set(ConvexHull(pts).vertices.tolist())
        assert set(h.tolist()) == ref
