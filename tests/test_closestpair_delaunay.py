"""Tests for closest pair and Delaunay triangulation."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.spatial import Delaunay as SciDelaunay
from scipy.spatial.distance import pdist

from repro.closestpair import closest_pair
from repro.delaunay import delaunay
from repro.generators import uniform, visual_var


class TestClosestPair:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_bruteforce(self, d, rng):
        for _ in range(5):
            pts = rng.uniform(0, 10, size=(400, d))
            dist, i, j = closest_pair(pts)
            assert dist == pytest.approx(pdist(pts).min(), abs=1e-10)
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(dist)

    def test_duplicate_points_distance_zero(self, rng):
        pts = rng.normal(size=(50, 2))
        pts = np.vstack([pts, pts[7]])
        dist, i, j = closest_pair(pts)
        assert dist == 0
        assert {i, j} == {7, 50}

    def test_two_points(self):
        dist, i, j = closest_pair(np.array([[0.0, 0], [3.0, 4.0]]))
        assert dist == pytest.approx(5.0)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            closest_pair(np.zeros((1, 2)))

    def test_sequential_equals_parallel(self, rng):
        pts = rng.uniform(0, 1, size=(1000, 3))
        d1, *_ = closest_pair(pts, parallel=False)
        d2, *_ = closest_pair(pts, parallel=True)
        assert d1 == d2

    def test_clustered(self):
        pts = visual_var(1500, 2, seed=2).coords
        dist, i, j = closest_pair(pts)
        assert dist == pytest.approx(pdist(pts).min(), abs=1e-10)


class TestDelaunay:
    def test_matches_scipy_edges(self, rng):
        for trial in range(5):
            pts = rng.uniform(0, 10, size=(200, 2))
            dt = delaunay(pts)
            ours = dt.edges()
            ref = SciDelaunay(pts)
            re = np.vstack(
                [ref.simplices[:, [0, 1]], ref.simplices[:, [1, 2]], ref.simplices[:, [2, 0]]]
            )
            re.sort(axis=1)
            re = np.unique(re, axis=0)
            assert len(ours) == len(re) and np.all(ours == re)

    def test_empty_circumcircle_property(self, rng):
        pts = rng.uniform(0, 100, size=(300, 2))
        dt = delaunay(pts)
        assert dt.check_delaunay()

    def test_triangle_count_euler(self, rng):
        """2D Delaunay: T = 2n - 2 - h (h = hull vertices)."""
        from repro.hull import quickhull2d_seq

        pts = rng.uniform(0, 10, size=(500, 2))
        dt = delaunay(pts)
        h = len(quickhull2d_seq(pts))
        assert len(dt.triangles()) == 2 * len(pts) - 2 - h

    def test_all_triangles_ccw(self, rng):
        from repro.core.predicates import orient2d

        pts = rng.uniform(0, 10, size=(150, 2))
        dt = delaunay(pts)
        for (a, b, c) in dt.triangles():
            assert orient2d(pts[a], pts[b], pts[c]) > 0

    def test_minimum_input(self):
        dt = delaunay(np.array([[0.0, 0], [1, 0], [0, 1]]))
        assert len(dt.triangles()) == 1
        with pytest.raises(ValueError):
            delaunay(np.zeros((2, 2)))

    def test_grid_points(self):
        """Structured (cocircular-heavy) input still triangulates."""
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        # jitter breaks exact cocircularity the way real data would
        pts += np.random.default_rng(0).normal(scale=1e-6, size=pts.shape)
        dt = delaunay(pts)
        assert dt.check_delaunay()
        assert len(dt.triangles()) == 2 * 64 - 2 - len(
            __import__("repro.hull", fromlist=["quickhull2d_seq"]).quickhull2d_seq(pts)
        )

    def test_clustered(self):
        pts = visual_var(600, 2, seed=9).coords
        dt = delaunay(pts)
        assert dt.check_delaunay(sample=60)


def _covered_area(dt) -> float:
    t = dt.triangles()
    a, b, c = dt.pts[t[:, 0]], dt.pts[t[:, 1]], dt.pts[t[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
        b[:, 1] - a[:, 1]
    ) * (c[:, 0] - a[:, 0])
    return float(np.abs(cross).sum() / 2)


class TestDelaunayDuplicates:
    """Duplicates are triangulated once and reported, as scipy's
    ``Delaunay.coplanar`` reports them."""

    def _assert_complete(self, pts):
        dt = delaunay(pts)
        assert dt.check_delaunay()
        assert dt.check_delaunay(sample=len(dt.triangles()))
        assert _covered_area(dt) == pytest.approx(ConvexHull(pts).volume, rel=1e-12)
        # every dropped id equals its kept id, which is lower and kept
        drop, keep = dt.duplicates.T
        assert np.all(pts[drop] == pts[keep]) and np.all(keep < drop)
        uniq = len(np.unique(pts, axis=0))
        assert len(pts) - len(dt.duplicates) == uniq
        assert not np.isin(drop, dt.triangles()).any()
        return dt

    def test_binomial_cloud(self):
        # the pydelaunay usage example: 860 unique of 1,000 points
        rng = np.random.default_rng(0)
        pts = rng.binomial(1024, 0.5, (1000, 2)).astype(np.float64)
        dt = self._assert_complete(pts)
        assert len(dt.duplicates) == 140

    def test_grid_with_copies(self):
        rng = np.random.default_rng(1)
        cells = rng.choice(64 * 64, 1000, replace=False)
        grid = np.stack([cells // 64, cells % 64], axis=1).astype(np.float64)
        self._assert_complete(grid)
        copies = grid[rng.choice(1000, 50)]
        dt = self._assert_complete(np.vstack([grid, copies]))
        assert len(dt.duplicates) == 50
        assert np.array_equal(np.sort(dt.duplicates[:, 0]), np.arange(1000, 1050))

    def test_no_duplicates_reports_none(self, rng):
        dt = delaunay(rng.uniform(size=(50, 2)))
        assert dt.duplicates.shape == (0, 2)
