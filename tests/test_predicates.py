"""Tests for robust geometric predicates."""

import numpy as np

from repro.core.predicates import (
    incircle,
    incircle_batch,
    orient2d,
    orient2d_batch,
    orient3d,
    orient3d_batch,
)


class TestOrient2D:
    def test_ccw_cw_collinear(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert orient2d(a, b, np.array([0.0, 1.0])) == 1
        assert orient2d(a, b, np.array([0.0, -1.0])) == -1
        assert orient2d(a, b, np.array([2.0, 0.0])) == 0

    def test_exact_on_tiny_perturbation(self):
        """Near-collinear: floating filter is inconclusive, exact path
        must decide consistently."""
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 1.0])
        c = np.array([0.5, 0.5 + 1e-17])
        s = orient2d(a, b, c)
        # 0.5 + 1e-17 rounds to 0.5 in float64 -> exactly collinear
        assert s == 0

    def test_antisymmetry(self, rng):
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 2))
            assert orient2d(a, b, c) == -orient2d(b, a, c)

    def test_batch_matches_scalar(self, rng):
        a, b = rng.normal(size=(2, 2))
        pts = rng.normal(size=(200, 2))
        batch = orient2d_batch(a, b, pts)
        for i in range(0, 200, 17):
            assert batch[i] == orient2d(a, b, pts[i])


class TestOrient3D:
    def test_sign_convention(self):
        a = np.array([0.0, 0, 0])
        b = np.array([1.0, 0, 0])
        c = np.array([0.0, 1, 0])
        above = np.array([0.0, 0, 1])
        below = np.array([0.0, 0, -1])
        assert orient3d(a, b, c, above) == 1
        assert orient3d(a, b, c, below) == -1
        assert orient3d(a, b, c, np.array([0.3, 0.3, 0.0])) == 0

    def test_swap_changes_sign(self, rng):
        for _ in range(30):
            a, b, c, d = rng.normal(size=(4, 3))
            assert orient3d(a, b, c, d) == -orient3d(b, a, c, d)

    def test_batch_matches_scalar(self, rng):
        a, b, c = rng.normal(size=(3, 3))
        pts = rng.normal(size=(100, 3))
        batch = orient3d_batch(a, b, c, pts)
        for i in range(0, 100, 13):
            assert batch[i] == orient3d(a, b, c, pts[i])

    def test_coplanar_exact(self):
        a = np.array([0.0, 0, 0])
        b = np.array([1.0, 0, 0])
        c = np.array([0.0, 1, 0])
        d = np.array([0.25, 0.25, 0.0])
        assert orient3d(a, b, c, d) == 0

    def test_underflowing_products_go_exact(self):
        """A repeated vertex makes the determinant exactly zero, but the
        float products underflow to a subnormal det while the error
        bound underflows to 0: the filter must not trust that sign."""
        a = np.array([0.0, 151331.0, 1.38256449e-37])
        b = np.zeros(3)
        d = np.array([1.18070547e-292, 0.0, 0.0])
        assert orient3d(a, b, b, d) == 0
        assert orient3d_batch(a, b, b, d[None, :])[0] == 0

    def test_cancelling_minor_goes_exact(self):
        """The float differences round d - a to (-1, 1, 0), which makes a
        2x2 minor cancel to exactly 0 and leaves a subnormal det of the
        wrong sign; the bound must still cover the minor's products."""
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, -2.2250738585072e-311])
        c = np.array([0.0, 0.0, 1.0])
        d = np.array([-6.15877493e-100, 1.0, 0.0])
        # exact det: 2.2e-311 - 6.2e-100 < 0
        assert orient3d(a, b, c, d) == -1
        assert orient3d(a, c, b, d) == 1
        assert orient3d_batch(a, b, c, d[None, :])[0] == -1
        assert orient3d_batch(a, c, b, d[None, :])[0] == 1


class TestInCircle:
    def test_inside_outside(self):
        # unit circle through three ccw points
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        c = np.array([-1.0, 0.0])
        assert incircle(a, b, c, np.array([0.0, 0.0])) == 1
        assert incircle(a, b, c, np.array([2.0, 0.0])) == -1
        assert incircle(a, b, c, np.array([0.0, -1.0])) == 0  # cocircular

    def test_batch_matches_scalar(self, rng):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        c = np.array([-1.0, 0.0])
        pts = rng.normal(size=(150, 2)) * 2
        batch = incircle_batch(a, b, c, pts)
        for i in range(0, 150, 11):
            assert batch[i] == incircle(a, b, c, pts[i])

    def test_cocircular_exact_zero(self):
        # four points of a perfect square are cocircular
        a = np.array([1.0, 1.0])
        b = np.array([-1.0, 1.0])
        c = np.array([-1.0, -1.0])
        d = np.array([1.0, -1.0])
        assert incircle(a, b, c, d) == 0
