"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.predicates import incircle, orient2d, orient3d
from repro.kdtree import KDTree, KNNBuffer
from repro.parlay import pscan, sample_sort
from repro.seb import welzl_mtf
from repro.spatialsort import morton_codes

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def points_strategy(d, min_n=4, max_n=60):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(d)),
        elements=finite,
    )


class TestPredicateProperties:
    @given(arrays(np.float64, (3, 2), elements=finite))
    @settings(max_examples=100, deadline=None)
    def test_orient2d_antisymmetric(self, tri):
        a, b, c = tri
        assert orient2d(a, b, c) == -orient2d(b, a, c)
        assert orient2d(a, b, c) == orient2d(b, c, a)  # cyclic

    @given(arrays(np.float64, (4, 3), elements=finite))
    @example(np.array([[0.0, 151331.0, 1.38256449e-37], [0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0], [1.18070547e-292, 0.0, 0.0]]))
    @example(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -2.2250738585072e-311],
                       [0.0, 0.0, 1.0], [-6.15877493e-100, 1.0, 0.0]]))
    @settings(max_examples=60, deadline=None)
    def test_orient3d_swap_antisymmetry(self, q):
        a, b, c, d = q
        assert orient3d(a, b, c, d) == -orient3d(a, c, b, d)

    @given(arrays(np.float64, (3, 2), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_incircle_of_vertex_is_zero(self, tri):
        a, b, c = tri
        if orient2d(a, b, c) <= 0:
            return
        assert incircle(a, b, c, a) == 0
        assert incircle(a, b, c, b) == 0


class TestParlayProperties:
    @given(arrays(np.float64, st.integers(0, 500), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_sort_is_sorted_permutation(self, a):
        out = sample_sort(a)
        assert np.array_equal(np.sort(a), out)

    @given(arrays(np.float64, st.integers(0, 300), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_scan_total_is_sum(self, a):
        prefix, total = pscan(a)
        assert np.isclose(total, a.sum(), rtol=1e-9, atol=1e-6)
        if len(a):
            assert prefix[0] == 0


class TestKNNBufferProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=200),
        st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_buffer_keeps_k_smallest(self, vals, k):
        buf = KNNBuffer(k)
        for i, v in enumerate(vals):
            buf.insert(v, i)
        d, _ = buf.result()
        ref = np.sort(np.asarray(vals))[: min(k, len(vals))]
        assert np.allclose(np.sort(d), ref)


class TestKDTreeProperties:
    @given(points_strategy(2, min_n=2, max_n=80), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_knn_matches_bruteforce(self, pts, k):
        k = min(k, len(pts))
        t = KDTree(pts)
        d, i = t.knn(pts[:5], k)
        for qi in range(min(5, len(pts))):
            ref = np.sort(((pts - pts[qi]) ** 2).sum(axis=1))[:k]
            assert np.allclose(np.sort(d[qi][np.isfinite(d[qi])]), ref, rtol=1e-9)

    @given(points_strategy(3, min_n=1, max_n=100))
    @settings(max_examples=30, deadline=None)
    def test_build_invariants_hold(self, pts):
        t = KDTree(pts)
        t.check_invariants()


class TestSEBProperties:
    @given(points_strategy(2, min_n=1, max_n=50))
    @settings(max_examples=40, deadline=None)
    def test_ball_contains_everything(self, pts):
        b = welzl_mtf(pts)
        assert b.contains_all(pts, tol=1e-7)

    @given(points_strategy(3, min_n=2, max_n=40))
    @settings(max_examples=30, deadline=None)
    def test_ball_is_tight(self, pts):
        """The furthest point must be (numerically) on the boundary."""
        b = welzl_mtf(pts)
        d = np.linalg.norm(pts - b.center, axis=1)
        scale = max(b.radius, 1e-9)
        assert d.max() >= b.radius - 1e-6 * scale


class TestMortonProperties:
    @given(points_strategy(2, min_n=2, max_n=100))
    @settings(max_examples=40, deadline=None)
    def test_codes_respect_dominance(self, pts):
        """If p dominates q coordinate-wise (strictly), code(p) > code(q)
        whenever they quantize differently in every coordinate."""
        codes = morton_codes(pts)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        bits = max(1, 62 // 2)
        scale = (1 << bits) - 1
        q = ((pts - lo) / span * scale).astype(np.uint64)
        for i in range(min(len(pts), 10)):
            for j in range(min(len(pts), 10)):
                if np.all(q[i] > q[j]):
                    assert codes[i] > codes[j]


class TestHullProperties:
    @given(points_strategy(2, min_n=3, max_n=100))
    @settings(max_examples=40, deadline=None)
    def test_hull_contains_all_points(self, pts):
        from repro.hull import quickhull2d_seq

        h = quickhull2d_seq(pts)
        if len(h) < 3:
            return  # collinear degenerate
        poly = pts[h]
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            cr = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            span = max(np.abs(pts).max(), 1.0)
            assert cr.min() >= -1e-7 * span * span
