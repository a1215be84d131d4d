"""Tests for the Hilbert curve, radix sort, all-NN, and BDL range search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.bdl import BDLTree
from repro.generators import uniform, visual_var
from repro.kdtree import all_nearest_neighbors
from repro.parlay import radix_argsort, radix_sort
from repro.spatialsort import (
    hilbert_codes,
    hilbert_sort,
    morton_sort,
)
from repro.spatialsort.hilbert import (
    _SWAR_BELOW,
    _array_undo_and_gray,
    _swar_undo_and_gray,
    _transpose_to_hilbert_int,
)

from ._hilbert_reference import (
    reference_hilbert_codes,
    reference_transpose_to_hilbert_int,
)


class TestHilbert:
    def test_4x4_grid_is_a_bijection(self):
        g = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
        c = hilbert_codes(g, bits=2)
        assert sorted(c.tolist()) == list(range(16))

    def test_curve_is_connected_on_grid(self):
        """Consecutive Hilbert cells are grid neighbors (the defining
        property the Z-order curve lacks)."""
        n = 8
        g = np.array([[x, y] for x in range(n) for y in range(n)], dtype=float)
        c = hilbert_codes(g, bits=3)
        order = np.argsort(c)
        steps = np.abs(np.diff(g[order], axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_better_locality_than_morton(self):
        for d in (2, 3):
            pts = uniform(4000, d, seed=9).coords
            gh = np.linalg.norm(np.diff(hilbert_sort(pts), axis=0), axis=1).mean()
            gm = np.linalg.norm(np.diff(morton_sort(pts), axis=0), axis=1).mean()
            assert gh < gm

    def test_better_locality_than_morton_high_dims(self):
        """Skilling's transpose is dimension-generic: in 4D/5D the
        Hilbert order still beats Z-order on mean neighbor gap."""
        for d in (4, 5):
            pts = uniform(4000, d, seed=11).coords
            gh = np.linalg.norm(np.diff(hilbert_sort(pts), axis=0), axis=1).mean()
            gm = np.linalg.norm(np.diff(morton_sort(pts), axis=0), axis=1).mean()
            assert gh < gm

    def test_high_dim_codes_are_valid(self, rng):
        """d >= 4 is accepted; codes are deterministic and fit the
        default bits budget (bits * d <= 63)."""
        for d in (4, 5, 8):
            pts = rng.normal(size=(200, d))
            c = hilbert_codes(pts)
            assert c.dtype == np.uint64
            assert np.array_equal(c, hilbert_codes(pts))

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            hilbert_codes(rng.normal(size=(5, 1)))  # d < 2
        with pytest.raises(ValueError):
            hilbert_codes(rng.normal(size=(5, 2)), bits=40)  # 80 > 63 bits
        with pytest.raises(ValueError):
            hilbert_codes(rng.normal(size=(5, 4)), bits=16)  # 64 > 63 bits

    def test_empty(self):
        assert len(hilbert_codes(np.empty((0, 2)))) == 0

    def test_deterministic(self, rng):
        pts = rng.normal(size=(100, 3))
        assert np.array_equal(hilbert_codes(pts), hilbert_codes(pts))

    def test_golden_2d_4x4(self):
        """Exact codes pin the curve's orientation and axis order, which
        bijection and connectivity alone would not notice changing."""
        g = np.array([[x, y] for x in range(4) for y in range(4)], dtype=float)
        assert hilbert_codes(g, bits=2).reshape(4, 4).tolist() == [
            [0, 3, 4, 5],
            [1, 2, 7, 6],
            [14, 13, 8, 9],
            [15, 12, 11, 10],
        ]

    def test_golden_3d_2x2x2(self):
        g = np.array(
            [[x, y, z] for x in range(2) for y in range(2) for z in range(2)],
            dtype=float,
        )
        assert hilbert_codes(g, bits=1).tolist() == [0, 1, 3, 2, 7, 6, 4, 5]


def _quantized(rng, n, d, bits):
    """(n, d) coordinates of ``bits`` bits, rich in 0 and 2^bits - 1."""
    top = (1 << bits) - 1
    x = rng.integers(0, top, size=(n, d), endpoint=True, dtype=np.uint64)
    x[rng.random((n, d)) < 0.2] = 0
    x[rng.random((n, d)) < 0.2] = top
    if n >= 2:
        x[0], x[1] = 0, top
    return x


class TestHilbertMatchesReference:
    """The array-speed transform against the per-bit reference loop kept
    in ``tests/_hilbert_reference.py``: codes must agree bitwise."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_every_bits_width(self, d):
        """Both transforms: Python-int (SWAR) fields below the cutoff,
        numpy columns from it up."""
        rng = np.random.default_rng(d)
        c = _SWAR_BELOW
        for bits in range(1, 63 // d + 1):
            for n in (0, 1, 7, 300, c - 1, c, 2 * c):
                x = _quantized(rng, n, d, bits)
                before = x.copy()
                got = _transpose_to_hilbert_int(x, bits)
                want = reference_transpose_to_hilbert_int(x, bits)
                assert got.dtype == np.uint64 and got.shape == (n,)
                assert np.array_equal(got, want), (d, bits, n)
                assert np.array_equal(x, before), "input was modified"

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_swar_fields_equal_array_columns(self, d):
        """Whole 64-bit fields, not just the ``bits`` the interleave
        reads: no SWAR field picks up bits shifted in from its
        neighbour."""
        rng = np.random.default_rng(100 + d)
        for bits in range(1, 63 // d + 1):
            for n in (1, 2, 7, 50):
                x = _quantized(rng, n, d, bits)
                assert np.array_equal(
                    _swar_undo_and_gray(x, bits), _array_undo_and_gray(x, bits)
                ), (d, bits, n)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_bitwise_equal(self, data):
        d = data.draw(st.integers(2, 8), label="d")
        bits = data.draw(st.integers(1, 63 // d), label="bits")
        n = data.draw(st.sampled_from([0, 1, 2, 5, 17, 1000]), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        x = _quantized(np.random.default_rng(seed), n, d, bits)
        assert np.array_equal(
            _transpose_to_hilbert_int(x, bits),
            reference_transpose_to_hilbert_int(x, bits),
        )

    def test_float_path_with_frozen_bounds(self, rng):
        """hilbert_codes end to end, including points clamped onto the
        face of a frozen box and the default resolution."""
        for d in (2, 3, 7):
            pts = rng.normal(size=(500, d))
            lo, hi = pts[:250].min(axis=0), pts[:250].max(axis=0)
            bits = 62 // d
            assert np.array_equal(
                hilbert_codes(pts, bounds=(lo, hi)),
                reference_hilbert_codes(pts, bits, (lo, hi)),
            )


class TestRadixSort:
    def test_matches_numpy(self, rng):
        keys = rng.integers(0, 1 << 50, size=10_000).astype(np.uint64)
        assert np.array_equal(radix_sort(keys), np.sort(keys))

    def test_stable(self):
        keys = np.array([3, 1, 3, 1, 3], dtype=np.uint64)
        order = radix_argsort(keys)
        ones = order[keys[order] == 1]
        assert np.array_equal(ones, np.sort(ones))

    def test_small_and_empty(self):
        assert len(radix_argsort(np.empty(0, dtype=np.uint64))) == 0
        assert radix_argsort(np.array([5], dtype=np.uint64)).tolist() == [0]

    def test_rejects_floats(self, rng):
        with pytest.raises(ValueError):
            radix_argsort(rng.normal(size=10))

    def test_single_pass_small_keys(self, rng):
        keys = rng.integers(0, 100, size=5000)
        assert np.array_equal(radix_sort(keys), np.sort(keys))


class TestAllNN:
    def test_matches_scipy(self, rng):
        for d in (2, 3, 5):
            pts = rng.uniform(0, 10, size=(2000, d))
            dist, idx = all_nearest_neighbors(pts)
            dd, ii = cKDTree(pts).query(pts, k=2)
            assert np.allclose(dist, dd[:, 1])
            # indices may differ under exact ties; distances decide
            tie_free = dd[:, 1] < np.nextafter(dd[:, 1], np.inf)
            assert np.allclose(
                np.linalg.norm(pts - pts[idx], axis=1), dd[:, 1]
            )

    def test_clustered(self):
        pts = visual_var(3000, 2, seed=4).coords
        dist, idx = all_nearest_neighbors(pts)
        dd, _ = cKDTree(pts).query(pts, k=2)
        assert np.allclose(dist, dd[:, 1])

    def test_no_self_matches(self, rng):
        pts = rng.normal(size=(500, 2))
        _, idx = all_nearest_neighbors(pts)
        assert np.all(idx != np.arange(500))

    def test_duplicates_pair_up(self):
        pts = np.vstack([np.zeros((2, 2)), np.ones((3, 2))])
        dist, idx = all_nearest_neighbors(pts)
        assert np.allclose(dist[:2], 0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            all_nearest_neighbors(np.zeros((1, 2)))


class TestBDLRange:
    def test_box_across_trees_and_buffer(self, rng):
        pts = rng.uniform(0, 10, size=(1500, 2))
        t = BDLTree(2, buffer_size=127)  # odd size -> nonempty buffer
        for b in range(0, 1500, 300):
            t.insert(pts[b : b + 300])
        got = set(t.range_query_box([3, 3], [6, 6]).tolist())
        ref = set(np.flatnonzero(np.all((pts >= 3) & (pts <= 6), axis=1)).tolist())
        assert got == ref

    def test_ball_respects_deletions(self, rng):
        pts = rng.uniform(0, 10, size=(1000, 3))
        t = BDLTree(3, buffer_size=128)
        t.insert(pts)
        t.erase(pts[:400])
        got = set(t.range_query_ball([5, 5, 5], 3.0).tolist())
        keep = pts[400:]
        ref_local = cKDTree(keep).query_ball_point([5.0, 5, 5], 3.0)
        ref = {r + 400 for r in ref_local}
        assert got == ref

    def test_empty_result(self):
        t = BDLTree(2)
        assert len(t.range_query_box([0, 0], [1, 1])) == 0
