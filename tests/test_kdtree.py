"""Tests for the static vEB kd-tree: build, k-NN, range, deletion."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.generators import uniform, visual_var
from repro.kdtree import (
    KDTree,
    KNNBuffer,
    OBJECT_MEDIAN,
    SPATIAL_MEDIAN,
    hyperceiling,
    knn,
    knn_single,
    range_query_ball,
    range_query_box,
)
from repro.kdtree.delete import _match_rows
from repro.parlay import tracker

from ._erase_reference import reference_erase


class TestHyperceiling:
    def test_values(self):
        assert [hyperceiling(i) for i in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]

    def test_zero_and_negative(self):
        assert hyperceiling(0) == 1
        assert hyperceiling(-3) == 1


class TestBuild:
    @pytest.mark.parametrize("split", [OBJECT_MEDIAN, SPATIAL_MEDIAN])
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (17, 3), (1000, 2), (3000, 5)])
    def test_invariants(self, split, n, d, rng):
        pts = rng.uniform(0, 10, size=(n, d))
        t = KDTree(pts, split=split)
        t.check_invariants()

    def test_rejects_bad_args(self, rng):
        pts = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            KDTree(pts, split="weird")
        with pytest.raises(ValueError):
            KDTree(pts, leaf_size=0)
        with pytest.raises(ValueError):
            KDTree(pts, gids=np.arange(5))

    def test_empty_tree(self):
        t = KDTree(np.empty((0, 2)))
        assert t.root == -1 and t.size() == 0

    def test_duplicate_points(self):
        pts = np.ones((64, 2))
        t = KDTree(pts)
        t.check_invariants()
        assert t.size() == 64

    def test_leaf_size_one_gives_singleton_leaves(self, rng):
        pts = rng.normal(size=(128, 2))
        t = KDTree(pts, leaf_size=1)
        for i in range(len(t.used)):
            if t.used[i] and t.is_leaf[i]:
                assert t.end[i] - t.start[i] == 1

    def test_object_median_is_balanced(self, rng):
        pts = rng.normal(size=(4096, 3))
        t = KDTree(pts, split=OBJECT_MEDIAN, leaf_size=16)
        # a balanced tree over 4096 points with leaf 16 has height ~9
        assert t.height() <= 10

    def test_gids_roundtrip(self, rng):
        pts = rng.normal(size=(50, 2))
        gids = np.arange(100, 150)
        t = KDTree(pts, gids=gids)
        assert np.array_equal(np.sort(t.gids[t.gather_alive()]), gids)

    def test_build_under_threads(self, rng, any_backend):
        pts = rng.uniform(0, 10, size=(20000, 3))
        t = KDTree(pts)
        t.check_invariants()


class TestKNN:
    @pytest.mark.parametrize("split", [OBJECT_MEDIAN, SPATIAL_MEDIAN])
    def test_matches_scipy(self, split, rng):
        pts = rng.uniform(0, 10, size=(3000, 3))
        t = KDTree(pts, split=split)
        q = rng.uniform(0, 10, size=(100, 3))
        d, i = knn(t, q, 7)
        dd, ii = cKDTree(pts).query(q, k=7)
        assert np.allclose(np.sqrt(d), dd)

    def test_exclude_self(self, rng):
        pts = rng.normal(size=(500, 2))
        t = KDTree(pts)
        d, i = knn(t, pts, 3, exclude_self=True)
        assert not np.any(i == np.arange(500)[:, None])
        assert np.all(d > 0)

    def test_k_larger_than_n(self, rng):
        pts = rng.normal(size=(5, 2))
        t = KDTree(pts)
        d, i = knn(t, pts[:1], 10)
        assert np.isfinite(d[0, :5]).all()
        assert np.isinf(d[0, 5:]).all()
        assert np.all(i[0, 5:] == -1)

    def test_knn_single(self, rng):
        pts = rng.normal(size=(300, 2))
        t = KDTree(pts)
        buf = knn_single(t, pts[0], 4)
        d, i = buf.result()
        dd, ii = cKDTree(pts).query(pts[0], k=4)
        assert np.allclose(np.sqrt(d), dd)

    def test_rows_sorted_by_distance(self, rng):
        pts = rng.normal(size=(400, 3))
        t = KDTree(pts)
        d, _ = knn(t, pts[:20], 6)
        assert np.all(np.diff(d, axis=1) >= 0)

    def test_clustered_data(self, rng):
        pts = visual_var(2000, 2, seed=3).coords
        t = KDTree(pts)
        d, i = knn(t, pts[:50], 5)
        dd, _ = cKDTree(pts).query(pts[:50], k=5)
        assert np.allclose(np.sqrt(d), dd)


class TestKNNBuffer:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNNBuffer(0)

    def test_keeps_k_smallest(self, rng):
        buf = KNNBuffer(3)
        vals = rng.permutation(100).astype(float)
        for v in vals:
            buf.insert(v, int(v))
        d, i = buf.result()
        assert np.array_equal(d, [0, 1, 2])

    def test_bound_tightens(self):
        buf = KNNBuffer(2)
        for v in (10.0, 9.0, 1.0, 0.5):
            buf.insert(v, 0)
        assert buf.bound <= 1.0

    def test_batch_insert_equivalent(self, rng):
        vals = rng.uniform(0, 100, size=500)
        ids = np.arange(500)
        b1, b2 = KNNBuffer(7), KNNBuffer(7)
        for v, i in zip(vals, ids):
            b1.insert(float(v), int(i))
        b2.insert_batch(vals, ids)
        d1, i1 = b1.result()
        d2, i2 = b2.result()
        assert np.allclose(d1, d2)

    def test_result_partial(self):
        buf = KNNBuffer(5)
        buf.insert(3.0, 1)
        d, i = buf.result()
        assert len(d) == 1 and i[0] == 1


class TestRangeSearch:
    def test_box_matches_bruteforce(self, rng):
        pts = rng.uniform(0, 10, size=(2000, 3))
        t = KDTree(pts)
        lo, hi = np.array([2.0, 3.0, 1.0]), np.array([6.0, 7.0, 8.0])
        got = set(range_query_box(t, lo, hi).tolist())
        ref = set(np.flatnonzero(np.all((pts >= lo) & (pts <= hi), axis=1)).tolist())
        assert got == ref

    def test_ball_matches_scipy(self, rng):
        pts = rng.uniform(0, 10, size=(2000, 2))
        t = KDTree(pts)
        c = np.array([5.0, 5.0])
        got = set(range_query_ball(t, c, 2.5).tolist())
        ref = set(cKDTree(pts).query_ball_point(c, 2.5))
        assert got == ref

    def test_empty_region(self, rng):
        pts = rng.uniform(0, 1, size=(100, 2))
        t = KDTree(pts)
        assert len(range_query_box(t, [5, 5], [6, 6])) == 0
        assert len(range_query_ball(t, [50, 50], 0.5)) == 0

    def test_whole_space(self, rng):
        pts = rng.uniform(0, 1, size=(100, 2))
        t = KDTree(pts)
        assert len(range_query_box(t, [-1, -1], [2, 2])) == 100


class TestDeletion:
    def test_delete_then_queries_exclude(self, rng):
        pts = rng.uniform(0, 10, size=(1000, 2))
        t = KDTree(pts)
        assert t.erase(pts[:300]) == 300
        assert t.size() == 700
        ids = range_query_box(t, [-1, -1], [11, 11])
        assert len(ids) == 700
        assert np.all(ids >= 300)

    def test_delete_absent_points_noop(self, rng):
        pts = rng.uniform(0, 10, size=(200, 2))
        t = KDTree(pts)
        missing = rng.uniform(20, 30, size=(50, 2))
        assert t.erase(missing) == 0
        assert t.size() == 200

    def test_delete_everything(self, rng):
        pts = rng.uniform(0, 10, size=(128, 3))
        t = KDTree(pts)
        assert t.erase(pts) == 128
        assert t.size() == 0
        assert t.root == -1

    def test_delete_contracts_structure(self, rng):
        """Deleting a spatial half should remove that whole subtree."""
        pts = rng.uniform(0, 10, size=(2048, 2))
        t = KDTree(pts)
        h_before = t.height()
        left_half = pts[pts[:, 0] <= np.median(pts[:, 0])]
        t.erase(left_half)
        assert t.height() <= h_before
        d, i = knn(t, pts[:10], 2)
        live = np.flatnonzero(t.alive)
        assert set(i.ravel().tolist()) <= set(live.tolist())

    def test_knn_correct_after_delete(self, rng):
        pts = rng.uniform(0, 10, size=(1500, 3))
        t = KDTree(pts)
        t.erase(pts[500:900])
        keep = np.concatenate([np.arange(500), np.arange(900, 1500)])
        ref = cKDTree(pts[keep])
        d, i = knn(t, pts[:40], 5)
        dd, _ = ref.query(pts[:40], k=5)
        assert np.allclose(np.sqrt(d), dd)

    def test_delete_dimension_mismatch(self, rng):
        t = KDTree(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            t.erase(rng.normal(size=(3, 3)))

    def test_duplicate_rows_all_deleted(self):
        pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        t = KDTree(pts)
        assert t.erase(np.zeros((1, 2))) == 5
        assert t.size() == 5


class TestEraseMatchesReference:
    """The erase descent against the all-numpy reference kept in
    ``tests/_erase_reference.py``: same node arrays, same deleted
    points, same charges, on both sides of the list-split cutoff."""

    @staticmethod
    def _pair(pts):
        return KDTree(pts.copy()), KDTree(pts.copy())

    @staticmethod
    def _assert_same_tree(a, b):
        for name in ("left", "right", "live", "alive"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.root, a.n_alive, a.version) == (b.root, b.n_alive, b.version)

    @staticmethod
    def _on_planes(t, rng, m):
        """Rows lying exactly on internal nodes' split planes (some of
        them tree points, some absent)."""
        inner = np.flatnonzero(t.used & ~t.is_leaf)
        rows = rng.uniform(0, 10, size=(m, t.dim))
        for j, node in enumerate(rng.choice(inner, size=m)):
            rows[j, t.split_dim[node]] = t.split_val[node]
        return rows

    @pytest.mark.parametrize("m", [1, 16, 17, 40])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_node_arrays_counts_and_charges(self, m, dim, rng):
        # a coarse grid: many duplicate coordinates and split values
        pts = rng.integers(0, 12, size=(3000, dim)).astype(np.float64)
        t, ref = self._pair(pts)
        for rnd in range(6):
            present = pts[rng.choice(len(pts), size=m)]
            batches = (present, self._on_planes(t, rng, m),
                       np.vstack([present[: m // 2], self._on_planes(t, rng, m - m // 2)]))
            batch = batches[rnd % 3]
            tracker.reset()
            got = t.erase(batch)
            cost = tracker.reset()
            want = reference_erase(ref, batch)
            cref = tracker.reset()
            assert got == want, (m, rnd)
            assert cost.work == cref.work
            assert np.isclose(cost.depth, cref.depth, rtol=1e-12)
            self._assert_same_tree(t, ref)
        assert t.size() < len(pts)

    def test_signed_zero_matches_and_nan_never_does(self):
        # IEEE equality on both paths: -0.0 == 0.0, NaN != NaN
        pts = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, -0.0]] * 12)
        batch = np.array([[-0.0, 1.0], [np.nan, 2.0], [3.0, 0.0]])
        assert _match_rows(pts[:3], batch).tolist() == [True, False, True]
        assert _match_rows(pts, batch).tolist() == [True, False, True] * 12
        t, ref = self._pair(pts)
        assert t.erase(batch) == reference_erase(ref, batch) == 24
        self._assert_same_tree(t, ref)

    def test_duplicate_rows_in_small_batch(self, rng):
        pts = rng.integers(0, 4, size=(800, 2)).astype(np.float64)
        t, ref = self._pair(pts)
        batch = np.repeat(pts[:3], 4, axis=0)  # 12 rows, 3 distinct
        assert t.erase(batch) == reference_erase(ref, batch)
        self._assert_same_tree(t, ref)
