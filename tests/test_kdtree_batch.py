"""Batched (array-at-a-time) query engine vs the recursive path.

The contract of ``repro.kdtree.batch`` is *exact* equivalence: for any
tree (including ones with deleted points) and any query batch, the
batched engine returns bitwise-identical results to the per-query
recursion AND charges identical work/depth to the cost tracker — it is
a wall-clock optimization only.  These tests enforce that contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bdl import BDLTree
from repro.clustering import dbscan
from repro.kdtree import (
    BUILD_ENGINES,
    BatchKNNBuffers,
    KDTree,
    KNNBuffer,
    all_nearest_neighbors,
    default_build_engine,
    resolve_build_engine,
    resolve_engine,
    set_default_build_engine,
)
from repro.kdtree.batch import ENGINES, WALK_BELOW
from repro.kdtree.tree import SPATIAL_MEDIAN
from repro.kdtree.knn import knn
from repro.kdtree.range_search import range_query_batch, range_query_ball_batch
from repro.parlay import tracker


def costed(fn, *args, **kwargs):
    tracker.reset()
    out = fn(*args, **kwargs)
    cost = tracker.total()
    tracker.reset()
    return out, cost


def assert_same_cost(cr, cb, label=""):
    # work values are integer-valued floats: exact under reordering
    assert cr.work == cb.work, f"{label} work {cr.work} != {cb.work}"
    # depth includes log2 terms: summed in different order across engines
    assert np.isclose(cr.depth, cb.depth, rtol=1e-9), f"{label} depth {cr.depth} != {cb.depth}"


class TestEngineSelection:
    def test_resolve_explicit(self):
        for m in (0, 1, 10_000):
            for family in ("knn", "range"):
                assert resolve_engine("recursive", m, family) == "recursive"
                assert resolve_engine("batched", m, family) == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("vectorized", 1, "knn")

    def test_knn_rejects_unknown_engine(self, rng):
        t = KDTree(rng.uniform(size=(32, 2)))
        with pytest.raises(ValueError):
            knn(t, rng.uniform(size=(4, 2)), 2, engine="nope")


class TestKnnEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_results_and_charges_match(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1500, dim))
        qs = rng.uniform(0, 100, size=(400, dim))
        t = KDTree(pts)
        (dr, ir), cr = costed(knn, t, qs, 8, engine="recursive")
        (db, ib), cb = costed(knn, t, qs, 8, engine="batched")
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, f"knn dim={dim}")

    @pytest.mark.parametrize("dim", [2, 5])
    def test_with_deleted_nodes(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1200, dim))
        qs = rng.uniform(0, 100, size=(300, dim))
        t = KDTree(pts.copy())
        t.erase(pts[::3])  # tombstones points and kills whole subtrees
        (dr, ir), cr = costed(knn, t, qs, 5, engine="recursive")
        (db, ib), cb = costed(knn, t, qs, 5, engine="batched")
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, f"knn deleted dim={dim}")

    def test_exclude_self(self, rng):
        pts = rng.uniform(0, 10, size=(500, 3))
        t = KDTree(pts)
        (dr, ir), cr = costed(knn, t, pts, 4, True, engine="recursive")
        (db, ib), cb = costed(knn, t, pts, 4, True, engine="batched")
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert np.all(ib != np.arange(len(pts))[:, None])
        assert_same_cost(cr, cb, "exclude_self")

    def test_k_larger_than_n(self, rng):
        pts = rng.uniform(size=(7, 3))
        qs = rng.uniform(size=(5, 3))
        t = KDTree(pts)
        (dr, ir), cr = costed(knn, t, qs, 12, engine="recursive")
        (db, ib), cb = costed(knn, t, qs, 12, engine="batched")
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert np.all(ib[:, 7:] == -1)
        assert_same_cost(cr, cb, "k>n")

    def test_empty_tree_and_empty_batch(self, rng):
        te = KDTree(np.empty((0, 2)))
        (dr, ir), cr = costed(knn, te, rng.uniform(size=(4, 2)), 2, engine="recursive")
        (db, ib), cb = costed(knn, te, rng.uniform(size=(4, 2)), 2, engine="batched")
        assert np.array_equal(dr, db) and np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "empty tree")

        t = KDTree(rng.uniform(size=(50, 2)))
        (dr, ir), cr = costed(knn, t, np.empty((0, 2)), 3, engine="recursive")
        (db, ib), cb = costed(knn, t, np.empty((0, 2)), 3, engine="batched")
        assert dr.shape == db.shape == (0, 3)
        assert_same_cost(cr, cb, "empty batch")

    def test_fully_deleted_tree(self, rng):
        pts = rng.uniform(size=(60, 2))
        t = KDTree(pts.copy())
        t.erase(pts)
        qs = rng.uniform(size=(10, 2))
        (dr, ir), cr = costed(knn, t, qs, 3, engine="recursive")
        (db, ib), cb = costed(knn, t, qs, 3, engine="batched")
        assert np.all(ib == -1)
        assert np.array_equal(ir, ib) and np.array_equal(dr, db)
        assert_same_cost(cr, cb, "dead tree")


class TestRangeEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_box_batch(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1500, dim))
        t = KDTree(pts)
        ctr = rng.uniform(0, 100, size=(200, dim))
        w = rng.uniform(1, 25, size=(200, dim))
        rr, cr = costed(range_query_batch, t, ctr - w, ctr + w, engine="recursive")
        rb, cb = costed(range_query_batch, t, ctr - w, ctr + w, engine="batched")
        assert len(rr) == len(rb)
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype
        assert_same_cost(cr, cb, f"box dim={dim}")

    def test_ball_batch_per_query_radii_with_deletes(self, rng):
        pts = rng.uniform(0, 100, size=(1200, 3))
        t = KDTree(pts.copy())
        t.erase(pts[100:500])
        ctr = rng.uniform(0, 100, size=(150, 3))
        rad = rng.uniform(2, 20, size=150)
        rr, cr = costed(range_query_ball_batch, t, ctr, rad, engine="recursive")
        rb, cb = costed(range_query_ball_batch, t, ctr, rad, engine="batched")
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(cr, cb, "ball+deletes")

    def test_scalar_radius_broadcast(self, rng):
        pts = rng.uniform(0, 10, size=(400, 2))
        t = KDTree(pts)
        ctr = rng.uniform(0, 10, size=(60, 2))
        rr, cr = costed(range_query_ball_batch, t, ctr, 1.5, engine="recursive")
        rb, cb = costed(range_query_ball_batch, t, ctr, 1.5, engine="batched")
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(cr, cb, "scalar radius")


class TestMultiChunkWalks:
    """Walk vs lock-step on trees spanning many node-geometry chunks.

    The walks test node boxes a chunk of 256 vEB slots at a time; the
    1,500-point trees above fit one chunk.  These have 4,095 and 8,191
    slots, a fifth of the points erased, and queries both off and on
    tree points (distance ties)."""

    @pytest.mark.parametrize("n", [20_000, 60_000])
    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_rows_and_charges_match(self, n, dim):
        rng = np.random.default_rng(n + dim)
        pts = rng.uniform(0, 100, size=(n, dim))
        t = KDTree(pts.copy())
        assert len(t.left) in (4095, 8191)
        t.erase(pts[rng.choice(n, n // 5, replace=False)])
        for m in (1, 3):
            qs = rng.uniform(0, 100, size=(m, dim))
            qs[0] = pts[rng.integers(n)]
            (dr, ir), cr = costed(knn, t, qs, 8, engine="recursive")
            (db, ib), cb = costed(knn, t, qs, 8, engine="batched")
            assert np.array_equal(dr, db) and np.array_equal(ir, ib)
            assert_same_cost(cr, cb, f"knn n={n} dim={dim} m={m}")

            half = rng.uniform(2.5, 25, size=(m, dim))
            rr, cr = costed(range_query_batch, t, qs - half, qs + half, engine="recursive")
            rb, cb = costed(range_query_batch, t, qs - half, qs + half, engine="batched")
            assert all(np.array_equal(a, b) for a, b in zip(rr, rb))
            assert_same_cost(cr, cb, f"box n={n} dim={dim} m={m}")

            rad = rng.uniform(5, 40, size=m)
            rr, cr = costed(range_query_ball_batch, t, qs, rad, engine="recursive")
            rb, cb = costed(range_query_ball_batch, t, qs, rad, engine="batched")
            assert all(np.array_equal(a, b) for a, b in zip(rr, rb))
            assert_same_cost(cr, cb, f"ball n={n} dim={dim} m={m}")


class TestConsumers:
    def test_bdl_knn(self, rng):
        pts = rng.uniform(0, 10, size=(2000, 3))
        b = BDLTree(3, buffer_size=128)
        for i in range(0, 2000, 400):
            b.insert(pts[i : i + 400])
        b.erase(pts[50:250])
        qs = rng.uniform(0, 10, size=(300, 3))
        (dr, ir), cr = costed(b.knn, qs, 6, engine="recursive")
        (db, ib), cb = costed(b.knn, qs, 6, engine="batched")
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "bdl knn")

    def test_bdl_knn_buffer_only(self, rng):
        """All points still staged in the buffer tree: pure brute scan."""
        pts = rng.uniform(0, 10, size=(40, 2))
        b = BDLTree(2, buffer_size=64)
        b.insert(pts)
        qs = rng.uniform(0, 10, size=(12, 2))
        (dr, ir), cr = costed(b.knn, qs, 3, engine="recursive")
        (db, ib), cb = costed(b.knn, qs, 3, engine="batched")
        assert np.array_equal(dr, db) and np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "bdl buffer-only")

    def test_allnn_matches_dual_tree(self, rng):
        for n, d in ((200, 2), (300, 3), (128, 5)):
            pts = rng.uniform(0, 10, size=(n, d))
            dd, di = all_nearest_neighbors(pts, engine="recursive")
            bd, bi = all_nearest_neighbors(pts, engine="batched")
            assert np.allclose(dd, bd)
            assert np.all(bi != np.arange(n))
            # ids match wherever the nearest neighbor is unique
            uniq = ~np.isclose(bd, 0)
            assert np.array_equal(di[uniq], bi[uniq]) or np.allclose(dd, bd)

    def test_allnn_duplicates_pair_up(self, rng):
        pts = rng.uniform(size=(30, 2))
        pts[1] = pts[0]
        bd, bi = all_nearest_neighbors(pts, engine="batched")
        assert bd[0] == 0.0 and bd[1] == 0.0
        assert bi[0] == 1 and bi[1] == 0

    def test_dbscan_labels_identical(self, rng):
        pts = rng.uniform(0, 10, size=(600, 2))
        lr, cr = costed(dbscan, pts, 0.7, 8, engine="recursive")
        lb, cb = costed(dbscan, pts, 0.7, 8, engine="batched")
        assert np.array_equal(lr, lb)
        assert_same_cost(cr, cb, "dbscan")


def _around_cutoff(family):
    """Batch sizes on both sides of a family's walk cutoff."""
    c = WALK_BELOW[family]
    return sorted({1, max(c - 1, 1), c, 64})


class TestSizeRule:
    """``engine=None`` picks by batch size; on every side of the
    cutoff it must equal both explicit engines, rows and charges."""

    def test_rule_switches_at_cutoff(self):
        for family, c in WALK_BELOW.items():
            assert resolve_engine(None, c, family) == "batched"
            assert resolve_engine(None, 64, family) == "batched"
            if c > 1:
                assert resolve_engine(None, 1, family) == "recursive"
                assert resolve_engine(None, c - 1, family) == "recursive"

    @pytest.mark.parametrize("m", _around_cutoff("knn"))
    def test_knn_default_matches_both_engines(self, m, rng):
        pts = rng.uniform(0, 100, size=(1250, 2))
        t = KDTree(pts.copy())
        t.erase(pts[::7])
        qs = rng.uniform(0, 100, size=(m, 2))
        (dd, idd), cd = costed(knn, t, qs, 8)
        for eng in ENGINES:
            (de, ie), ce = costed(knn, t, qs, 8, engine=eng)
            assert np.array_equal(dd, de) and np.array_equal(idd, ie)
            assert_same_cost(ce, cd, f"knn m={m} vs {eng}")

    @pytest.mark.parametrize("m", _around_cutoff("range"))
    def test_range_default_matches_both_engines(self, m, rng):
        pts = rng.uniform(0, 100, size=(1250, 2))
        t = KDTree(pts.copy())
        t.erase(pts[::7])
        ctr = rng.uniform(0, 100, size=(m, 2))
        half = rng.uniform(1, 6, size=(m, 2))
        rad = rng.uniform(1, 8, size=m)
        rd, cd = costed(range_query_batch, t, ctr - half, ctr + half)
        bd, cbd = costed(range_query_ball_batch, t, ctr, rad)
        for eng in ENGINES:
            re_, ce = costed(range_query_batch, t, ctr - half, ctr + half, engine=eng)
            assert all(np.array_equal(a, b) for a, b in zip(rd, re_))
            assert_same_cost(ce, cd, f"box m={m} vs {eng}")
            be, cbe = costed(range_query_ball_batch, t, ctr, rad, engine=eng)
            assert all(np.array_equal(a, b) for a, b in zip(bd, be))
            assert_same_cost(cbe, cbd, f"ball m={m} vs {eng}")

    @pytest.mark.parametrize("m", _around_cutoff("knn"))
    def test_bdl_seeded_bound_rows(self, m, rng):
        # several static trees plus a buffer, with tombstones
        pts = rng.uniform(0, 100, size=(1250, 2))
        b = BDLTree(2, buffer_size=64)
        for chunk in np.array_split(pts, 5):
            b.insert(chunk)
        b.erase(pts[::9])
        live, gids = b.gather_points()
        k = 8
        qs = rng.uniform(0, 100, size=(m, 2))
        diff = live[None, :, :] - qs[:, None, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        kth = np.sort(d2, axis=1)[:, k - 1]
        # unseeded, underfull (bound inside the k-ball) and full rows
        bound = np.choose(np.arange(m) % 3, [np.full(m, np.inf), kth * 0.5,
                                             np.nextafter(kth, np.inf)])
        (dd, idd), cd = costed(b.knn, qs, k, bound=bound)
        for eng in ENGINES:
            (de, ie), ce = costed(b.knn, qs, k, engine=eng, bound=bound)
            assert np.array_equal(dd, de) and np.array_equal(idd, ie)
            assert_same_cost(ce, cd, f"bdl bound m={m} vs {eng}")
        # brute-force oracle: the k nearest strictly inside each bound
        for i in range(m):
            keep = np.flatnonzero(d2[i] < bound[i])
            order = keep[np.argsort(d2[i, keep], kind="stable")][:k]
            assert np.array_equal(dd[i, : len(order)], d2[i, order])
            assert np.array_equal(idd[i, : len(order)], gids[order])
            assert np.all(idd[i, len(order):] == -1)


class TestBatchBuffers:
    def test_matches_scalar_buffer_sequence(self, rng):
        """Feeding the same candidate blocks produces the same state."""
        k = 4
        scalar = KNNBuffer(k)
        batch = BatchKNNBuffers(1, k)
        row = np.array([0], dtype=np.int64)
        for _ in range(6):
            m = int(rng.integers(1, 11))
            d = rng.uniform(0, 100, size=m)
            g = rng.integers(0, 1000, size=m).astype(np.int64)
            scalar.insert_batch(d, g)
            batch.insert_grouped(row, d, g, np.array([m], dtype=np.int64))
            assert scalar.count == batch.count[0]
            assert scalar.bound == batch.bound[0]
            assert np.array_equal(
                scalar.dists[: scalar.count], batch.dists[0, : batch.count[0]]
            )
            assert np.array_equal(
                scalar.ids[: scalar.count], batch.ids[0, : batch.count[0]]
            )

    def test_extract_matches_scalar_result(self, rng):
        k = 3
        scalar = KNNBuffer(k)
        batch = BatchKNNBuffers(1, k)
        d = rng.uniform(0, 10, size=9)
        g = np.arange(9, dtype=np.int64)
        scalar.insert_batch(d, g)
        batch.insert_grouped(
            np.array([0], dtype=np.int64), d, g, np.array([9], dtype=np.int64)
        )
        ds, is_ = scalar.result()
        db, ib = batch.extract(k, exclude_self=False)
        assert np.array_equal(ds, db[0, : len(ds)])
        assert np.array_equal(is_, ib[0, : len(is_)])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            BatchKNNBuffers(4, 0)


# ----------------------------------------------------------------------
# construction engines (repro.kdtree.build)
# ----------------------------------------------------------------------
_TREE_FIELDS = (
    "used", "is_leaf", "split_dim", "split_val", "left", "right",
    "start", "end", "live", "perm", "box_lo", "box_hi", "gids",
)


def assert_same_tree(tr, tb, label=""):
    for f in _TREE_FIELDS:
        a, b = getattr(tr, f), getattr(tb, f)
        assert np.array_equal(a, b), f"{label} field {f} differs"
    assert tr.levels == tb.levels


class TestBuildEngineSelection:
    def test_default_is_batched(self):
        assert default_build_engine() == "batched"
        assert resolve_build_engine(None) == "batched"
        assert BUILD_ENGINES == ("batched", "recursive")

    def test_resolve_explicit(self):
        assert resolve_build_engine("recursive") == "recursive"
        assert resolve_build_engine("batched") == "batched"

    def test_bad_env_default_rejected(self):
        import repro.kdtree.build as B

        old = B._default_build_engine
        B._default_build_engine = "warp"
        try:
            with pytest.raises(ValueError, match="REPRO_BUILD_ENGINE"):
                resolve_build_engine(None)
        finally:
            B._default_build_engine = old

    def test_unknown_engine_rejected(self, rng):
        with pytest.raises(ValueError):
            resolve_build_engine("vectorized")
        with pytest.raises(ValueError):
            set_default_build_engine("gpu")
        with pytest.raises(ValueError):
            KDTree(rng.uniform(size=(16, 2)), engine="nope")

    def test_set_default_round_trip(self, rng):
        set_default_build_engine("recursive")
        try:
            assert resolve_build_engine(None) == "recursive"
            assert KDTree(rng.uniform(size=(8, 2))).build_engine == "recursive"
        finally:
            set_default_build_engine("batched")

    def test_spatial_median_always_valid(self, rng):
        # spatial-median structure is data-dependent; both engine names
        # accept it (batched falls back to the recursive path) and the
        # resulting trees are identical
        pts = rng.uniform(0, 10, size=(300, 3))
        tb = KDTree(pts, split=SPATIAL_MEDIAN, engine="batched")
        tr = KDTree(pts, split=SPATIAL_MEDIAN, engine="recursive")
        assert_same_tree(tr, tb, "spatial")
        tb.check_invariants()


class TestBuildEngineEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    def test_node_arrays_and_charges_match(self, dim, leaf_size, rng):
        for n in (1, 2, 3, 17, 100, 1000):
            pts = rng.uniform(0, 100, size=(n, dim))
            tr, cr = costed(KDTree, pts, leaf_size=leaf_size, engine="recursive")
            tb, cb = costed(KDTree, pts, leaf_size=leaf_size, engine="batched")
            label = f"build n={n} d={dim} ls={leaf_size}"
            assert_same_tree(tr, tb, label)
            # the batched engine replays the recursion's accounting in
            # the same order with the same float arithmetic: exact
            assert cr.work == cb.work, label
            assert cr.depth == cb.depth, label
            tb.check_invariants()

    def test_above_parallel_cutoff(self, rng):
        # n > _SEQ_CUTOFF exercises the parallel_do cost composition
        pts = rng.uniform(0, 100, size=(6000, 2))
        tr, cr = costed(KDTree, pts, engine="recursive")
        tb, cb = costed(KDTree, pts, engine="batched")
        assert_same_tree(tr, tb, "n=6000")
        assert cr.work == cb.work and cr.depth == cb.depth

    def test_duplicate_heavy_coordinates(self, rng):
        # argpartition tie-breaking must match the 1-D per-node call
        pts = rng.integers(0, 4, size=(2000, 2)).astype(np.float64)
        tr = KDTree(pts, engine="recursive")
        tb = KDTree(pts, engine="batched")
        assert_same_tree(tr, tb, "duplicates")

    def test_custom_gids_preserved(self, rng):
        pts = rng.uniform(size=(200, 3))
        gids = rng.permutation(10_000)[:200].astype(np.int64)
        tr = KDTree(pts, gids=gids.copy(), engine="recursive")
        tb = KDTree(pts, gids=gids.copy(), engine="batched")
        assert_same_tree(tr, tb, "gids")

    def test_queries_identical_after_build(self, rng):
        pts = rng.uniform(0, 10, size=(1500, 3))
        qs = rng.uniform(0, 10, size=(200, 3))
        tr = KDTree(pts, engine="recursive")
        tb = KDTree(pts, engine="batched")
        for qengine in ("recursive", "batched"):
            d1, i1 = tr.knn(qs, 5, engine=qengine)
            d2, i2 = tb.knn(qs, 5, engine=qengine)
            assert np.array_equal(d1, d2) and np.array_equal(i1, i2)

    def test_erase_then_equal(self, rng):
        pts = rng.uniform(0, 10, size=(800, 2))
        tr = KDTree(pts.copy(), engine="recursive")
        tb = KDTree(pts.copy(), engine="batched")
        assert tr.erase(pts[::3]) == tb.erase(pts[::3])
        assert np.array_equal(tr.alive, tb.alive)
        assert np.array_equal(tr.live, tb.live)

    def test_bdl_rebuilds_through_engine(self, rng):
        # every unit conversion / under-half reinsert rebuild goes
        # through the configured engine and lands on identical trees
        pts = rng.uniform(0, 10, size=(1500, 3))
        trees = {}
        costs = {}
        for eng in BUILD_ENGINES:
            tracker.reset()
            b = BDLTree(3, buffer_size=128, build_engine=eng)
            for i in range(0, 1500, 300):
                b.insert(pts[i : i + 300])
            b.erase(pts[50:400])
            b.insert(pts[50:200])
            costs[eng] = tracker.reset()
            trees[eng] = b
        br, bb = trees["recursive"], trees["batched"]
        assert br.bitmask == bb.bitmask
        for tr, tb in zip(br.trees, bb.trees):
            assert (tr is None) == (tb is None)
            if tr is not None:
                assert_same_tree(tr, tb, "bdl static tree")
        assert costs["recursive"].work == costs["batched"].work
        assert np.isclose(
            costs["recursive"].depth, costs["batched"].depth, rtol=1e-9
        )
        qs = rng.uniform(0, 10, size=(100, 3))
        d1, g1 = br.knn(qs, 4)
        d2, g2 = bb.knn(qs, 4)
        assert np.array_equal(d1, d2) and np.array_equal(g1, g2)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def _points(d, min_n, max_n):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(d)),
        elements=finite,
    )


class TestEngineProperties:
    @given(data=st.data(), dim=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_knn_and_range_equivalence(self, data, dim):
        pts = data.draw(_points(dim, 8, 80))
        qs = data.draw(_points(dim, 1, 20))
        k = data.draw(st.integers(1, 6))
        delete = data.draw(st.booleans())
        t = KDTree(pts.copy())
        if delete and len(pts) > 10:
            t.erase(pts[:: max(2, len(pts) // 5)])

        (dr, ir), cr = costed(knn, t, qs, k, engine="recursive")
        (db, ib), cb = costed(knn, t, qs, k, engine="batched")
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "prop knn")

        lo = np.minimum(qs[: len(qs) // 2 + 1], pts.min(axis=0))
        hi = lo + np.abs(data.draw(_points(dim, 1, 1))[0])
        rr, crr = costed(range_query_batch, t, lo, np.maximum(lo, hi), engine="recursive")
        rb, crb = costed(range_query_batch, t, lo, np.maximum(lo, hi), engine="batched")
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(crr, crb, "prop range")

    @given(data=st.data(), dim=st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_build_engine_equivalence(self, data, dim):
        pts = data.draw(_points(dim, 1, 120))
        leaf_size = data.draw(st.integers(1, 8))
        tr, cr = costed(KDTree, pts.copy(), leaf_size=leaf_size, engine="recursive")
        tb, cb = costed(KDTree, pts.copy(), leaf_size=leaf_size, engine="batched")
        assert_same_tree(tr, tb, "prop build")
        assert cr.work == cb.work and cr.depth == cb.depth
