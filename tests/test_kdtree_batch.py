"""Batched (array-at-a-time) query engine vs the recursive path.

The contract of ``repro.kdtree.batch`` is *exact* equivalence: for any
tree (including ones with deleted points) and any query batch, the
batched engine returns bitwise-identical results to the per-query
recursion AND charges identical work/depth to the cost tracker — it is
a wall-clock optimization only.  These tests enforce that contract,
forcing one engine at a time with ``tests/_engines.py``; the batched
build is checked against the per-node recursion through
``tests/_build_reference.py``.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.clustering import dbscan
from repro.kdtree import (
    BatchKNNBuffers,
    KDTree,
    KNNBuffer,
    all_nearest_neighbors,
    resolve_engine,
)
from repro.kdtree.batch import WALK_BELOW
from repro.kdtree.build import shared_skeletons
from repro.kdtree.tree import _SEQ_CUTOFF, SPATIAL_MEDIAN
from repro.kdtree.knn import knn
from repro.kdtree.range_search import range_query_batch, range_query_ball_batch
from repro.parlay import tracker, use_backend

from ._build_reference import (
    assert_same_tree,
    per_tree_skeletons,
    rebuild_recursive,
    recursive_builds,
)
from ._engines import ENGINES, forced_engine


def costed(fn, *args, **kwargs):
    tracker.reset()
    out = fn(*args, **kwargs)
    cost = tracker.total()
    tracker.reset()
    return out, cost


def costed_on(engine, fn, *args, **kwargs):
    """``costed`` with every tree call forced onto ``engine``."""
    with forced_engine(engine):
        return costed(fn, *args, **kwargs)


def recursive_kdtree(points, **kwargs):
    """A KDTree built by the per-node recursion (the build oracle)."""
    with recursive_builds():
        return KDTree(points, **kwargs)


def assert_same_cost(cr, cb, label=""):
    # work values are integer-valued floats: exact under reordering
    assert cr.work == cb.work, f"{label} work {cr.work} != {cb.work}"
    # depth includes log2 terms: summed in different order across engines
    assert np.isclose(cr.depth, cb.depth, rtol=1e-9), f"{label} depth {cr.depth} != {cb.depth}"


class TestEngineSelection:
    def test_resolve_explicit(self):
        # a forced engine overrides the size rule at every batch size;
        # every equivalence test below relies on it
        for eng in ENGINES:
            with forced_engine(eng):
                for m in (0, 1, 10_000):
                    for family in ("knn", "range"):
                        assert resolve_engine(m, family) == eng

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with forced_engine("vectorized"):
                pass

    def test_knn_rejects_unknown_engine(self, rng):
        # the size rule is the only selection: no per-call override
        t = KDTree(rng.uniform(size=(32, 2)))
        with pytest.raises(TypeError):
            knn(t, rng.uniform(size=(4, 2)), 2, engine="batched")


class TestKnnEquivalence:
    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_results_and_charges_match(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1500, dim))
        qs = rng.uniform(0, 100, size=(400, dim))
        t = KDTree(pts)
        (dr, ir), cr = costed_on("recursive", knn, t, qs, 8)
        (db, ib), cb = costed_on("batched", knn, t, qs, 8)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, f"knn dim={dim}")

    @pytest.mark.parametrize("dim", [2, 5])
    def test_with_deleted_nodes(self, dim, rng):
        pts = rng.uniform(0, 100, size=(1200, dim))
        qs = rng.uniform(0, 100, size=(300, dim))
        t = KDTree(pts.copy())
        t.erase(pts[::3])  # tombstones points and kills whole subtrees
        (dr, ir), cr = costed_on("recursive", knn, t, qs, 5)
        (db, ib), cb = costed_on("batched", knn, t, qs, 5)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, f"knn deleted dim={dim}")

    def test_exclude_self(self, rng):
        pts = rng.uniform(0, 10, size=(500, 3))
        t = KDTree(pts)
        (dr, ir), cr = costed_on("recursive", knn, t, pts, 4, True)
        (db, ib), cb = costed_on("batched", knn, t, pts, 4, True)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert np.all(ib != np.arange(len(pts))[:, None])
        assert_same_cost(cr, cb, "exclude_self")

    def test_k_larger_than_n(self, rng):
        pts = rng.uniform(size=(7, 3))
        qs = rng.uniform(size=(5, 3))
        t = KDTree(pts)
        (dr, ir), cr = costed_on("recursive", knn, t, qs, 12)
        (db, ib), cb = costed_on("batched", knn, t, qs, 12)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert np.all(ib[:, 7:] == -1)
        assert_same_cost(cr, cb, "k>n")

    def test_empty_tree_and_empty_batch(self, rng):
        te = KDTree(np.empty((0, 2)))
        (dr, ir), cr = costed_on("recursive", knn, te, rng.uniform(size=(4, 2)), 2)
        (db, ib), cb = costed_on("batched", knn, te, rng.uniform(size=(4, 2)), 2)
        assert np.array_equal(dr, db) and np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "empty tree")

        t = KDTree(rng.uniform(size=(50, 2)))
        (dr, ir), cr = costed_on("recursive", knn, t, np.empty((0, 2)), 3)
        (db, ib), cb = costed_on("batched", knn, t, np.empty((0, 2)), 3)
        assert dr.shape == db.shape == (0, 3)
        assert_same_cost(cr, cb, "empty batch")

    def test_fully_deleted_tree(self, rng):
        pts = rng.uniform(size=(60, 2))
        t = KDTree(pts.copy())
        t.erase(pts)
        qs = rng.uniform(size=(10, 2))
        (dr, ir), cr = costed_on("recursive", knn, t, qs, 3)
        (db, ib), cb = costed_on("batched", knn, t, qs, 3)
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
        rr, cr = costed_on("recursive", range_query_batch, t, ctr - w, ctr + w)
        rb, cb = costed_on("batched", range_query_batch, t, ctr - w, ctr + w)
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
        rr, cr = costed_on("recursive", range_query_ball_batch, t, ctr, rad)
        rb, cb = costed_on("batched", range_query_ball_batch, t, ctr, rad)
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(cr, cb, "ball+deletes")

    def test_scalar_radius_broadcast(self, rng):
        pts = rng.uniform(0, 10, size=(400, 2))
        t = KDTree(pts)
        ctr = rng.uniform(0, 10, size=(60, 2))
        rr, cr = costed_on("recursive", range_query_ball_batch, t, ctr, 1.5)
        rb, cb = costed_on("batched", range_query_ball_batch, t, ctr, 1.5)
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
            (dr, ir), cr = costed_on("recursive", knn, t, qs, 8)
            (db, ib), cb = costed_on("batched", knn, t, qs, 8)
            assert np.array_equal(dr, db) and np.array_equal(ir, ib)
            assert_same_cost(cr, cb, f"knn n={n} dim={dim} m={m}")

            half = rng.uniform(2.5, 25, size=(m, dim))
            rr, cr = costed_on("recursive", range_query_batch, t, qs - half, qs + half)
            rb, cb = costed_on("batched", range_query_batch, t, qs - half, qs + half)
            assert all(np.array_equal(a, b) for a, b in zip(rr, rb))
            assert_same_cost(cr, cb, f"box n={n} dim={dim} m={m}")

            rad = rng.uniform(5, 40, size=m)
            rr, cr = costed_on("recursive", range_query_ball_batch, t, qs, rad)
            rb, cb = costed_on("batched", range_query_ball_batch, t, qs, rad)
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
        (dr, ir), cr = costed_on("recursive", b.knn, qs, 6)
        (db, ib), cb = costed_on("batched", b.knn, qs, 6)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "bdl knn")

    def test_bdl_knn_buffer_only(self, rng):
        """All points still staged in the buffer tree: pure brute scan."""
        pts = rng.uniform(0, 10, size=(40, 2))
        b = BDLTree(2, buffer_size=64)
        b.insert(pts)
        qs = rng.uniform(0, 10, size=(12, 2))
        (dr, ir), cr = costed_on("recursive", b.knn, qs, 3)
        (db, ib), cb = costed_on("batched", b.knn, qs, 3)
        assert np.array_equal(dr, db) and np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "bdl buffer-only")

    def test_allnn_duplicates_pair_up(self, rng):
        pts = rng.uniform(size=(30, 2))
        pts[1] = pts[0]
        bd, bi = all_nearest_neighbors(pts)
        assert bd[0] == 0.0 and bd[1] == 0.0
        assert bi[0] == 1 and bi[1] == 0

    def test_dbscan_labels_identical(self, rng):
        pts = rng.uniform(0, 10, size=(600, 2))
        lr, cr = costed_on("recursive", dbscan, pts, 0.7, 8)
        lb, cb = costed_on("batched", dbscan, pts, 0.7, 8)
        assert np.array_equal(lr, lb)
        assert_same_cost(cr, cb, "dbscan")


def _around_cutoff(family):
    """Batch sizes on both sides of a family's walk cutoff."""
    c = WALK_BELOW[family]
    return sorted({1, max(c - 1, 1), c, 64})


class TestSizeRule:
    """The size rule picks the engine; on every side of the cutoff it
    must equal both forced engines, rows and charges."""

    def test_rule_switches_at_cutoff(self):
        for family, c in WALK_BELOW.items():
            assert resolve_engine(c, family) == "batched"
            assert resolve_engine(64, family) == "batched"
            if c > 1:
                assert resolve_engine(1, family) == "recursive"
                assert resolve_engine(c - 1, family) == "recursive"

    @pytest.mark.parametrize("m", _around_cutoff("knn"))
    def test_knn_default_matches_both_engines(self, m, rng):
        pts = rng.uniform(0, 100, size=(1250, 2))
        t = KDTree(pts.copy())
        t.erase(pts[::7])
        qs = rng.uniform(0, 100, size=(m, 2))
        (dd, idd), cd = costed(knn, t, qs, 8)
        for eng in ENGINES:
            (de, ie), ce = costed_on(eng, knn, t, qs, 8)
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
            re_, ce = costed_on(eng, range_query_batch, t, ctr - half, ctr + half)
            assert all(np.array_equal(a, b) for a, b in zip(rd, re_))
            assert_same_cost(ce, cd, f"box m={m} vs {eng}")
            be, cbe = costed_on(eng, range_query_ball_batch, t, ctr, rad)
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
            (de, ie), ce = costed_on(eng, b.knn, qs, k, bound=bound)
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
# construction (repro.kdtree.build) vs the per-node recursion
# ----------------------------------------------------------------------
class TestBuildEngineSelection:
    def test_default_is_batched(self, rng, monkeypatch):
        # the split rule picks the builder: object median builds
        # level-at-a-time, spatial median by the recursion
        import repro.kdtree.tree as T

        calls = []
        real = T.build_batched
        monkeypatch.setattr(T, "build_batched", lambda t: calls.append(t) or real(t))
        t = KDTree(rng.uniform(size=(64, 2)))
        assert calls == [t]
        KDTree(rng.uniform(size=(64, 2)), split=SPATIAL_MEDIAN)
        assert calls == [t]

    def test_unknown_engine_rejected(self, rng):
        # no build override is left to misspell
        with pytest.raises(TypeError):
            KDTree(rng.uniform(size=(16, 2)), engine="recursive")
        with pytest.raises(TypeError):
            BDLTree(2, build_engine="recursive")

    def test_spatial_median_always_valid(self, rng):
        # spatial-median structure is data-dependent: the recursion is
        # its only builder, so a rebuild reproduces the tree exactly
        pts = rng.uniform(0, 10, size=(300, 3))
        tb = KDTree(pts, split=SPATIAL_MEDIAN)
        tr = rebuild_recursive(KDTree(pts, split=SPATIAL_MEDIAN))
        assert_same_tree(tr, tb, "spatial")
        tb.check_invariants()


class TestBuildEngineEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    def test_node_arrays_and_charges_match(self, dim, leaf_size, rng):
        for n in (1, 2, 3, 17, 100, 1000):
            pts = rng.uniform(0, 100, size=(n, dim))
            tr, cr = costed(recursive_kdtree, pts, leaf_size=leaf_size)
            tb, cb = costed(KDTree, pts, leaf_size=leaf_size)
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
        tr, cr = costed(recursive_kdtree, pts)
        tb, cb = costed(KDTree, pts)
        assert_same_tree(tr, tb, "n=6000")
        assert cr.work == cb.work and cr.depth == cb.depth

    def test_duplicate_heavy_coordinates(self, rng):
        # argpartition tie-breaking must match the 1-D per-node call
        pts = rng.integers(0, 4, size=(2000, 2)).astype(np.float64)
        tr = recursive_kdtree(pts)
        tb = KDTree(pts)
        assert_same_tree(tr, tb, "duplicates")

    def test_custom_gids_preserved(self, rng):
        pts = rng.uniform(size=(200, 3))
        gids = rng.permutation(10_000)[:200].astype(np.int64)
        tr = recursive_kdtree(pts, gids=gids.copy())
        tb = KDTree(pts, gids=gids.copy())
        assert_same_tree(tr, tb, "gids")

    def test_queries_identical_after_build(self, rng):
        pts = rng.uniform(0, 10, size=(1500, 3))
        qs = rng.uniform(0, 10, size=(200, 3))
        tr = recursive_kdtree(pts)
        tb = KDTree(pts)
        for qengine in ENGINES:
            with forced_engine(qengine):
                d1, i1 = tr.knn(qs, 5)
                d2, i2 = tb.knn(qs, 5)
            assert np.array_equal(d1, d2) and np.array_equal(i1, i2)

    def test_erase_then_equal(self, rng):
        pts = rng.uniform(0, 10, size=(800, 2))
        tr = recursive_kdtree(pts.copy())
        tb = KDTree(pts.copy())
        assert tr.erase(pts[::3]) == tb.erase(pts[::3])
        assert np.array_equal(tr.alive, tb.alive)
        assert np.array_equal(tr.live, tb.live)

    def test_bdl_rebuilds_through_engine(self, rng):
        # every unit conversion / under-half reinsert rebuild goes
        # through the batched build and lands on the recursion's trees
        pts = rng.uniform(0, 10, size=(1500, 3))
        trees = {}
        costs = {}
        for eng in ("recursive", "batched"):
            tracker.reset()
            with recursive_builds() if eng == "recursive" else nullcontext():
                b = BDLTree(3, buffer_size=128)
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



# ----------------------------------------------------------------------
# skeletons shared within one construction (repro.kdtree.build)
# ----------------------------------------------------------------------
@pytest.fixture
def skeleton_calls(monkeypatch):
    """The ``(n, leaf_size, d)`` of every skeleton computed."""
    import repro.kdtree.build as B

    calls = []
    real = B.skeleton
    monkeypatch.setattr(B, "skeleton", lambda *key: calls.append(key) or real(*key))
    return calls


@pytest.fixture
def built_keys(monkeypatch):
    """The ``(n, leaf_size, d)`` of every object-median tree built."""
    import repro.kdtree.tree as T

    keys = []
    real = T.build_batched

    def build(t):
        keys.append((t.n_points, t.leaf_size, t.dim))
        real(t)

    monkeypatch.setattr(T, "build_batched", build)
    return keys


def _sharded_outcome(pts, n_shards, ctx):
    """A ShardedIndex built inside ``ctx``, with the build's charge."""
    tracker.reset()
    with ctx:
        idx = ShardedIndex(pts, n_shards)
    return idx, tracker.reset()


def _assert_same_shards(a, b, label):
    assert a.shard_sizes() == b.shard_sizes(), label
    for sa, sb in zip(a.shards, b.shards):
        assert sa.tree.bitmask == sb.tree.bitmask, label
        for ta, tb in zip(sa.tree.trees, sb.tree.trees):
            assert (ta is None) == (tb is None), label
            if ta is not None:
                assert_same_tree(ta, tb, label)


class TestSharedSkeletons:
    @pytest.mark.parametrize("dim", [2, 3, 7])
    @pytest.mark.parametrize("leaf_size", [1, 8, 16])
    def test_second_tree_reuses_skeleton(self, dim, leaf_size, rng, skeleton_calls):
        for n in (1, 2, leaf_size, leaf_size + 1, 1248, 1250, _SEQ_CUTOFF + 4):
            pts = rng.uniform(0, 100, size=(n, dim))
            tr, cr = costed(recursive_kdtree, pts, leaf_size=leaf_size)
            skeleton_calls.clear()
            with shared_skeletons():
                KDTree(rng.uniform(0, 100, size=(n, dim)), leaf_size=leaf_size)
                tb, cb = costed(KDTree, pts, leaf_size=leaf_size)
            label = f"shared skeleton n={n} d={dim} ls={leaf_size}"
            assert skeleton_calls == [(n, leaf_size, dim)], label
            assert_same_tree(tr, tb, label)
            assert cr.work == cb.work and cr.depth == cb.depth, label
            tb.check_invariants()

    @pytest.mark.parametrize("kind", ["uniform", "duplicates"])
    def test_sharded_build_one_skeleton_per_size(self, kind, rng, skeleton_calls,
                                                 built_keys):
        if kind == "uniform":
            pts = rng.uniform(0, 100, size=(4000, 2))
        else:
            # heavy duplicate runs stay in one shard: shard sizes differ
            pts = rng.integers(0, 7, size=(4000, 2)).astype(np.float64)
        got, cost = _sharded_outcome(pts, 8, nullcontext())
        distinct = set(built_keys)
        assert sorted(skeleton_calls) == sorted(distinct)
        if kind == "uniform":
            assert len(distinct) == 1 and len(built_keys) == 8
        else:
            assert len(distinct) > 1
        n_trees = len(built_keys)
        skeleton_calls.clear()
        alone, cost_alone = _sharded_outcome(pts, 8, per_tree_skeletons())
        assert len(skeleton_calls) == n_trees
        ref, cost_ref = _sharded_outcome(pts, 8, recursive_builds())
        _assert_same_shards(ref, got, kind)
        _assert_same_shards(alone, got, kind)
        # bitwise equal to per-tree skeletons; the recursion's depth sums
        # the same terms in another order
        assert (cost.work, cost.depth) == (cost_alone.work, cost_alone.depth)
        assert cost.work == cost_ref.work
        assert np.isclose(cost.depth, cost_ref.depth, rtol=1e-9)

    def test_nothing_survives_a_construction(self, rng, skeleton_calls):

        pts = rng.uniform(0, 100, size=(4000, 2))
        ShardedIndex(pts, 8)
        ShardedIndex(pts, 8)
        assert skeleton_calls == [(500, 16, 2)] * 2
        with shared_skeletons():
            KDTree(pts[:500])
        KDTree(pts[:500])
        assert len(skeleton_calls) == 4

    def test_threads_backend_equal(self, rng):
        # pool workers cannot see the constructing thread's skeletons:
        # each computes its own, with the same result
        pts = rng.uniform(0, 100, size=(4000, 3))
        ref, cost_ref = _sharded_outcome(pts, 8, recursive_builds())
        alone, cost_alone = _sharded_outcome(pts, 8, per_tree_skeletons())
        with use_backend("threads", 2):
            got, cost = _sharded_outcome(pts, 8, nullcontext())
        _assert_same_shards(ref, got, "threads")
        assert (cost.work, cost.depth) == (cost_alone.work, cost_alone.depth)
        assert cost.work == cost_ref.work
        assert np.isclose(cost.depth, cost_ref.depth, rtol=1e-9)

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

        (dr, ir), cr = costed_on("recursive", knn, t, qs, k)
        (db, ib), cb = costed_on("batched", knn, t, qs, k)
        assert np.array_equal(dr, db)
        assert np.array_equal(ir, ib)
        assert_same_cost(cr, cb, "prop knn")

        lo = np.minimum(qs[: len(qs) // 2 + 1], pts.min(axis=0))
        hi = lo + np.abs(data.draw(_points(dim, 1, 1))[0])
        rr, crr = costed_on("recursive", range_query_batch, t, lo, np.maximum(lo, hi))
        rb, crb = costed_on("batched", range_query_batch, t, lo, np.maximum(lo, hi))
        for a, b in zip(rr, rb):
            assert np.array_equal(a, b)
        assert_same_cost(crr, crb, "prop range")

    @given(data=st.data(), dim=st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_build_engine_equivalence(self, data, dim):
        pts = data.draw(_points(dim, 1, 120))
        leaf_size = data.draw(st.integers(1, 8))
        tr, cr = costed(recursive_kdtree, pts.copy(), leaf_size=leaf_size)
        tb, cb = costed(KDTree, pts.copy(), leaf_size=leaf_size)
        assert_same_tree(tr, tb, "prop build")
        assert cr.work == cb.work and cr.depth == cb.depth
