"""Tests for ``repro.cluster``: partitioner, shard, router, ShardedIndex.

The headline property: a ShardedIndex is *observationally identical* to
a monolithic KDTree over the same live points — same ids, same squared
distances, same tie-breaking — for any shard count, before and after
batch mutations and rebalancing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.cluster import (
    HilbertPartitioner,
    Shard,
    ShardedIndex,
    bbox_mindist2,
    merge_knn,
    plan_ball,
    plan_box,
)
from repro.kdtree import KDTree
from repro.kdtree.batch import batched_range_query_ball_batch

from ._engines import forced_engine
from ._hilbert_reference import (
    reference_hilbert_codes,
    reference_owners,
    reference_thresholds,
)

SHARD_COUNTS = (1, 2, 7, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_thresholds_sorted_and_route_in_range(self, rng):
        pts = rng.uniform(-3, 3, (1000, 2))
        p = HilbertPartitioner(pts, 8)
        assert len(p.thresholds) == 7
        assert np.all(np.diff(p.thresholds.astype(np.int64)) >= 0)
        owner = p.route(pts)
        assert owner.min() >= 0 and owner.max() < 8

    def test_balanced_on_uniform_data(self, rng):
        pts = rng.uniform(0, 1, (4000, 2))
        p = HilbertPartitioner(pts, 8)
        counts = np.bincount(p.route(pts), minlength=8)
        assert counts.max() <= 2 * counts.min() + 64

    def test_duplicates_never_straddle(self, rng):
        base = rng.uniform(0, 1, (40, 2))
        pts = np.repeat(base, 25, axis=0)  # 1000 points, 40 distinct
        p = HilbertPartitioner(pts, 8)
        owner = p.route(pts)
        for i in range(len(base)):
            assert len(set(owner[i * 25 : (i + 1) * 25].tolist())) == 1

    def test_routing_is_stable(self, rng):
        pts = rng.normal(size=(500, 3))
        p = HilbertPartitioner(pts, 4)
        assert np.array_equal(p.route(pts), p.route(pts))
        # out-of-bounds points clamp to the frozen box, still routable
        far = pts * 100
        owner = p.route(far)
        assert owner.min() >= 0 and owner.max() < 4

    def test_split_value_divides_and_rejects_single_code(self, rng):
        pts = rng.uniform(0, 1, (300, 2))
        p = HilbertPartitioner(pts, 2)
        v = p.split_value(pts)
        assert v is not None
        codes = p.codes(pts)
        assert 0 < int((codes <= v).sum()) < len(pts)
        # all-equal coordinates -> one Hilbert code -> unsplittable
        same = np.tile(pts[:1], (50, 1))
        assert p.split_value(same) is None

    def test_insert_threshold_keeps_order(self, rng):
        pts = rng.uniform(0, 1, (300, 2))
        p = HilbertPartitioner(pts, 4)
        v = p.split_value(pts)
        p.insert_threshold(v, 1)
        assert len(p.thresholds) == 4
        assert np.all(np.diff(p.thresholds.astype(np.int64)) >= 0)
        assert p.n_shards == 5


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------
class TestShard:
    def test_empty_shard_has_sentinel_box(self):
        s = Shard(2)
        assert np.all(np.isinf(s.lo)) and np.all(np.isinf(s.hi))
        assert s.lo[0] > s.hi[0]  # fails every intersection test
        assert s.size() == 0

    def test_bbox_grows_on_insert_conservative_on_erase(self, rng):
        pts = rng.uniform(0, 1, (100, 2))
        s = Shard(2, pts, np.arange(100))
        assert np.allclose(s.lo, pts.min(axis=0))
        assert np.allclose(s.hi, pts.max(axis=0))
        lo, hi = s.lo.copy(), s.hi.copy()
        s.erase(pts[:50])
        assert s.size() == 50
        assert np.array_equal(s.lo, lo) and np.array_equal(s.hi, hi)
        s.refit_box()
        assert np.allclose(s.lo, pts[50:].min(axis=0))

    def test_gather_round_trips_gids(self, rng):
        pts = rng.normal(size=(64, 3))
        gids = np.arange(1000, 1064)
        s = Shard(3, pts, gids)
        got_p, got_g = s.gather()
        order = np.argsort(got_g)
        assert np.array_equal(got_g[order], gids)


# ----------------------------------------------------------------------
# router geometry + merge
# ----------------------------------------------------------------------
class TestRouter:
    def test_bbox_mindist2(self):
        lo = np.array([[0.0, 0.0], [np.inf, np.inf]])
        hi = np.array([[1.0, 1.0], [-np.inf, -np.inf]])
        q = np.array([[0.5, 0.5], [2.0, 0.0]])
        d2 = bbox_mindist2(lo, hi, q)
        assert d2[0, 0] == 0.0  # inside
        assert d2[1, 0] == 1.0  # 1 away on x
        assert np.all(np.isinf(d2[:, 1]))  # sentinel box

    def test_plan_box_and_ball(self):
        lo = np.array([[0.0, 0.0], [5.0, 5.0]])
        hi = np.array([[1.0, 1.0], [6.0, 6.0]])
        m = plan_box(lo, hi, np.array([[0.5, 0.5]]), np.array([[2.0, 2.0]]))
        assert m.tolist() == [[True, False]]
        b = plan_ball(lo, hi, np.array([[2.0, 1.0]]), np.array([1.0]))
        assert b.tolist() == [[True, False]]

    def test_merge_knn_canonical_and_padded(self):
        # two shards contribute overlapping candidates for one query
        parts = [
            (np.array([0]), np.array([[1.0, 4.0]]), np.array([[3, 8]])),
            (np.array([0]), np.array([[1.0, 2.0]]), np.array([[1, 5]])),
        ]
        d, g = merge_knn(2, 2, parts)
        # ties at d=1.0 break by ascending gid
        assert d[0].tolist() == [1.0, 1.0]
        assert g[0].tolist() == [1, 3]
        # query 1 got nothing: inf/-1 padding
        assert np.all(np.isinf(d[1])) and np.all(g[1] == -1)

    def test_merge_knn_empty(self):
        d, g = merge_knn(3, 2, [])
        assert d.shape == (3, 2) and np.all(g == -1)


# ----------------------------------------------------------------------
# ShardedIndex == monolithic KDTree (exact)
# ----------------------------------------------------------------------
def _assert_equivalent(idx, live_pts, live_gids, queries, k):
    """knn/box/ball answers must be bitwise-identical to a monolithic
    KDTree over the same live (point, gid) set."""
    tree = KDTree(live_pts, gids=live_gids)
    dm, im = tree.knn(queries, k)
    ds, is_ = idx.knn(queries, k)
    assert np.array_equal(dm, ds), "knn distances diverge"
    assert np.array_equal(im, is_), "knn ids diverge"

    lo = queries - 0.7
    hi = queries + 0.7
    box_s = idx.range_query_box_batch(lo, hi)
    for i in range(len(queries)):
        ref = np.sort(tree.gids[tree.range_query_box(lo[i], hi[i])])
        assert np.array_equal(ref, box_s[i]), "box results diverge"

    radii = np.full(len(queries), 1.1)
    ball_m = [
        np.sort(tree.gids[r])
        for r in batched_range_query_ball_batch(tree, queries, radii)
    ]
    ball_s = idx.range_query_ball_batch(queries, radii)
    for a, b in zip(ball_m, ball_s):
        assert np.array_equal(a, b), "ball results diverge"


class TestShardedIndexEquivalence:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_static_equivalence(self, rng, n_shards):
        pts = rng.uniform(0, 10, (600, 2))
        qs = np.vstack([pts[:40], rng.uniform(-1, 11, (40, 2))])
        idx = ShardedIndex(pts, n_shards)
        _assert_equivalent(idx, pts, np.arange(600), qs, k=5)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_equivalence_after_mutations_and_rebalance(self, rng, n_shards):
        pts = rng.uniform(0, 10, (500, 2))
        idx = ShardedIndex(pts, n_shards, rebalance_min=64, skew_threshold=1.2)
        live_pts, live_gids = pts, np.arange(500)

        # skewed insert into one corner forces splits of the hot shard
        extra = rng.uniform(0, 0.5, (400, 2))
        idx.insert(extra)
        live_pts = np.vstack([live_pts, extra])
        live_gids = np.concatenate([live_gids, np.arange(500, 900)])

        # erase a scattered subset by coordinates
        drop = rng.choice(900, size=150, replace=False)
        keep = np.setdiff1d(np.arange(900), drop)
        idx.erase(live_pts[drop])
        live_pts, live_gids = live_pts[keep], live_gids[keep]

        if n_shards > 1:
            assert idx.n_shards > n_shards, "skewed insert should split"
        qs = np.vstack([live_pts[:40], rng.uniform(-1, 11, (40, 2))])
        _assert_equivalent(idx, live_pts, live_gids, qs, k=5)

    def test_exclude_self_matches_monolithic(self, rng):
        pts = rng.uniform(0, 10, (400, 2))
        tree = KDTree(pts)
        idx = ShardedIndex(pts, 7)
        dm, im = tree.knn(pts[:60], 4, exclude_self=True)
        ds, is_ = idx.knn(pts[:60], 4, exclude_self=True)
        assert np.array_equal(dm, ds) and np.array_equal(im, is_)

    def test_both_engines_agree(self, rng):
        pts = rng.uniform(0, 10, (300, 3))
        qs = rng.uniform(0, 10, (50, 3))
        idx = ShardedIndex(pts, 7)
        with forced_engine("batched"):
            db, ib = idx.knn(qs, 6)
        with forced_engine("recursive"):
            dr, ir = idx.knn(qs, 6)
        assert np.array_equal(db, dr) and np.array_equal(ib, ir)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_shards=st.sampled_from(SHARD_COUNTS),
        n=st.integers(20, 250),
        k=st.integers(1, 8),
        mutate=st.booleans(),
    )
    def test_property_any_cloud_any_shards(self, seed, n_shards, n, k, mutate):
        """For any point cloud, shard count, and query mix, sharded
        answers are identical to the monolithic tree's."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, (n, 2))
        idx = ShardedIndex(pts, n_shards, rebalance_min=32, skew_threshold=2.0)
        live_pts, live_gids = pts, np.arange(n)

        if mutate:
            extra = rng.uniform(0, 3, (n // 2 + 1, 2))
            idx.insert(extra)
            m = len(extra)
            live_pts = np.vstack([live_pts, extra])
            live_gids = np.concatenate([live_gids, np.arange(n, n + m)])
            drop = rng.choice(len(live_pts), size=len(live_pts) // 4, replace=False)
            keep = np.setdiff1d(np.arange(len(live_pts)), drop)
            idx.erase(live_pts[drop])
            live_pts, live_gids = live_pts[keep], live_gids[keep]

        k = min(k, len(live_pts))
        qs = np.vstack([live_pts[: min(10, len(live_pts))],
                        rng.uniform(-1, 11, (10, 2))])
        _assert_equivalent(idx, live_pts, live_gids, qs, k)


class TestShardedIndexVsScipy:
    """Default-path answers against scipy's cKDTree, an oracle that
    shares no code with the index, on both sides of the walk cutoff."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6), n_shards=st.sampled_from((1, 4, 16)))
    def test_knn_ball_box_after_mutations(self, seed, n_shards):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, (400, 2))
        idx = ShardedIndex(pts, n_shards, rebalance_min=32, skew_threshold=2.0)
        live = {g: p for g, p in enumerate(pts)}
        for _ in range(6):
            if rng.random() < 0.5:
                new = rng.uniform(0, 10, (int(rng.integers(1, 9)), 2))
                for g, p in zip(idx.insert(new), new):
                    live[int(g)] = p
            else:
                gone = rng.choice(sorted(live), size=8, replace=False)
                idx.erase(np.array([live[int(g)] for g in gone]))
                for g in gone:
                    del live[int(g)]
        gids = np.array(sorted(live))
        coords = np.array([live[int(g)] for g in gids])
        oracle = cKDTree(coords)
        k = 5
        for m in (1, 3, 40):
            qs = rng.uniform(-1, 11, (m, 2))
            d2, got = idx.knn(qs, k)
            dist, pos = oracle.query(qs, k)
            assert np.array_equal(got, gids[pos])
            assert np.allclose(d2, dist**2, rtol=1e-12, atol=0.0)

            r = rng.uniform(0.3, 1.5, m)
            ball = idx.range_query_ball_batch(qs, r)
            for i in range(m):
                want = np.sort(gids[oracle.query_ball_point(qs[i], r[i])])
                assert np.array_equal(ball[i], want)

            # a cube box is a Chebyshev ball
            box = idx.range_query_box_batch(qs - r[:, None], qs + r[:, None])
            for i in range(m):
                want = np.sort(
                    gids[oracle.query_ball_point(qs[i], r[i], p=np.inf)]
                )
                assert np.array_equal(box[i], want)


# ----------------------------------------------------------------------
# observability + bookkeeping
# ----------------------------------------------------------------------
class TestShardedIndexBookkeeping:
    def test_version_bumps_on_mutation(self, rng):
        pts = rng.uniform(0, 1, (200, 2))
        idx = ShardedIndex(pts, 4)
        v0 = idx.version
        idx.insert(rng.uniform(0, 1, (10, 2)))
        assert idx.version > v0
        v1 = idx.version
        idx.erase(pts[:5])
        assert idx.version > v1
        # erasing nothing does not bump
        v2 = idx.version
        idx.erase(np.full((3, 2), 555.0))
        assert idx.version == v2

    def test_pruning_stats_and_metrics(self, rng):
        pts = rng.uniform(0, 1, (800, 2))
        idx = ShardedIndex(pts, 16)
        idx.knn(pts[:100], 3)
        stats = idx.pruning_stats()
        assert stats["queries"] == 100
        assert 0 < stats["mean_touched_frac"] <= 1.0
        text = idx.registry.render_prometheus()
        assert "cluster_shards" in text
        assert "cluster_touched_frac" in text

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            ShardedIndex(np.empty((0, 2)), 4)
        with pytest.raises(ValueError):
            ShardedIndex(rng.uniform(0, 1, (10, 2)), 2, skew_threshold=1.0)


class TestNonFiniteRejected:
    """A NaN/inf coordinate has no Hilbert code and would poison the
    owning shard's bounding box, so plan_ball would skip that shard."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_insert_erase_raise_and_leave_index_untouched(self, rng, bad):
        pts = rng.uniform(0, 1, (2000, 2))
        with pytest.raises(ValueError):
            ShardedIndex(np.vstack([pts, [[bad, 0.5]]]), 8)

        idx = ShardedIndex(pts, 8)
        center, radius = np.array([0.5, 0.5]), 0.5
        want = np.flatnonzero(np.sum((pts - center) ** 2, axis=1) <= radius**2)
        assert np.array_equal(idx.range_query_ball(center, radius), want)
        version, next_gid = idx.version, idx.next_gid
        sizes, (lo, hi) = idx.shard_sizes(), idx._boxes()

        with pytest.raises(ValueError):
            idx.insert([[bad, 0.5]])
        with pytest.raises(ValueError):  # one bad row rejects the batch
            idx.insert(np.vstack([pts[:3] + 0.01, [[0.5, bad]]]))
        with pytest.raises(ValueError):
            idx.erase(np.vstack([pts[:3], [[bad, bad]]]))

        assert idx.version == version and idx.next_gid == next_gid
        assert idx.shard_sizes() == sizes
        assert np.array_equal(idx._boxes()[0], lo)
        assert np.array_equal(idx._boxes()[1], hi)
        assert np.array_equal(idx.range_query_ball(center, radius), want)


class TestRoutingMatchesReference:
    """Thresholds and owners derived from the reference Hilbert loop
    (``tests/_hilbert_reference.py``) equal the index's own."""

    def test_thresholds_and_owners_through_build_insert_split(self, rng):
        base = rng.uniform(0, 10, (1500, 2))
        pts = np.vstack([base, np.repeat(base[:20], 10, axis=0)])  # dup runs
        idx = ShardedIndex(pts, 8)
        part = idx.part
        bounds = (part.lo, part.hi)

        def ref_codes(p):
            return reference_hilbert_codes(p, part.bits, bounds)

        def assert_owners_match():
            for s, shard in enumerate(idx.shards):
                members, _ = shard.gather()
                owners = reference_owners(ref_codes(members), part.thresholds)
                assert np.all(owners == s), f"shard {s} holds foreign points"

        codes = ref_codes(pts)
        assert np.array_equal(part.build_codes, codes)
        assert np.array_equal(part.thresholds,
                              reference_thresholds(np.sort(codes), 8))
        assert_owners_match()

        # inserts, some outside the frozen box, route like the reference
        idx.insert(np.vstack([rng.uniform(0, 10, (200, 2)),
                              rng.uniform(-5, 15, (50, 2))]))
        assert_owners_match()

        # a forced split cuts the shard at its members' median reference
        # code: the two-way balanced cut of those codes
        s = int(np.argmax(idx.shard_sizes()))
        members, _ = idx.shards[s].gather()
        v = reference_thresholds(np.sort(ref_codes(members)), 2)[0]
        before = part.thresholds.copy()
        assert idx._split_shard(s)
        assert np.array_equal(part.thresholds, np.insert(before, s, v))
        assert_owners_match()


class TestKnnHome:
    """The degraded (home-shard-only) query path behind the front-end."""

    def test_exact_on_home_shard_subset(self, rng):
        pts = rng.uniform(0, 10, (700, 2))
        idx = ShardedIndex(pts, 8)
        qs = rng.uniform(0, 10, (50, 2))
        d2, gid = idx.knn_home(qs, 4)
        home = idx.part.route(qs)
        owner = idx.part.route(pts)
        for i in range(len(qs)):
            members = np.flatnonzero(owner == home[i])
            brute = np.sum((pts[members] - qs[i]) ** 2, axis=1)
            order = np.argsort(brute, kind="stable")[:4]
            want = np.sort(brute[order])
            kk = min(4, len(members))
            assert np.allclose(np.sort(d2[i][:kk]), want[:kk])
            assert set(gid[i][:kk]) == set(members[order][:kk])

    def test_rank_wise_dominance_vs_exact(self, rng):
        pts = rng.uniform(0, 10, (900, 3))
        idx = ShardedIndex(pts, 16)
        qs = rng.uniform(0, 10, (80, 3))
        approx_d2, approx_gid = idx.knn_home(qs, 6)
        exact_d2, _ = idx.knn(qs, 6)
        fin = np.isfinite(approx_d2)
        assert np.all(approx_d2[fin] >= exact_d2[fin] - 1e-9)
        # returned ids are real points at their true distances
        live = approx_gid >= 0
        true_d2 = np.sum(
            (pts[approx_gid[live]]
             - np.repeat(qs, 6, axis=0).reshape(len(qs), 6, -1)[live]) ** 2,
            axis=1,
        )
        assert np.allclose(approx_d2[live], true_d2)

    def test_underfull_home_shard_pads(self, rng):
        pts = rng.uniform(0, 10, (60, 2))
        idx = ShardedIndex(pts, 16)  # tiny shards: k > shard size
        d2, gid = idx.knn_home(pts[:5], 30)
        assert np.any(gid == -1)
        assert np.all(np.isinf(d2[gid == -1]))

    def test_exclude_self_drops_query_point(self, rng):
        pts = rng.uniform(0, 10, (300, 2))
        idx = ShardedIndex(pts, 4)
        d2, gid = idx.knn_home(pts[:30], 3, exclude_self=True)
        for i in range(30):
            assert i not in gid[i]
            assert d2[i][np.isfinite(d2[i])].min() > 0 or np.all(
                np.isinf(d2[i]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n_shards=st.integers(1, 12),
           k=st.integers(1, 10))
    def test_property_dominance_any_cloud(self, seed, n_shards, k):
        r = np.random.default_rng(seed)
        pts = r.uniform(0, 100, (int(r.integers(20, 300)), 2))
        idx = ShardedIndex(pts, n_shards)
        qs = r.uniform(0, 100, (8, 2))
        a_d2, a_gid = idx.knn_home(qs, k)
        e_d2, _ = idx.knn(qs, k)
        fin = np.isfinite(a_d2) & np.isfinite(e_d2)
        assert np.all(a_d2[fin] >= e_d2[fin] - 1e-9)
        # one shard: home == everything, so the answers coincide
        if idx.n_shards == 1:
            assert np.allclose(a_d2, e_d2)
