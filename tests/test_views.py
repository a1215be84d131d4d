"""Tests for repro.views: batch-dynamic materialized views.

The load-bearing property is the *canonical-equality contract*: under
any interleaving of batch inserts, erases, and reads, every view's
maintained answer is bitwise-equal to its from-scratch ``compute``
reference over the index's live points, at every version — checked
here with hypothesis over random op sequences on duplicate-heavy
integer grids (the worst case for ties and multiplicity bookkeeping).
"""

import asyncio

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.core.bbox import BBox
from repro.frontend import Frontend
from repro.kdtree import KDTree
from repro.kdtree.delete import _match_rows
from repro.obs.rtrace import PHASES
from repro.serve import (
    GeometryService,
    TraceMismatch,
    replay,
    run_unbatched,
    synthetic_trace,
    validate_trace,
)
from repro.views import (
    ClosestPairView,
    DBSCANView,
    HullView,
    Mirror,
    ViewManager,
)


def _pts(n=80, d=2, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 10.0, (n, d))


def _grid(rng, m, dim, scale=1.0):
    # small integer grid: guarantees duplicate coordinates and distance
    # ties, the hard cases for exact-equality maintenance
    return rng.integers(0, 7, (m, dim)).astype(np.float64) * scale


def _managed(pts, *, eps=2.5, min_pts=3, buffer_size=8):
    idx = BDLTree(pts.shape[1], buffer_size=buffer_size)
    idx.insert(pts)
    mgr = ViewManager(idx)
    mgr.closest_pair()
    mgr.dbscan(eps=eps, min_pts=min_pts)
    if pts.shape[1] == 2:
        mgr.hull2d()
    return idx, mgr


def _expected(idx, mgr):
    pts, gids = idx.gather_points()
    exp = {"closest_pair": ClosestPairView.compute(pts, gids)}
    if "dbscan" in mgr.views:
        v = mgr.views["dbscan"]
        exp["dbscan"] = DBSCANView.compute(
            pts, gids, eps=v.eps, min_pts=v.min_pts)
    if "hull2d" in mgr.views:
        exp["hull2d"] = HullView.compute(pts, gids)
    return exp


# ---------------------------------------------------------------------------
# the contract: maintained == recomputed, at every version
# ---------------------------------------------------------------------------
class TestCanonicalEquality:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["ins", "del"]), min_size=1, max_size=10),
    )
    @settings(max_examples=30, deadline=None)
    # empties the live set, then refills it (stale closest-pair grid)
    @example(0, ["del", "del", "ins", "del", "del", "ins"])
    def test_interleaved_ops_match_recompute_at_every_version(
            self, seed, ops):
        rng = np.random.default_rng(seed)
        idx, mgr = _managed(_grid(rng, 12, 2))
        for op in ops:
            v0 = int(idx.version)
            if op == "ins":
                out = mgr.insert(_grid(rng, int(rng.integers(1, 5)), 2))
                effective = len(out) > 0
            else:
                live, _ = idx.gather_points()
                if len(live) == 0:
                    continue
                take = rng.choice(
                    len(live), size=min(3, len(live)), replace=False)
                effective = mgr.erase(live[take]) > 0
            # the version counter bumps exactly once per effective batch
            assert int(idx.version) == v0 + (1 if effective else 0)
            assert mgr.version == int(idx.version)
            for name, want in _expected(idx, mgr).items():
                got, ver = mgr.get(name)
                assert got == want, f"{name} diverged after {op}"
                assert ver == int(idx.version)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_float_coordinates_and_3d(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 10.0, (20, 3))
        idx, mgr = _managed(pts, eps=3.0, min_pts=3)
        for _ in range(6):
            if rng.random() < 0.5:
                mgr.insert(rng.uniform(0.0, 10.0, (3, 3)))
            else:
                live, _ = idx.gather_points()
                take = rng.choice(len(live), size=2, replace=False)
                mgr.erase(live[take])
            for name, want in _expected(idx, mgr).items():
                assert mgr.get(name)[0] == want

    def test_sharded_index_views_never_stale(self):
        rng = np.random.default_rng(3)
        idx = ShardedIndex(rng.uniform(0.0, 10.0, (60, 2)), 4)
        mgr = ViewManager(idx)
        mgr.closest_pair()
        mgr.hull2d()
        for _ in range(6):
            # rebalancing may bump the version more than once per batch;
            # the view answer still tracks the final version exactly
            mgr.insert(rng.uniform(0.0, 10.0, (6, 2)))
            live, gids = idx.gather_points()
            assert mgr.get("closest_pair") == (
                ClosestPairView.compute(live, gids), int(idx.version))
            assert mgr.get("hull2d") == (
                HullView.compute(live, gids), int(idx.version))
            live, _ = idx.gather_points()
            mgr.erase(live[rng.choice(len(live), size=3, replace=False)])
            live, gids = idx.gather_points()
            assert mgr.get("hull2d")[0] == HullView.compute(live, gids)

    def test_empty_and_tiny_live_sets(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        idx, mgr = _managed(pts)
        mgr.erase(pts)  # empty the index entirely
        assert mgr.get("closest_pair") == (None, int(idx.version))
        assert mgr.get("hull2d")[0] == ()
        assert mgr.get("dbscan")[0] == ((), ())
        mgr.insert(np.array([[1.0, 1.0]]))
        assert mgr.get("closest_pair")[0] is None  # still < 2 points
        gid = int(idx.gather_points()[1][0])
        assert mgr.get("hull2d")[0] == (gid,)

    def test_closest_pair_after_live_set_empties_and_refills(self):
        # the refill must not repair against the emptied set's grid
        # width: (0,0)-(2.9,0) is two cells apart at the old width 1.42
        idx = BDLTree(2, buffer_size=8)
        idx.insert(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]))
        mgr = ViewManager(idx)
        mgr.closest_pair()
        mgr.erase(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]))
        mgr.insert(np.array([[0.0, 0.0], [2.9, 0.0], [1.4, 2.8]]))
        live, gids = idx.gather_points()
        want = ClosestPairView.compute(live, gids)
        assert want[1:] == (3, 4)
        assert mgr.get("closest_pair")[0] == want


class TestIndependentOracles:
    """View answers against scipy, not against the views' own code."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hull_vertices_match_qhull(self, seed):
        # general position: random floats, so the strict hull equals
        # Qhull's vertex set
        rng = np.random.default_rng(seed)
        idx = BDLTree(2, buffer_size=8)
        idx.insert(rng.uniform(0.0, 10.0, (40, 2)))
        mgr = ViewManager(idx)
        mgr.hull2d()
        for _ in range(6):
            if rng.random() < 0.5:
                mgr.insert(rng.uniform(-2.0, 12.0, (int(rng.integers(1, 9)), 2)))
            else:
                live, _ = idx.gather_points()
                take = rng.choice(len(live), size=min(8, len(live) - 3),
                                  replace=False)
                mgr.erase(live[take])
            live, gids = idx.gather_points()
            got = {int(g) for g in mgr.get("hull2d")[0]}
            want = {int(gids[v]) for v in ConvexHull(live).vertices}
            assert got == want

    @pytest.mark.parametrize("n,m", [(50, 8), (5000, 8), (3000, 40)])
    def test_match_rows_against_brute_force(self, n, m):
        # covers the broadcast path, the first-coordinate prefilter and
        # the void-view fallback; duplicate-heavy on purpose
        rng = np.random.default_rng(n + m)
        pts = rng.integers(0, 4, (n, 3)).astype(np.float64)
        q = rng.integers(0, 4, (m, 3)).astype(np.float64)
        want = np.array([any((p == r).all() for r in q) for p in pts])
        assert np.array_equal(_match_rows(pts, q), want)

    def test_mirror_kill_skips_dead_rows(self):
        pts = np.repeat(np.array([[1.0, 2.0], [1.0, 3.0]]), 3000, axis=0)
        mirror = Mirror(pts, np.arange(len(pts)))
        first = mirror.kill_matching(np.array([[1.0, 2.0]]))
        assert len(first) == 3000 and mirror.n_live() == 3000
        assert len(mirror.kill_matching(np.array([[1.0, 2.0]]))) == 0
        second = mirror.kill_matching(np.array([[1.0, 3.0], [1.0, 2.0]]))
        assert np.array_equal(second, np.arange(3000, 6000))
        assert mirror.n_live() == 0 and not mirror.row_of


# ---------------------------------------------------------------------------
# the manager: versioning, drift, counters, subscriptions
# ---------------------------------------------------------------------------
class TestViewManager:
    def test_out_of_band_mutation_resyncs_on_read(self):
        idx, mgr = _managed(_pts(30))
        rec0 = mgr.views["closest_pair"].recomputes
        idx.insert(np.array([[9.5, 9.5]]))  # behind the manager's back
        ans, ver = mgr.get("closest_pair")
        assert ver == int(idx.version)
        live, gids = idx.gather_points()
        assert ans == ClosestPairView.compute(live, gids)
        assert mgr.views["closest_pair"].recomputes == rec0 + 1
        assert mgr._c_resyncs.value == 1

    def test_repair_counters_and_noop_erase(self):
        idx, mgr = _managed(_pts(30))
        r0 = mgr.views["closest_pair"].repairs
        v0 = mgr.version
        mgr.insert(np.array([[5.0, 5.0]]))
        assert mgr.views["closest_pair"].repairs == r0 + 1
        assert mgr.version == v0 + 1
        # erasing nothing is version- and repair-free
        assert mgr.erase(np.array([[123.0, 123.0]])) == 0
        assert mgr.version == v0 + 1
        assert mgr.views["closest_pair"].repairs == r0 + 1
        st_ = mgr.stats()["dbscan"]
        assert st_["kind"] == "dbscan" and st_["version"] == mgr.version

    def test_subscriptions_fire_per_batch_and_swallow_errors(self):
        idx, mgr = _managed(_pts(25))
        events = []
        mgr.subscribe(events.append)

        def bad(event):
            raise RuntimeError("boom")

        mgr.subscribe(bad)
        mgr.insert(np.array([[1.0, 2.0]]))
        live, _ = idx.gather_points()
        mgr.erase(live[:1])
        assert [e["op"] for e in events] == ["insert", "erase"]
        assert events[0]["count"] == 1 and "closest_pair" in events[0]["answers"]
        assert events[1]["version"] == int(idx.version)
        assert mgr._c_listener_errors.value == 2.0
        mgr.unsubscribe(bad)
        mgr.insert(np.array([[2.0, 2.0]]))
        assert mgr._c_listener_errors.value == 2.0

    def test_duplicate_registration_rejected(self):
        _, mgr = _managed(_pts(10))
        with pytest.raises(ValueError, match="already registered"):
            mgr.closest_pair()

    def test_mirror_matches_index_erase_semantics(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mirror = Mirror(pts, np.arange(3))
        killed = mirror.kill_matching(np.array([[1.0, 1.0]]))
        assert len(killed) == 2 and mirror.n_live() == 1
        assert list(mirror.row_of) == [2]


# ---------------------------------------------------------------------------
# touched key-ranges from batch mutations (scoped invalidation)
# ---------------------------------------------------------------------------
class TestTouchedRegion:
    def test_bdltree_reports_batch_bbox(self):
        idx = BDLTree(2, buffer_size=4)
        assert idx.last_touched is None
        idx.insert(np.array([[0.0, 0.0], [2.0, 3.0], [1.0, 5.0]]))
        t = idx.last_touched
        assert t.kind == "insert" and t.count == 3
        assert t.version == int(idx.version)
        assert np.array_equal(t.lo, [0.0, 0.0])
        assert np.array_equal(t.hi, [2.0, 5.0])
        assert t.intersects(BBox(np.array([1.5, 2.5]), np.array([9.0, 9.0])))
        assert not t.intersects(
            BBox(np.array([6.0, 6.0]), np.array([9.0, 9.0])))
        idx.erase(np.array([[2.0, 3.0]]))
        t = idx.last_touched
        assert t.kind == "erase" and t.count == 1
        assert t.version == int(idx.version)
        # a no-op erase leaves the last effective region in place
        idx.erase(np.array([[40.0, 40.0]]))
        assert idx.last_touched.kind == "erase"
        assert idx.last_touched.count == 1

    def test_sharded_index_reports_touched_shards(self):
        idx = ShardedIndex(_pts(60, seed=5), 4)
        batch = np.array([[0.5, 0.5], [9.5, 9.5]])
        idx.insert(batch)
        t = idx.last_touched
        assert t.kind == "insert" and t.count == 2
        assert t.shards and all(0 <= s < idx.n_shards for s in t.shards)
        assert t.version == int(idx.version)
        deleted = idx.erase(batch)
        t = idx.last_touched
        assert t.kind == "erase" and t.count == deleted > 0
        assert t.shards


# ---------------------------------------------------------------------------
# serving integration: GeometryService
# ---------------------------------------------------------------------------
class TestServiceViews:
    def _svc(self, pts):
        idx = BDLTree(2, buffer_size=16)
        idx.insert(pts)
        mgr = ViewManager(idx)
        mgr.closest_pair()
        svc = GeometryService(max_batch=16)
        svc.register("data", idx)
        return idx, mgr, svc

    def test_view_kind_answers_and_version_keyed_cache(self):
        pts = _pts(60, seed=2)
        idx, mgr, svc = self._svc(pts)
        ans, ver = svc.view("data", "closest_pair")
        live, gids = idx.gather_points()
        assert (ans, ver) == (
            ClosestPairView.compute(live, gids), int(idx.version))
        # the second read at the same version is a cache hit ...
        assert svc.view("data", "closest_pair") == (ans, ver)
        assert svc.snapshot()["hit_rate"] > 0
        # ... and a mutation changes the key, so the cache never serves
        # a stale answer for the new version
        mgr.insert(np.array([[0.01, 0.02]]))
        ans3, ver3 = svc.view("data", "closest_pair")
        assert ver3 == ver + 1
        live, gids = idx.gather_points()
        assert ans3 == ClosestPairView.compute(live, gids)

    def test_view_requires_manager_and_name(self):
        svc = GeometryService(max_batch=8)
        svc.register("static", KDTree(_pts(20)))
        with pytest.raises(ValueError, match="view"):
            svc.view("static", "closest_pair")
        idx, mgr, svc2 = self._svc(_pts(20))
        with pytest.raises(ValueError):
            svc2.view("data", "")

    def test_replay_routes_mutations_through_manager(self):
        pts = _pts(50, seed=4)
        idx, mgr, svc = self._svc(pts)
        trace = [
            {"op": "view", "name": "closest_pair"},
            {"op": "insert", "pts": [[4.25, 4.25], [4.26, 4.27]]},
            {"op": "view", "name": "closest_pair"},
            {"op": "erase", "pts": [pts[7].tolist()]},
            {"op": "view", "name": "closest_pair"},
        ]
        report = replay(svc, "data", trace)
        assert report.errors == 0 and report.completed == 3
        # mutations repaired the views in place: no read-side resync
        assert mgr._c_resyncs.value == 0
        v = mgr.views["closest_pair"]
        assert v.repairs + v.recomputes >= 2
        # and the replayed answers equal the recompute-from-scratch loop
        fresh = BDLTree(2, buffer_size=16)
        fresh.insert(pts)
        base = run_unbatched(
            fresh, trace, views={"closest_pair": ClosestPairView.compute})
        got = [r for r, op in zip(report.results, trace)
               if op["op"] == "view"]
        want = [r for r, op in zip(base, trace) if op["op"] == "view"]
        assert got == want

    def test_run_unbatched_needs_compute_mapping(self):
        idx = BDLTree(2)
        idx.insert(_pts(10))
        with pytest.raises(ValueError, match="views"):
            run_unbatched(idx, [{"op": "view", "name": "closest_pair"}])


# ---------------------------------------------------------------------------
# serving integration: Frontend mutations + subscriptions
# ---------------------------------------------------------------------------
class TestFrontendViews:
    def test_view_insert_erase_and_subscription(self):
        pts = _pts(80, seed=6)
        idx = BDLTree(2, buffer_size=16)
        idx.insert(pts)
        mgr = ViewManager(idx)
        mgr.closest_pair()

        async def go():
            async with Frontend(max_batch=8, queue_depth=64) as fe:
                fe.register_tenant("t", idx)
                events = []
                fe.subscribe_view("t", events.append)
                r = await fe.view("t", "closest_pair")
                live, gids = idx.gather_points()
                assert r.value == (
                    ClosestPairView.compute(live, gids), int(idx.version))
                ri = await fe.insert("t", [[5.125, 5.125], [5.13, 5.12]])
                new_gids, ver = ri.value
                assert len(new_gids) == 2 and ver == int(idx.version)
                re_ = await fe.erase("t", [pts[3].tolist()])
                deleted, ver2 = re_.value
                assert deleted == 1 and ver2 == ver + 1
                assert [e["op"] for e in events] == ["insert", "erase"]
                r2 = await fe.view("t", "closest_pair")
                live, gids = idx.gather_points()
                assert r2.value == (
                    ClosestPairView.compute(live, gids), int(idx.version))
                fe.unsubscribe_view("t", events.append)

        asyncio.run(go())

    def test_subscribe_without_views_raises(self):
        async def go():
            async with Frontend(max_batch=8, queue_depth=64) as fe:
                fe.register_tenant("t", KDTree(_pts(10)))
                with pytest.raises(ValueError, match="views"):
                    fe.subscribe_view("t", lambda e: None)

        asyncio.run(go())

    def test_phase_split_includes_view_repair(self):
        split = Frontend._phase_split(
            1.0, 0.2, 0.3, 0.05, 0.05, view_repair=0.1)
        assert set(split) == set(PHASES)
        assert abs(sum(split.values()) - 1.0) < 1e-9
        assert split["view_repair"] == 0.1
        # overrunning phases are scaled into the post-queue window
        tight = Frontend._phase_split(
            1.0, 0.8, 0.3, 0.0, 0.0, view_repair=0.3)
        assert abs(sum(tight.values()) - 1.0) < 1e-9
        assert tight["view_repair"] < 0.3

    def test_dash_renders_views_column(self):
        idx = BDLTree(2, buffer_size=16)
        idx.insert(_pts(30))
        mgr = ViewManager(idx)
        mgr.closest_pair()
        mgr.insert(np.array([[1.5, 1.5]]))

        async def go():
            from repro.obs.dash import render

            async with Frontend(max_batch=8, queue_depth=64) as fe:
                fe.register_tenant("t", idx)
                out = render(fe)
                assert "closest_pair" in out and "repairs" in out

        asyncio.run(go())


# ---------------------------------------------------------------------------
# traces: update ops, view ops, validation
# ---------------------------------------------------------------------------
class TestUpdateTraces:
    def test_validate_trace_rejects_updates_on_static_dataset(self):
        trace = [{"op": "insert", "pts": [[0.0, 0.0]]}]
        validate_trace(trace, 10, 2, dynamic=True)
        with pytest.raises(TraceMismatch, match="static"):
            validate_trace(trace, 10, 2, dynamic=False)
        with pytest.raises(TraceMismatch, match="dynamic"):
            validate_trace(
                [{"op": "view", "name": "x"}], 10, 2, dynamic=False)
        with pytest.raises(TraceMismatch, match="name"):
            validate_trace([{"op": "view", "name": ""}], 10, 2)
        with pytest.raises(TraceMismatch, match="shaped"):
            validate_trace(
                [{"op": "erase", "pts": [0.0, 1.0]}], 10, 2)

    def test_inserts_grow_the_knn_population(self):
        trace = [
            {"op": "insert", "pts": [[0.0, 0.0], [1.0, 1.0]]},
            {"op": "knn", "q": [0.0, 0.0], "k": 11},
        ]
        validate_trace(trace, 10, 2)  # k=11 fits after the insert
        with pytest.raises(TraceMismatch, match="k=11"):
            validate_trace(trace[1:], 10, 2)

    def test_cli_serve_replay_exits_2_on_static_update_trace(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.serve import save_trace

        p = tmp_path / "p.npy"
        np.save(p, _pts(30))
        tr = tmp_path / "t.jsonl"
        save_trace(tr, [{"op": "insert", "pts": [[1.0, 1.0]]}])
        rc = main(["serve-replay", str(p), "--trace", str(tr)])
        assert rc == 2
        assert "static" in capsys.readouterr().err

    def test_synthetic_trace_mutation_mix(self):
        pts = _pts(40, seed=8)
        trace = synthetic_trace(
            pts, 300, kinds=("view",), mutation_frac=0.5,
            mutation_batch=4, view_names=("a", "b"), seed=1)
        ops = {op["op"] for op in trace}
        assert ops == {"insert", "erase", "view"}
        n_mut = sum(op["op"] in ("insert", "erase") for op in trace)
        assert 0.3 < n_mut / len(trace) < 0.7
        for op in trace:
            if op["op"] in ("insert", "erase"):
                assert len(op["pts"]) == 4
            else:
                assert op["name"] in ("a", "b")
        # erase batches target live coordinates: replaying actually deletes
        idx = BDLTree(2, buffer_size=16)
        idx.insert(pts)
        for op in trace:
            if op["op"] == "insert":
                idx.insert(np.asarray(op["pts"]))
            elif op["op"] == "erase":
                assert idx.erase(np.asarray(op["pts"])) == len(op["pts"])

    def test_synthetic_trace_validation_and_defaults(self):
        pts = _pts(20)
        with pytest.raises(ValueError, match="view_names"):
            synthetic_trace(pts, 5, kinds=("view",))
        with pytest.raises(ValueError, match="mutation_frac"):
            synthetic_trace(pts, 5, mutation_frac=1.5)
        # the default (query-only) stream is unchanged by the new knobs
        assert all(
            op["op"] in ("knn", "ball", "box")
            for op in synthetic_trace(pts, 50, seed=2)
        )

    def test_run_unbatched_view_baseline_shape(self):
        pts = _pts(30, seed=9)
        idx = BDLTree(2, buffer_size=16)
        idx.insert(pts)
        trace = [
            {"op": "view", "name": "cp"},
            {"op": "insert", "pts": [[5.5, 5.5]]},
            {"op": "view", "name": "cp"},
        ]
        out = run_unbatched(
            idx, trace, views={"cp": ClosestPairView.compute})
        assert out[1] is None
        live, gids = idx.gather_points()
        assert out[2] == (
            ClosestPairView.compute(live, gids), int(idx.version))
        assert out[0][1] == out[2][1] - 1
