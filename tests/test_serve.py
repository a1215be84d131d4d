"""Tests for repro.serve: execution, caching, versioning, errors, replay."""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.frontend import Frontend
from repro.kdtree import KDTree, all_nearest_neighbors, knn
from repro.serve import (
    GeometryService,
    Overloaded,
    Request,
    RequestTimeout,
    ResultCache,
    ServiceClosed,
    TraceMismatch,
    UnknownDataset,
    load_trace,
    make_key,
    open_loop_arrivals,
    query_digest,
    replay,
    run_unbatched,
    save_trace,
    synthetic_trace,
    validate_trace,
    zipf_trace,
)
from repro.serve.cache import MISS

from ._engines import forced_engine


def _pts(n=200, d=2, seed=0):
    return np.random.default_rng(seed).uniform(0, 100, (n, d))


def _service(index, name="data", **kw):
    kw.setdefault("max_batch", 64)
    svc = GeometryService(**kw)
    svc.register(name, index)
    return svc


def _execute(svc, requests, name="data"):
    """Answers and metrics of one slab; every request must succeed."""
    outs = svc.execute(name, requests)
    for o in outs:
        assert o.error is None, o.error
    return [o.value for o in outs], [o.metrics for o in outs]


def _results_equal(a, b):
    if isinstance(a, tuple):
        return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    return np.array_equal(a, b)


# ----------------------------------------------------------------------
# bitwise identity vs per-request recursive queries
# ----------------------------------------------------------------------
class TestIdentity:
    def test_knn_matches_recursive_kdtree(self):
        pts = _pts(300)
        tree = KDTree(pts)
        svc = _service(tree)
        qs = pts[:25] + 0.001
        got, _ = _execute(svc, [Request("knn", q, {"k": 5}) for q in qs])
        with forced_engine("recursive"):
            dr, ir = knn(tree, qs, 5)
        for j, (d, i) in enumerate(got):
            assert np.array_equal(d, dr[j])
            assert np.array_equal(i, ir[j])

    def test_knn_matches_recursive_bdl(self):
        pts = _pts(300)
        bdl = BDLTree(dim=2, buffer_size=32)
        bdl.insert(pts)
        svc = _service(bdl)
        qs = pts[:20]
        got, _ = _execute(svc, [Request("knn", q, {"k": 4}) for q in qs])
        with forced_engine("recursive"):
            dr, ir = bdl.knn(qs, 4)
        for j, (d, i) in enumerate(got):
            assert np.array_equal(d, dr[j]) and np.array_equal(i, ir[j])

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_range_queries_match_single(self, dynamic):
        pts = _pts(400, d=3, seed=1)
        if dynamic:
            index = BDLTree(dim=3, buffer_size=64)
            index.insert(pts)
        else:
            index = KDTree(pts)
        svc = _service(index)
        centers = pts[:15]
        got, _ = _execute(
            svc,
            [Request("box", (c - 5, c + 5)) for c in centers]
            + [Request("ball", c, {"radius": 7.5}) for c in centers],
        )
        for j, c in enumerate(centers):
            got_box = got[j]
            got_ball = got[len(centers) + j]
            want_box = index.range_query_box(c - 5, c + 5)
            want_ball = index.range_query_ball(c, 7.5)
            if not dynamic:
                want_box = index.gids[want_box]
                want_ball = index.gids[want_ball]
            assert np.array_equal(got_box, want_box)
            assert np.array_equal(got_ball, want_ball)

    def test_allnn_matches_scipy(self):
        pts = _pts(150, seed=2)
        svc = _service(KDTree(pts))
        d, i = svc.allnn("data")
        dr, ir = all_nearest_neighbors(pts)
        assert np.array_equal(d, dr) and np.array_equal(i, ir)
        want_d, want_i = cKDTree(pts).query(pts, k=2)
        assert np.allclose(d, want_d[:, 1]) and np.array_equal(i, want_i[:, 1])

    def test_exclude_self_param_distinguished(self):
        pts = _pts(100, seed=3)
        tree = KDTree(pts)
        svc = _service(tree)
        d_in, i_in = svc.knn("data", pts[0], 3, exclude_self=False)
        d_ex, i_ex = svc.knn("data", pts[0], 3, exclude_self=True)
        assert i_in[0] == 0 and i_ex[0] != 0
        # both cached under distinct keys: repeat hits don't cross over
        d2, i2 = svc.knn("data", pts[0], 3, exclude_self=False)
        assert np.array_equal(i2, i_in) and np.array_equal(d2, d_in)


# ----------------------------------------------------------------------
# coalescing behaviour + metrics
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_compatible_requests_join_one_batch(self):
        pts = _pts(200)
        svc = _service(KDTree(pts), max_batch=64)
        _, metrics = _execute(
            svc, [Request("knn", pts[j], {"k": 3}) for j in range(10)])
        for m in metrics:
            assert m.batch_size == 10
            assert not m.cache_hit
            assert m.work > 0
        snap = svc.snapshot()
        assert snap["batches"] == 1
        assert snap["max_batch_size"] == 10

    def test_mixed_kinds_single_flush(self):
        pts = _pts(200)
        svc = _service(KDTree(pts), max_batch=64)
        got, _ = _execute(svc, [
            Request("knn", pts[0], {"k": 3}),
            Request("knn", pts[1], {"k": 5}),   # different k: own group
            Request("ball", pts[2], {"radius": 4.0}),
            Request("box", (pts[3] - 1, pts[3] + 1)),
        ])
        assert len(got) == 4
        assert svc.snapshot()["batches"] == 1  # one coalesced dispatch

    def test_max_batch_splits_dispatches(self):
        pts = _pts(100)
        svc = _service(KDTree(pts), max_batch=8)
        trace = [{"op": "knn", "q": pts[j].tolist(), "k": 2} for j in range(20)]
        assert replay(svc, "data", trace).completed == 20
        snap = svc.snapshot()
        assert snap["batches"] == 3  # 8 + 8 + 4
        assert snap["max_batch_size"] <= 8

    def test_duplicate_requests_share_execution(self):
        pts = _pts(100)
        svc = _service(KDTree(pts), cache_capacity=0)  # no cache: dedup only
        (r1, r2), (m1, m2) = _execute(svc, [Request("knn", pts[0], {"k": 3})] * 2)
        assert _results_equal(r1, r2)
        # both resolved by a single execution of one unique request
        assert m1.batch_size == 1 and m2.batch_size == 1


# ----------------------------------------------------------------------
# cache: hits, versioning, epochs
# ----------------------------------------------------------------------
class TestCache:
    def test_repeat_hits_cache(self):
        pts = _pts(200)
        svc = _service(KDTree(pts))
        first = svc.knn("data", pts[5], 4)
        (got,), (m,) = _execute(svc, [Request("knn", pts[5], {"k": 4})])
        assert m.cache_hit and m.batch_size == 0  # nothing executed
        assert _results_equal(got, first)
        assert svc.snapshot()["cache_hits"] == 1

    def test_mutation_invalidates_via_version(self):
        pts = _pts(300, seed=4)
        bdl = BDLTree(dim=2, buffer_size=32)
        bdl.insert(pts[:150])
        svc = _service(bdl)
        q = pts[0]
        svc.knn("data", q, 3)
        v0 = bdl.version
        bdl.insert(pts[150:])  # service-external mutation
        assert bdl.version == v0 + 1
        ((d, i),), (m,) = _execute(svc, [Request("knn", q, {"k": 3})])
        assert not m.cache_hit  # old cache entry unreachable under new version
        with forced_engine("recursive"):
            dr, ir = bdl.knn(q[None, :], 3)
        assert np.array_equal(d, dr[0]) and np.array_equal(i, ir[0])

    def test_erase_bumps_kdtree_version(self):
        pts = _pts(200, seed=5)
        tree = KDTree(pts)
        svc = _service(tree)
        v0 = tree.version
        ids1 = svc.range_ball("data", pts[0], 10.0)
        tree.erase(pts[:20])
        assert tree.version == v0 + 1
        ids2 = svc.range_ball("data", pts[0], 10.0)
        want = tree.gids[tree.range_query_ball(pts[0], 10.0)]
        assert np.array_equal(ids2, want)
        assert not np.array_equal(ids1, ids2) or len(ids1) == len(ids2)

    def test_reregistration_epoch_prevents_collisions(self):
        pts_a = _pts(100, seed=6)
        pts_b = _pts(100, seed=7)
        svc = GeometryService(max_batch=32)
        svc.register("data", KDTree(pts_a))
        da, ia = svc.knn("data", pts_a[0], 3)
        svc.register("data", KDTree(pts_b))  # same name, same version=0
        db, ib = svc.knn("data", pts_a[0], 3)
        with forced_engine("recursive"):
            want_d, want_i = knn(KDTree(pts_b), pts_a[0][None, :], 3)
        assert np.array_equal(db, want_d[0]) and np.array_equal(ib, want_i[0])

    def test_lru_eviction_bounded(self):
        pts = _pts(200, seed=8)
        svc = _service(KDTree(pts), cache_capacity=4)
        for j in range(12):
            svc.knn("data", pts[j], 2)
        snap = svc.snapshot()
        assert snap["cache_size"] <= 4
        assert snap["cache_evictions"] >= 8

    def test_result_cache_unit(self):
        c = ResultCache(2)
        k1 = make_key("d", 0, 0, "knn", (("k", 1),), b"a")
        k2 = make_key("d", 0, 0, "knn", (("k", 1),), b"b")
        k3 = make_key("d", 0, 1, "knn", (("k", 1),), b"a")  # new version
        assert k1 != k3
        c.put(k1, "r1")
        c.put(k2, "r2")
        assert c.get(k1) == "r1"
        c.put(k3, "r3")  # evicts k2 (k1 was just touched)
        assert c.get(k2) is MISS
        assert c.get(k1) == "r1" and c.get(k3) == "r3"

    def test_query_digest_distinguishes_shape_and_value(self):
        a = np.array([1.0, 2.0])
        assert query_digest(a) != query_digest(np.array([1.0, 2.5]))
        assert query_digest(np.array([[1.0, 2.0]])) != query_digest(a)


# ----------------------------------------------------------------------
# overload, timeouts, errors: the service answers at once, and the
# front end is the one place that queues, sheds and times out
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_overload_typed_rejection_10x(self):
        pts = _pts(100, seed=9)

        async def go():
            fe = Frontend(max_batch=8, queue_depth=20, degrade_at=10_000,
                          reject_at=10_000)
            fe.register_tenant("data", KDTree(pts))
            outs = await asyncio.gather(*[  # 10x oversubscription
                fe.knn("data", pts[j % 100] + j * 1e-6, 2) for j in range(200)
            ], return_exceptions=True)
            rejected = [o for o in outs if isinstance(o, Overloaded)]
            assert len(rejected) == 180
            assert all(e.pending == 20 and e.limit == 20 for e in rejected)
            assert sum(not isinstance(o, Exception) for o in outs) == 20
            assert fe.snapshot()["per_tenant"]["data"]["rejected"] == 180
            assert fe.pending() == 0  # the admitted 20 were all answered
            await fe.close()

        asyncio.run(go())

    def test_expired_deadline_rejected_at_dispatch(self):
        """A request that waits out its deadline behind another tenant's
        slow quantum times out without reaching its index."""
        pts = _pts(100, seed=10)
        slow, fast = KDTree(pts), KDTree(pts)
        reached = []
        slow_knn, fast_knn = slow.knn, fast.knn

        def slow_walk(*a, **kw):
            time.sleep(0.05)
            return slow_knn(*a, **kw)

        def fast_walk(*a, **kw):
            reached.append(1)
            return fast_knn(*a, **kw)

        slow.knn, fast.knn = slow_walk, fast_walk

        async def go():
            fe = Frontend(max_batch=4)
            fe.register_tenant("slow", slow)
            fe.register_tenant("fast", fast)
            first = asyncio.ensure_future(fe.knn("slow", pts[0], 2))
            await asyncio.sleep(0)  # the slow quantum is picked first
            with pytest.raises(RequestTimeout):
                await fe.knn("fast", pts[0], 2, timeout=0.005)
            await first
            assert not reached
            await fe.close()

        asyncio.run(go())

    def test_unknown_dataset_and_bad_requests(self):
        pts = _pts(50, seed=12)
        svc = _service(KDTree(pts))
        with pytest.raises(UnknownDataset):
            svc.execute("nope", [Request("knn", pts[0], {"k": 2})])
        with pytest.raises(UnknownDataset):
            svc.knn("nope", pts[0], 2)
        with pytest.raises(ValueError):
            svc.knn("data", pts[0], None)  # missing k
        with pytest.raises(ValueError):
            svc.range_ball("data", pts[0], None)  # missing radius
        (o,) = svc.execute("data", [Request("warp", pts[0])])
        assert isinstance(o.error, ValueError)
        with pytest.raises(ValueError):
            svc.knn("data", pts[0][:1], 2)  # wrong dim
        with pytest.raises(TypeError):
            svc.register("bad", object())

    def test_closed_service_refuses(self):
        pts = _pts(50, seed=13)
        svc = _service(KDTree(pts))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.knn("data", pts[0], 2)


# ----------------------------------------------------------------------
# one slab, per-request outcomes
# ----------------------------------------------------------------------
class TestExecute:
    @pytest.mark.parametrize("sharded", [False, True])
    def test_bad_request_fails_only_itself(self, sharded):
        pts = _pts(300, seed=30)
        index = ShardedIndex(pts, 4) if sharded else KDTree(pts)
        svc = _service(index)
        reqs = [Request("knn", pts[j], {"k": 4}) for j in range(5)]
        reqs.insert(2, Request("knn", pts[9], {"k": 0}))
        outs = svc.execute("data", reqs)
        assert isinstance(outs[2].error, ValueError)
        assert "k must be >= 1" in str(outs[2].error)
        with forced_engine("recursive"):
            dr, ir = index.knn(pts[:5], 4)
        good = [o for j, o in enumerate(outs) if j != 2]
        for j, o in enumerate(good):
            assert o.error is None
            assert np.array_equal(o.value[0], dr[j])
            assert np.array_equal(o.value[1], ir[j])
        if sharded:
            index.close()

    def test_raising_group_fails_only_its_members(self):
        # allnn runs on static KDTree datasets only: its group raises in
        # the engine, the kNN group of the same slab is still answered
        pts = _pts(200, seed=31)
        bdl = BDLTree(dim=2, buffer_size=32)
        bdl.insert(pts)
        svc = _service(bdl)
        outs = svc.execute("data", [
            Request("knn", pts[0], {"k": 3}), Request("allnn"),
            Request("knn", pts[1], {"k": 3}), Request("allnn"),
        ])
        assert isinstance(outs[1].error, ValueError)
        assert outs[3].error is outs[1].error
        with forced_engine("recursive"):
            dr, ir = bdl.knn(pts[:2], 3)
        for o, d, i in ((outs[0], dr[0], ir[0]), (outs[2], dr[1], ir[1])):
            assert o.error is None
            assert np.array_equal(o.value[0], d) and np.array_equal(o.value[1], i)
        assert svc.snapshot()["completed"] == 2

    def test_non_finite_queries_are_refused(self):
        pts = _pts(100, seed=32)
        svc = _service(KDTree(pts))
        nan, inf = float("nan"), float("inf")
        bad = [
            Request("knn", [nan, 1.0], {"k": 2}),
            Request("knn", [1.0, inf], {"k": 2}),
            Request("box", ([0.0, nan], [5.0, 5.0])),
            Request("box", ([0.0, 0.0], [-inf, 5.0])),
            Request("ball", [nan, 0.0], {"radius": 1.0}),
            Request("ball", [1.0, 1.0], {"radius": nan}),
        ]
        outs = svc.execute("data", bad)
        for o in outs:
            assert isinstance(o.error, ValueError), o
        # a negative or infinite radius stays a valid request
        tree = svc.index("data")
        for r in (-1.0, inf):
            want = tree.gids[tree.range_query_ball(pts[0], r)]
            assert np.array_equal(svc.range_ball("data", pts[0], r), want)
        assert len(svc.range_ball("data", pts[0], inf)) == len(pts)

    def test_cache_probed_once_per_request(self):
        pts = _pts(100, seed=33)
        svc = _service(KDTree(pts))
        _execute(svc, [Request("knn", pts[j], {"k": 2}) for j in range(3)])
        assert svc._cache.misses == 3 and svc._cache.hits == 0
        _execute(svc, [Request("knn", pts[j], {"k": 2}) for j in range(3)])
        assert svc._cache.misses == 3 and svc._cache.hits == 3

    def test_no_cache_fill_when_version_moves(self):
        pts = _pts(200, seed=34)
        bdl = BDLTree(dim=2, buffer_size=32)
        bdl.insert(pts[:150])
        svc = _service(bdl)
        walk = bdl.knn

        def mutating_walk(*a, **kw):  # a mutation races the execution
            out = walk(*a, **kw)
            bdl.version += 1
            return out

        bdl.knn = mutating_walk
        svc.knn("data", pts[0], 3)
        assert svc.snapshot()["cache_size"] == 0


# ----------------------------------------------------------------------
# concurrent callers: no dispatcher thread, each caller executes its own
# slab under the shared cache
# ----------------------------------------------------------------------
class TestDispatcher:
    def test_concurrent_clients_identical_results(self):
        pts = _pts(300, seed=15)
        tree = KDTree(pts)
        with forced_engine("recursive"):
            dr, ir = knn(tree, pts[:40], 3)
        svc = _service(tree)
        errors = []

        def client(lo, hi):
            try:
                for j in range(lo, hi):
                    d, i = svc.knn("data", pts[j], 3)
                    assert np.array_equal(d, dr[j]) and np.array_equal(i, ir[j])
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=client, args=(j * 10, (j + 1) * 10))
                   for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert svc.snapshot()["completed"] == 40


# ----------------------------------------------------------------------
# traces & replay
# ----------------------------------------------------------------------
class TestTrace:
    def test_save_load_roundtrip(self, tmp_path):
        pts = _pts(100, seed=17)
        trace = synthetic_trace(pts, 50, repeat_frac=0.2, seed=1)
        p = tmp_path / "trace.jsonl"
        save_trace(p, trace)
        assert load_trace(p) == trace

    def test_replay_matches_unbatched(self):
        pts = _pts(250, seed=18)
        trace = synthetic_trace(pts, 120, kinds=("knn", "ball", "box", "allnn"),
                                repeat_frac=0.3, seed=2)
        svc = _service(KDTree(pts), max_batch=128, cache_capacity=512)
        report = replay(svc, "data", trace)
        assert report.completed == len(trace) and report.errors == 0
        baseline = run_unbatched(KDTree(pts), trace)
        for a, b in zip(report.results, baseline):
            assert _results_equal(a, b)
        assert report.throughput > 0
        assert "hit-rate" in report.summary()

    def test_replay_with_mutations_matches_unbatched(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(0, 100, (200, 2))
        extra = rng.uniform(0, 100, (60, 2))
        trace = synthetic_trace(pts, 40, kinds=("knn", "ball"), seed=3)
        trace.insert(10, {"op": "insert", "pts": extra[:30].tolist()})
        trace.insert(25, {"op": "erase", "pts": pts[:20].tolist()})
        trace.insert(30, {"op": "insert", "pts": extra[30:].tolist()})

        def build():
            b = BDLTree(dim=2, buffer_size=32)
            b.insert(pts)
            return b

        svc = GeometryService(max_batch=64)
        svc.register("data", build())
        report = replay(svc, "data", trace)
        baseline = run_unbatched(build(), trace)
        assert report.errors == 0
        for a, b in zip(report.results, baseline):
            if a is None:
                assert b is None  # mutation ops
                continue
            assert _results_equal(a, b)


# ----------------------------------------------------------------------
# property test: cached answers never go stale across BDL mutations
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "erase", "query"]),
                  st.integers(0, 10**6)),
        min_size=3, max_size=12,
    ),
    seed=st.integers(0, 10**6),
)
def test_cache_never_stale_under_interleaved_mutations(ops, seed):
    """After any interleaving of batch inserts/deletes, a (possibly
    cached) service kNN answer always matches a fresh recursive query
    against the current tree."""
    rng = np.random.default_rng(seed)
    pool = rng.uniform(0, 100, (400, 2))
    inserted = 0

    bdl = BDLTree(dim=2, buffer_size=16)
    bdl.insert(pool[:64])
    inserted = 64
    svc = GeometryService(max_batch=64, cache_capacity=256)
    svc.register("data", bdl)
    queries = pool[:8]  # fixed query points -> repeats exercise the cache

    for op, x in ops:
        if op == "insert" and inserted < len(pool):
            m = min(1 + x % 32, len(pool) - inserted)
            bdl.insert(pool[inserted:inserted + m])
            inserted += m
        elif op == "erase" and len(bdl) > 8:
            alive_before = len(bdl)
            m = 1 + x % min(16, alive_before - 4)
            # erase a slice of points known to be present
            start = x % max(inserted - m, 1)
            bdl.erase(pool[start:start + m])
        q = queries[x % len(queries)]
        k = min(3, len(bdl))
        d, i = svc.knn("data", q, k)
        with forced_engine("recursive"):
            dr, ir = bdl.knn(q[None, :], k)
        assert np.array_equal(d, dr[0]), "stale cached distances"
        assert np.array_equal(i, ir[0]), "stale cached neighbors"


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "erase", "query"]),
                  st.integers(0, 10**6)),
        min_size=3, max_size=10,
    ),
    seed=st.integers(0, 10**6),
)
def test_cache_never_stale_with_sharded_index(ops, seed):
    """Same never-stale property through a ShardedIndex: a batch insert
    or erase lands in *one or a few shards* but must bump the facade's
    version, so the service cache can never replay a pre-mutation
    answer."""
    from repro.cluster import ShardedIndex

    rng = np.random.default_rng(seed)
    pool = rng.uniform(0, 100, (400, 2))
    idx = ShardedIndex(pool[:64], 4)
    inserted = 64
    svc = GeometryService(max_batch=64, cache_capacity=256)
    svc.register("data", idx)
    queries = pool[:8]  # fixed query points -> repeats exercise the cache

    for op, x in ops:
        if op == "insert" and inserted < len(pool):
            m = min(1 + x % 32, len(pool) - inserted)
            v0 = idx.version
            idx.insert(pool[inserted:inserted + m])
            assert idx.version > v0, "insert must bump the facade version"
            inserted += m
        elif op == "erase" and len(idx) > 8:
            m = 1 + x % min(16, len(idx) - 4)
            start = x % max(inserted - m, 1)
            idx.erase(pool[start:start + m])
        q = queries[x % len(queries)]
        k = min(3, len(idx))
        d, i = svc.knn("data", q, k)
        with forced_engine("recursive"):
            dr, ir = idx.knn(q[None, :], k)
        assert np.array_equal(d, dr[0]), "stale cached distances"
        assert np.array_equal(i, ir[0]), "stale cached neighbors"


# ----------------------------------------------------------------------
# lifecycle: idempotent, drain-safe close
# ----------------------------------------------------------------------
class TestClose:
    def test_double_close_is_noop(self):
        svc = _service(KDTree(_pts(50, seed=20)))
        svc.close()
        svc.close()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.knn("data", _pts(50, seed=20)[0], 2)

    def test_close_drains_queued_requests(self):
        # the front end holds the only queue; closing it answers every
        # queued request through the service it owns
        pts = _pts(300, seed=21)
        dr, ir = KDTree(pts).knn(pts[:40], 3)

        async def go():
            fe = Frontend(max_batch=16)
            fe.register_tenant("data", KDTree(pts))
            tasks = [asyncio.ensure_future(fe.knn("data", pts[i], 3))
                     for i in range(40)]
            await asyncio.sleep(0)  # all queued, none dispatched yet
            await fe.close()
            for i, reply in enumerate(await asyncio.gather(*tasks)):
                d, ids = reply.value
                assert np.array_equal(d, dr[i]) and np.array_equal(ids, ir[i])
            with pytest.raises(ServiceClosed):
                fe._service.knn("data", pts[0], 3)

        asyncio.run(go())

    def test_close_while_threaded_dispatcher_running(self):
        pts = _pts(400, seed=22)

        async def go():
            fe = Frontend(max_batch=4)
            fe.register_tenant("data", KDTree(pts))
            tasks = [asyncio.ensure_future(fe.knn("data", pts[i], 2))
                     for i in range(30)]
            await asyncio.sleep(0)
            await asyncio.sleep(0)  # the dispatcher has run a quantum
            await asyncio.gather(fe.close(), fe.close())
            await fe.close()
            # every in-flight request completed or got a typed error
            for o in await asyncio.gather(*tasks, return_exceptions=True):
                if isinstance(o, Exception):
                    assert isinstance(o, ServiceClosed)
                else:
                    assert len(o.value[0]) == 2

        asyncio.run(go())

    def test_flush_single_dataset_leaves_others_queued(self):
        # a quantum drains one tenant's queue only
        pts_a, pts_b = _pts(100, seed=23), _pts(100, seed=24)
        tree_a = KDTree(pts_a)
        walk_a = tree_a.knn
        seen = []

        async def go():
            fe = Frontend(max_batch=8)

            def watching_walk(*a, **kw):
                seen.append(fe.pending("b"))
                return walk_a(*a, **kw)

            tree_a.knn = watching_walk
            fe.register_tenant("a", tree_a)
            fe.register_tenant("b", KDTree(pts_b))
            ra, rb = await asyncio.gather(fe.knn("a", pts_a[0], 2),
                                          fe.knn("b", pts_b[0], 2))
            assert seen == [1]  # b's request waited through a's quantum
            assert not ra.approximate and not rb.approximate
            await fe.close()

        asyncio.run(go())


# ----------------------------------------------------------------------
# trace validation and load generators
# ----------------------------------------------------------------------
class TestTraceValidation:
    def test_good_trace_passes(self):
        pts = _pts(120, seed=25)
        trace = synthetic_trace(pts, 50, seed=1)
        validate_trace(trace, len(pts), pts.shape[1])

    def test_oversized_k_names_the_mismatch(self):
        trace = [{"op": "knn", "q": [1.0, 2.0], "k": 500}]
        with pytest.raises(TraceMismatch, match="larger dataset"):
            validate_trace(trace, 100, 2)

    def test_dim_mismatch_is_typed(self):
        trace = [{"op": "knn", "q": [1.0, 2.0, 3.0], "k": 2}]
        with pytest.raises(TraceMismatch, match="dim"):
            validate_trace(trace, 100, 2)
        with pytest.raises(TraceMismatch):
            validate_trace([{"op": "ball", "c": [0.0], "r": 1.0}], 100, 2)
        with pytest.raises(TraceMismatch):
            validate_trace([{"op": "box", "lo": [0.0, 0.0], "hi": [1.0]}],
                           100, 2)

    def test_inserts_grow_the_live_count(self):
        # k=150 is only valid because the insert lands first
        trace = [
            {"op": "insert", "pts": [[0.0, 0.0]] * 100},
            {"op": "knn", "q": [0.0, 0.0], "k": 150},
        ]
        validate_trace(trace, 100, 2)
        with pytest.raises(TraceMismatch):
            validate_trace(list(reversed(trace)), 100, 2)

    def test_unknown_op_rejected(self):
        with pytest.raises(TraceMismatch, match="unknown"):
            validate_trace([{"op": "teleport"}], 10, 2)


class TestLoadGenerators:
    def test_zipf_trace_repeats_verbatim(self):
        pts = _pts(500, seed=26)
        trace = zipf_trace(pts, 400, kinds=("knn",), k=4, s=1.5, hot=32,
                           seed=2)
        assert len(trace) == 400
        payloads = [tuple(op["q"]) for op in trace]
        counts = {}
        for p in payloads:
            counts[p] = counts.get(p, 0) + 1
        top = max(counts.values())
        # Zipf s=1.5 over 32 keys: the hottest key dominates, and the
        # repeats are verbatim so the service cache can see them
        assert top > 400 / 32
        assert len(counts) <= 32

    def test_zipf_trace_replayable(self):
        pts = _pts(200, seed=27)
        trace = zipf_trace(pts, 60, seed=3)
        validate_trace(trace, len(pts), pts.shape[1])
        svc = _service(KDTree(pts))
        rep = replay(svc, "data", trace)
        assert rep.errors == 0 and rep.completed == 60
        assert rep.stats["hit_rate"] > 0.0  # verbatim repeats hit
        svc.close()

    def test_open_loop_arrivals_poisson(self):
        offs = open_loop_arrivals(20_000, rate=100.0, seed=4)
        assert len(offs) == 20_000
        assert offs[0] == 0.0
        gaps = np.diff(offs)
        assert np.all(gaps >= 0)
        assert np.mean(gaps) == pytest.approx(1 / 100.0, rel=0.05)

    def test_open_loop_arrivals_bursty_preserves_mean_rate(self):
        offs = open_loop_arrivals(40_000, rate=200.0, pattern="bursty",
                                  burst_factor=8.0, burst_frac=0.1, seed=5)
        gaps = np.diff(offs)
        assert np.mean(gaps) == pytest.approx(1 / 200.0, rel=0.1)
        # bursty arrivals are overdispersed relative to poisson
        pois = np.diff(open_loop_arrivals(40_000, rate=200.0, seed=5))
        cv = np.std(gaps) / np.mean(gaps)
        cv_pois = np.std(pois) / np.mean(pois)
        assert cv > cv_pois * 1.05

    def test_open_loop_rejects_bad_args(self):
        with pytest.raises(ValueError):
            open_loop_arrivals(10, rate=0.0)
        with pytest.raises(ValueError):
            open_loop_arrivals(10, rate=1.0, pattern="fractal")


class TestReplayErrorSurfacing:
    def test_first_error_recorded(self):
        pts = _pts(80, seed=28)
        svc = _service(KDTree(pts))
        trace = [
            {"op": "knn", "q": pts[0].tolist(), "k": 2},
            {"op": "allnn"},
        ]
        svc.register("data", KDTree(pts))  # fresh epoch, fine
        rep = replay(svc, "data", trace)
        assert rep.errors == 0 and rep.first_error is None
        svc.close()
