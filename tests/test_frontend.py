"""Tests for repro.frontend: quotas, fair dispatch, admission, degradation."""

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedIndex
from repro.frontend import (
    DEGRADED,
    NORMAL,
    OVERLOADED,
    AdmissionController,
    Frontend,
    Overloaded,
    QuotaExceeded,
    RequestTimeout,
    ServiceClosed,
    TokenBucket,
    UnknownTenant,
    WeightedFairScheduler,
)
from repro.frontend.load import (
    TenantLoad,
    percentile,
    run_open_loop,
    verify_degraded,
)
from repro.kdtree import KDTree
from repro.serve import zipf_trace


def _pts(n=500, d=2, seed=0):
    return np.random.default_rng(seed).uniform(0, 100, (n, d))


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_unlimited_always_admits(self):
        b = TokenBucket(None)
        assert all(b.try_acquire() == 0.0 for _ in range(10_000))

    def test_burst_then_refill(self):
        clk = FakeClock()
        b = TokenBucket(rate=10.0, burst=3.0, clock=clk)
        assert [b.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = b.try_acquire()
        assert wait == pytest.approx(0.1)  # 1 token at 10/s
        clk.advance(wait)
        assert b.try_acquire() == 0.0

    def test_all_or_nothing(self):
        clk = FakeClock()
        b = TokenBucket(rate=1.0, burst=2.0, clock=clk)
        assert b.try_acquire(2.0) == 0.0
        # a rejected acquire must not consume partial quota
        w1 = b.try_acquire(1.0)
        w2 = b.try_acquire(1.0)
        assert w1 == pytest.approx(1.0) and w2 == pytest.approx(1.0)

    def test_tokens_cap_at_burst(self):
        clk = FakeClock()
        b = TokenBucket(rate=100.0, burst=5.0, clock=clk)
        clk.advance(60.0)
        assert b.tokens == 5.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0.5)


# ---------------------------------------------------------------------------
# weighted fair scheduler
# ---------------------------------------------------------------------------
class TestWeightedFairScheduler:
    def test_weights_set_long_run_shares(self):
        s = WeightedFairScheduler()
        s.add("a", 3.0)
        s.add("b", 1.0)
        s.arrive("a", 4000)
        s.arrive("b", 4000)
        served = {"a": 0, "b": 0}
        for _ in range(400):
            t = s.pick()
            s.dispatched(t, 10)
            served[t] += 10
        assert served["a"] == pytest.approx(3000, rel=0.05)
        assert served["b"] == pytest.approx(1000, rel=0.05)

    def test_reactivation_hoards_no_credit(self):
        s = WeightedFairScheduler()
        s.add("busy", 1.0)
        s.add("idle", 1.0)
        s.arrive("busy", 10_000)
        for _ in range(100):  # busy runs alone for a long time
            s.dispatched(s.pick(), 10)
        s.arrive("idle", 10_000)
        served = {"busy": 0, "idle": 0}
        for _ in range(100):
            t = s.pick()
            s.dispatched(t, 10)
            served[t] += 10
        # the returning tenant gets ~half from now on, not a catch-up burst
        assert served["idle"] == pytest.approx(500, rel=0.2)

    def test_tie_breaks_to_heavier_weight(self):
        s = WeightedFairScheduler()
        s.add("bulk", 1.0)
        s.add("prio", 8.0)
        s.arrive("bulk", 100)
        s.dispatched("bulk", 10)
        s.arrive("prio", 1)  # reactivates at vnow == bulk's tag
        assert s.pick() == "prio"

    def test_light_tenant_delay_bounded_by_quanta(self):
        # the fairness property behind the p99 gate: with the heavy
        # tenant massively backlogged, a light arrival is served within
        # a couple of quanta, not after the heavy backlog drains
        s = WeightedFairScheduler()
        s.add("heavy", 1.0)
        s.add("light", 4.0)
        s.arrive("heavy", 100_000)
        for _ in range(7):
            s.dispatched(s.pick(), 64)
        s.arrive("light", 1)
        picks = []
        for _ in range(3):
            t = s.pick()
            picks.append(t)
            s.dispatched(t, 64 if t == "heavy" else 1)
        assert "light" in picks[:2]

    def test_bookkeeping_and_errors(self):
        s = WeightedFairScheduler()
        s.add("a")
        with pytest.raises(ValueError):
            s.add("a")
        with pytest.raises(ValueError):
            s.add("b", weight=0.0)
        s.arrive("a", 3)
        assert s.backlog("a") == 3 and s.total_backlog() == 3
        s.dispatched("a", 5)  # over-dispatch clamps at zero
        assert s.backlog("a") == 0
        assert s.pick() is None
        s.remove("a")
        assert s.total_backlog() == 0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def _ac(self, depth, **kw):
        holder = {"d": depth}
        kw.setdefault("degrade_at", 10)
        kw.setdefault("reject_at", 20)
        ac = AdmissionController(lambda: holder["d"], **kw)
        return ac, holder

    def test_states_and_flags(self):
        ac, h = self._ac(0)
        assert ac.decide().state == NORMAL and ac.decide().admit
        h["d"] = 10
        d = ac.decide()
        assert d.state == DEGRADED and d.admit and d.degrade
        h["d"] = 25
        d = ac.decide()
        assert d.state == OVERLOADED and not d.admit
        assert d.retry_after and d.retry_after > 0

    def test_hysteresis_no_flapping(self):
        ac, h = self._ac(35, reject_at=30)
        assert ac.decide().state == OVERLOADED
        # dipping just under reject_at does NOT leave overloaded
        h["d"] = 25
        assert ac.decide().state == OVERLOADED
        # resuming requires depth < resume_frac * reject_at (15 here);
        # a still-elevated depth resumes into DEGRADED, not NORMAL
        h["d"] = 12
        assert ac.decide().state == DEGRADED
        h["d"] = 4
        assert ac.decide().state == NORMAL

    def test_degraded_resumes_below_fraction(self):
        ac, h = self._ac(10)
        assert ac.decide().state == DEGRADED
        h["d"] = 6
        assert ac.decide().state == DEGRADED  # 6 >= 0.5*10
        h["d"] = 4
        assert ac.decide().state == NORMAL

    def test_retry_after_tracks_drain_rate(self):
        ac, h = self._ac(40)
        ac.note_drained(100, 1.0)  # 100 req/s
        ra_fast = ac.decide().retry_after
        ac2, _ = self._ac(40)
        ac2.note_drained(10, 1.0)  # 10 req/s
        ra_slow = ac2.decide().retry_after
        assert ra_slow > ra_fast
        assert 0.001 <= ra_slow <= 30.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionController(lambda: 0, degrade_at=5, reject_at=4)
        with pytest.raises(ValueError):
            AdmissionController(lambda: 0, degrade_at=1, reject_at=2,
                                resume_frac=0.0)


# ---------------------------------------------------------------------------
# the frontend itself
# ---------------------------------------------------------------------------
def _frontend(index=None, **kw):
    kw.setdefault("max_batch", 32)
    kw.setdefault("queue_depth", 128)
    kw.setdefault("degrade_at", 10_000)  # effectively never, unless set
    kw.setdefault("reject_at", 20_000)
    fe = Frontend(**kw)
    if index is not None:
        fe.register_tenant("t", index)
    return fe


class TestFrontendQueries:
    def test_exact_answers_match_direct_queries(self):
        pts = _pts(400)
        tree = KDTree(pts)

        async def go():
            async with _frontend(tree) as fe:
                r = await fe.knn("t", [50.0, 50.0], k=5)
                assert not r.approximate and r.tenant == "t" and r.kind == "knn"
                d2, gid = tree.knn(np.array([[50.0, 50.0]]), 5)
                assert np.allclose(r.value[0], d2[0])
                assert np.array_equal(r.value[1], gid[0])

                rb = await fe.ball("t", [50.0, 50.0], 10.0)
                direct = tree.range_query_ball(np.array([50.0, 50.0]), 10.0)
                assert np.array_equal(np.sort(rb.value), np.sort(direct))

                rx = await fe.box("t", [0.0, 0.0], [25.0, 25.0])
                assert not rx.approximate

                ra = await fe.allnn("t")
                assert len(ra.value[0]) == len(pts)

        asyncio.run(go())

    def test_verbatim_repeat_hits_cache(self):
        async def go():
            async with _frontend(KDTree(_pts())) as fe:
                first = await fe.knn("t", [10.0, 10.0], k=4)
                again = await fe.knn("t", [10.0, 10.0], k=4)
                assert not first.cache_hit and again.cache_hit
                assert np.allclose(first.value[0], again.value[0])

        asyncio.run(go())

    def test_unknown_tenant_and_duplicate_registration(self):
        async def go():
            async with _frontend(KDTree(_pts())) as fe:
                with pytest.raises(UnknownTenant):
                    await fe.knn("ghost", [0.0, 0.0], 1)
                with pytest.raises(ValueError):
                    fe.register_tenant("t", KDTree(_pts()))
                with pytest.raises(ValueError):
                    await fe.submit("t", "frobnicate")

        asyncio.run(go())

    def test_many_concurrent_requests_all_exact(self):
        pts = _pts(600)

        async def go():
            async with _frontend(KDTree(pts), queue_depth=512) as fe:
                rng = np.random.default_rng(3)
                qs = rng.uniform(0, 100, (150, 2))
                replies = await asyncio.gather(*[
                    fe.knn("t", q.tolist(), 3) for q in qs
                ])
                exact_d2, _ = KDTree(pts).knn(qs, 3)
                for i, r in enumerate(replies):
                    assert not r.approximate
                    assert np.allclose(r.value[0], exact_d2[i])

        asyncio.run(go())


    def test_quanta_run_on_the_event_loop_thread(self):
        tree = KDTree(_pts(300))
        walk = tree.knn
        threads = []

        def recording_walk(*a, **kw):
            threads.append(threading.get_ident())
            return walk(*a, **kw)

        tree.knn = recording_walk

        async def go():
            async with _frontend(tree, max_batch=4) as fe:
                await asyncio.gather(*[
                    fe.knn("t", [float(i), 5.0], 3) for i in range(12)
                ])
            return threading.get_ident()

        loop_thread = asyncio.run(go())
        assert len(threads) == 3  # three quanta of four
        assert set(threads) == {loop_thread}

    @pytest.mark.parametrize("sharded", [False, True])
    def test_bad_request_fails_only_itself(self, sharded):
        pts = _pts(400, seed=5)
        index = ShardedIndex(pts, 4) if sharded else KDTree(pts)
        qs = pts[:6] + 0.5

        async def go():
            async with _frontend(index) as fe:
                return await asyncio.gather(*[
                    fe.knn("t", q, 0 if j == 3 else 4)
                    for j, q in enumerate(qs)
                ], return_exceptions=True)

        outs = asyncio.run(go())
        assert isinstance(outs[3], ValueError)
        exact_d2, exact_ids = index.knn(qs, 4)
        for j, r in enumerate(outs):
            if j == 3:
                continue
            assert not isinstance(r, Exception), r
            assert np.array_equal(r.value[0], exact_d2[j])
            assert np.array_equal(r.value[1], exact_ids[j])
        if sharded:
            index.close()

    def test_non_finite_queries_get_a_typed_error(self):
        nan = float("nan")

        async def go():
            async with _frontend(ShardedIndex(_pts(300), 4)) as fe:
                with pytest.raises(ValueError, match="finite"):
                    await fe.knn("t", [nan, 1.0], 3)
                with pytest.raises(ValueError, match="finite"):
                    await fe.box("t", [0.0, 0.0], [float("inf"), 1.0])
                with pytest.raises(ValueError, match="NaN"):
                    await fe.ball("t", [1.0, 1.0], nan)
                r = await fe.knn("t", [1.0, 1.0], 3)  # the tenant still serves
                assert len(r.value[0]) == 3
                fe.tenant_index("t").close()

        asyncio.run(go())


class TestQuota:
    def test_quota_exhaustion_is_typed_and_state_safe(self):
        clk = FakeClock()

        async def go():
            fe = _frontend(clock=clk)
            fe.register_tenant("q", KDTree(_pts()), rate=10.0, burst=2.0)
            assert (await fe.knn("q", [1.0, 1.0], 2)).tenant == "q"
            assert (await fe.knn("q", [2.0, 2.0], 2)).tenant == "q"
            with pytest.raises(QuotaExceeded) as ei:
                await fe.knn("q", [3.0, 3.0], 2)
            assert ei.value.retry_after == pytest.approx(0.1)
            assert isinstance(ei.value, Overloaded)  # subtype, one except arm
            # queue state is not corrupted: depth 0, next request fine
            assert fe.pending("q") == 0
            clk.advance(0.2)
            r = await fe.knn("q", [4.0, 4.0], 2)
            assert not r.approximate
            snap = fe.snapshot()["per_tenant"]["q"]
            assert snap["quota_rejections"] == 1
            assert snap["completed"] == 3
            await fe.close()

        asyncio.run(go())


class TestOverload:
    def test_per_tenant_depth_bound_rejects_typed(self):
        async def go():
            fe = _frontend(max_batch=4, queue_depth=8)
            fe.register_tenant("t", KDTree(_pts(2000, seed=1)))
            rng = np.random.default_rng(0)
            tasks = [
                asyncio.ensure_future(fe.knn("t", rng.uniform(0, 100, 2), 4))
                for _ in range(200)
            ]
            outs = await asyncio.gather(*tasks, return_exceptions=True)
            ok = [o for o in outs if not isinstance(o, Exception)]
            shed = [o for o in outs if isinstance(o, Exception)]
            assert shed, "200 instant arrivals into depth-8 must shed"
            assert all(isinstance(e, Overloaded) for e in shed)
            assert all(not r.approximate for r in ok)
            # queue never exceeded its bound and drains to zero
            assert fe.pending("t") == 0
            await fe.close()

        asyncio.run(go())

    def test_global_overload_sets_retry_after(self):
        async def go():
            fe = Frontend(max_batch=4, queue_depth=64,
                          degrade_at=2, reject_at=4)
            fe.register_tenant("t", KDTree(_pts()))
            rng = np.random.default_rng(0)
            tasks = [
                asyncio.ensure_future(fe.knn("t", rng.uniform(0, 100, 2), 4))
                for _ in range(50)
            ]
            outs = await asyncio.gather(*tasks, return_exceptions=True)
            rejected = [o for o in outs if isinstance(o, Overloaded)]
            assert rejected
            assert all(e.retry_after is not None and e.retry_after > 0
                       for e in rejected)
            await fe.close()

        asyncio.run(go())


class TestDegradation:
    def test_degraded_replies_labelled_and_dominated(self):
        pts = _pts(1200, seed=7)
        idx = ShardedIndex(pts, 8)

        async def go():
            fe = Frontend(max_batch=8, queue_depth=256,
                          degrade_at=1, reject_at=10_000)
            fe.register_tenant("s", idx)
            rng = np.random.default_rng(11)
            qs = rng.uniform(0, 100, (60, 2))
            outs = await asyncio.gather(*[
                fe.knn("s", q.tolist(), 6) for q in qs
            ])
            degraded = [(q, r) for q, r in zip(qs, outs) if r.approximate]
            assert degraded, "degrade_at=1 must degrade queued kNN"
            exact_d2, _ = idx.knn(qs, 6)
            for i, (q, r) in enumerate(zip(qs, outs)):
                d2 = np.asarray(r.value[0])
                if r.approximate:
                    # rank-wise distance dominance vs the exact answer
                    e = exact_d2[i]
                    fin = np.isfinite(d2) & np.isfinite(e)
                    assert np.all(d2[fin] >= e[fin] - 1e-9)
                else:
                    assert np.allclose(d2, exact_d2[i])
            samples = [{"q": q, "k": 6, "d2": np.asarray(r.value[0]),
                        "gid": np.asarray(r.value[1])} for q, r in degraded]
            assert verify_degraded(idx, samples) == len(samples)
            assert fe.snapshot()["per_tenant"]["s"]["degraded"] == len(degraded)
            await fe.close()

        asyncio.run(go())

    def test_unsharded_tenant_never_degrades(self):
        async def go():
            fe = Frontend(max_batch=8, queue_depth=256,
                          degrade_at=1, reject_at=10_000)
            fe.register_tenant("k", KDTree(_pts()))
            outs = await asyncio.gather(*[
                fe.knn("k", [float(i), 0.0], 3) for i in range(40)
            ])
            assert all(not r.approximate for r in outs)
            await fe.close()

        asyncio.run(go())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100), k=st.integers(1, 12))
    def test_property_degraded_knn_dominated_and_labelled(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, (rng.integers(50, 400), 2))
        idx = ShardedIndex(pts, int(rng.integers(2, 9)))

        async def go():
            fe = Frontend(max_batch=4, queue_depth=512,
                          degrade_at=1, reject_at=10_000)
            fe.register_tenant("s", idx)
            qs = rng.uniform(0, 100, (16, 2))
            outs = await asyncio.gather(*[
                fe.knn("s", q.tolist(), k) for q in qs
            ])
            exact_d2, _ = idx.knn(qs, k)
            for i, r in enumerate(outs):
                d2 = np.asarray(r.value[0])
                fin = np.isfinite(d2) & np.isfinite(exact_d2[i])
                # degraded or not: answers never beat the exact kNN,
                # and only degraded ones may differ from it
                assert np.all(d2[fin] >= exact_d2[i][fin] - 1e-9)
                if not r.approximate:
                    assert np.allclose(d2, exact_d2[i])
            await fe.close()

        asyncio.run(go())


class TestCancellationAndTimeout:
    def test_timeout_is_typed_and_dispatcher_survives(self):
        async def go():
            fe = _frontend(KDTree(_pts(3000, seed=2)), max_batch=4)
            with pytest.raises(RequestTimeout):
                await fe.knn("t", [1.0, 1.0], 4, timeout=1e-9)
            # the dispatcher skipped the cancelled future and keeps serving
            r = await fe.knn("t", [2.0, 2.0], 4)
            assert not r.approximate
            await fe.close()

        asyncio.run(go())

    def test_expired_request_never_reaches_the_index(self):
        clock = FakeClock()
        tree = KDTree(_pts())
        walk = tree.knn
        calls = []

        def counting_walk(*a, **kw):
            calls.append(1)
            return walk(*a, **kw)

        tree.knn = counting_walk

        async def go():
            fe = _frontend(tree, clock=clock)
            task = asyncio.ensure_future(fe.knn("t", [1.0, 1.0], 3, timeout=5.0))
            await asyncio.sleep(0)  # enqueued at t=0; the dispatcher is due
            clock.advance(10.0)     # the deadline passes before the pick
            with pytest.raises(RequestTimeout):
                await task
            assert not calls
            r = await fe.knn("t", [2.0, 2.0], 3)
            assert not r.approximate and calls == [1]
            await fe.close()

        asyncio.run(go())

    def test_cancelled_task_does_not_wedge_queue(self):
        async def go():
            fe = _frontend(KDTree(_pts()), max_batch=4)
            task = asyncio.ensure_future(fe.knn("t", [5.0, 5.0], 3))
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            outs = await asyncio.gather(*[
                fe.knn("t", [float(i), 1.0], 3) for i in range(20)
            ])
            assert len(outs) == 20
            assert fe.pending() == 0
            await fe.close()

        asyncio.run(go())


class TestClose:
    def test_close_is_idempotent(self):
        async def go():
            fe = _frontend(KDTree(_pts()))
            await fe.knn("t", [0.0, 0.0], 1)
            await fe.close()
            await fe.close()
            await fe.close()
            with pytest.raises(ServiceClosed):
                await fe.knn("t", [0.0, 0.0], 1)
            with pytest.raises(ServiceClosed):
                fe.register_tenant("new", KDTree(_pts()))

        asyncio.run(go())

    def test_close_drains_queued_requests(self):
        async def go():
            fe = _frontend(KDTree(_pts(2000, seed=3)), max_batch=8)
            tasks = [
                asyncio.ensure_future(fe.knn("t", [float(i % 50), 2.0], 3))
                for i in range(60)
            ]
            await asyncio.sleep(0)  # let them enqueue
            await fe.close()  # drain=True: everything completes
            outs = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(not isinstance(o, Exception) for o in outs)

        asyncio.run(go())

    def test_close_nodrain_rejects_typed(self):
        async def go():
            fe = _frontend(KDTree(_pts(2000, seed=4)), max_batch=4)
            tasks = [
                asyncio.ensure_future(fe.knn("t", [float(i % 50), 3.0], 3))
                for i in range(60)
            ]
            await asyncio.sleep(0)
            await fe.close(drain=False)
            outs = await asyncio.gather(*tasks, return_exceptions=True)
            errs = [o for o in outs if isinstance(o, Exception)]
            assert errs, "undrained queue must be rejected"
            assert all(isinstance(e, ServiceClosed) for e in errs)

        asyncio.run(go())


class TestFrontendMetrics:
    def test_per_tenant_labels_in_prometheus_text(self):
        async def go():
            fe = _frontend()
            fe.register_tenant("acme", KDTree(_pts()))
            fe.register_tenant("zen", KDTree(_pts(seed=5)))
            await fe.knn("acme", [1.0, 1.0], 2)
            await fe.knn("acme", [1.0, 1.0], 2)
            await fe.knn("zen", [2.0, 2.0], 2)
            text = fe.metrics_text()
            assert 'frontend_requests_total{tenant="acme"} 2' in text
            assert 'frontend_requests_total{tenant="zen"} 1' in text
            assert 'frontend_queue_depth{tenant="acme"} 0' in text
            assert 'frontend_hit_rate{tenant="acme"} 0.5' in text
            snap = fe.registry.snapshot()
            fam = snap["frontend_completed_total"]
            assert fam['{tenant="acme"}'] == 2
            await fe.close()

        asyncio.run(go())


# ---------------------------------------------------------------------------
# open-loop load harness
# ---------------------------------------------------------------------------
class TestLoadHarness:
    def test_percentile_helper(self):
        assert percentile([], 99) == 0.0
        assert percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)

    def test_run_open_loop_accounts_everything(self):
        pts = _pts(800, seed=9)

        async def go():
            fe = Frontend(max_batch=32, queue_depth=64,
                          degrade_at=8, reject_at=64)
            fe.register_tenant("heavy", ShardedIndex(pts, 8), weight=1.0)
            fe.register_tenant("light", KDTree(pts), weight=4.0)
            loads = [
                TenantLoad("heavy", zipf_trace(pts, 300, kinds=("knn",), k=5,
                                               seed=1),
                           rate=20_000.0, pattern="bursty", seed=2),
                TenantLoad("light", zipf_trace(pts, 40, kinds=("knn", "ball"),
                                               k=5, seed=3),
                           rate=400.0, seed=4),
            ]
            rep = await run_open_loop(fe, loads, max_degraded_samples=16)
            await fe.close()
            return rep

        rep = asyncio.run(go())
        h, li = rep.per_tenant["heavy"], rep.per_tenant["light"]
        assert h.offered == 300 and li.offered == 40
        # every request is accounted exactly once
        assert (h.completed + h.rejected + h.quota_rejected + h.timeouts
                + h.errors) == 300
        assert h.errors == 0 and li.errors == 0
        # bounded: at worst reject_at held at trip time plus the
        # under-share tenant filling its weighted share afterwards
        assert rep.queue_high_watermark <= 2 * 64
        d = rep.to_json()
        assert d["offered"] == 340
        assert 0.0 <= d["rejection_rate"] <= 1.0
        assert "p999" in d["per_tenant"]["light"]
        assert isinstance(rep.summary(), str)

    def test_verify_degraded_detects_tampering(self):
        pts = _pts(400, seed=13)
        idx = ShardedIndex(pts, 4)
        d2, gid = idx.knn_home(pts[:1], 4)
        good = [{"q": pts[0], "k": 4, "d2": d2[0], "gid": gid[0]}]
        assert verify_degraded(idx, good) == 1
        bad = [{"q": pts[0], "k": 4,
                "d2": d2[0] * 0.5, "gid": gid[0]}]  # fabricated distances
        with pytest.raises(AssertionError):
            verify_degraded(idx, bad)
