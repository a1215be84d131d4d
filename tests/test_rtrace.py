"""Tests for request tracing: attribution, flight recorder, SLOs, exemplars."""

import asyncio
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedIndex
from repro.frontend import (
    Frontend,
    Overloaded,
    QuotaExceeded,
    RequestTimeout,
)
from repro.frontend.load import TenantLoad, run_open_loop
from repro.kdtree import KDTree
from repro.kdtree.batch import execute_requests
from repro.obs import dash
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.rtrace import (
    PHASES,
    FlightRecorder,
    RequestTrace,
    TailSampler,
    batch_context,
    batch_subtree,
    current_trace_ids,
    flight_chrome_trace,
    new_trace_id,
    partition_work,
    percentile,
    validate_request_trace,
    write_flight_trace,
)
from repro.obs.slo import Objective, SLOTracker
from repro.obs.span import SpanRecorder, disable_tracing, enable_tracing
from repro.parlay.scheduler import use_backend
from repro.serve.service import GeometryService, Request


def _pts(n=400, d=2, seed=0):
    return np.random.default_rng(seed).uniform(0, 100, (n, d))


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# exact proportional attribution
# ---------------------------------------------------------------------------
class TestPartitionWork:
    @given(
        st.floats(0.0, 1e9),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                 max_size=64),
    )
    @settings(max_examples=300, deadline=None)
    def test_partitions_exactly(self, total, weights):
        shares = partition_work(total, weights)
        assert len(shares) == len(weights)
        assert all(s >= 0.0 for s in shares)
        assert math.fsum(shares) == total

    def test_proportionality(self):
        shares = partition_work(10.0, [1.0, 3.0])
        assert shares[0] == pytest.approx(2.5)
        assert shares[1] == pytest.approx(7.5)

    def test_zero_and_bad_weights_get_nothing(self):
        shares = partition_work(6.0, [0.0, float("nan"), 2.0, -1.0])
        assert shares[0] == shares[1] == shares[3] == 0.0
        assert shares[2] == 6.0

    def test_all_zero_weights_split_evenly(self):
        shares = partition_work(9.0, [0.0, 0.0, 0.0])
        assert shares == pytest.approx([3.0, 3.0, 3.0])
        assert math.fsum(shares) == 9.0

    def test_empty_and_zero_total(self):
        assert partition_work(1.0, []) == []
        assert partition_work(0.0, [1.0, 2.0]) == [0.0, 0.0]

    def test_bad_total_raises(self):
        with pytest.raises(ValueError):
            partition_work(-1.0, [1.0])
        with pytest.raises(ValueError):
            partition_work(float("inf"), [1.0])

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    def test_batch_charges_partition_exactly_across_backends(self, backend):
        """Per-request cost shares always re-sum to the batch's total."""
        pts = _pts(600)
        tree = KDTree(pts)
        qs = _pts(40, seed=3)
        requests = (
            [("knn", q, {"k": 4}) for q in qs[:20]]
            + [("ball", (c, 5.0), {}) for c in qs[20:30]]
            + [("box", np.stack([c - 2.0, c + 2.0]), {}) for c in qs[30:]]
        )
        with use_backend(backend):
            costs: list = []
            from repro.parlay.workdepth import tracker

            tracker.reset()
            with tracker.frame() as cost:
                execute_requests(tree, requests, costs_out=costs)
        assert len(costs) == len(requests)
        assert all(c >= 0.0 for c in costs)
        shares = partition_work(cost.work, costs)
        assert math.fsum(shares) == cost.work

    def test_costs_out_do_not_change_results(self):
        pts = _pts(300)
        tree = KDTree(pts)
        qs = _pts(10, seed=5)
        requests = [("knn", q, {"k": 3}) for q in qs]
        plain = execute_requests(tree, requests)
        costs: list = []
        with_costs = execute_requests(tree, requests, costs_out=costs)
        for (d0, g0), (d1, g1) in zip(plain, with_costs):
            np.testing.assert_array_equal(d0, d1)
            np.testing.assert_array_equal(g0, g1)


# ---------------------------------------------------------------------------
# tail sampling + flight recorder
# ---------------------------------------------------------------------------
class TestTailSampler:
    def test_warmup_retains_everything(self):
        s = TailSampler(window=64, tail_frac=0.10)
        assert s.note(0.001)  # threshold still 0 -> tail

    def test_threshold_tracks_the_decile(self):
        s = TailSampler(window=128, tail_frac=0.10)
        for i in range(256):
            s.note(float(i % 100) / 1000.0)
        assert 0.080 <= s.threshold <= 0.100
        assert s.note(0.099)
        assert not s.note(0.001)


class TestFlightRecorder:
    def _trt(self, latency=0.01, outcome="ok", **kw):
        return RequestTrace(
            trace_id=new_trace_id(), tenant="t", kind="knn",
            t_start=0.0, latency=latency, outcome=outcome, **kw
        )

    def test_errors_shed_degraded_always_retained(self):
        fr = FlightRecorder(capacity=16)
        # train the window so ordinary latencies are not tail
        for _ in range(200):
            fr.observe(self._trt(latency=0.001))
        assert fr.observe(self._trt(outcome="error")) == "error"
        assert fr.observe(self._trt(outcome="shed")) == "shed"
        assert fr.observe(self._trt(outcome="timeout")) == "shed"
        assert fr.observe(self._trt(approximate=True)) == "degraded"
        assert fr.observe(self._trt(latency=10.0)) == "tail"
        assert fr.observe(self._trt(latency=1e-7)) is None

    def test_capacity_evicts_oldest(self):
        fr = FlightRecorder(capacity=4)
        ids = []
        for _ in range(10):
            t = self._trt(outcome="error")
            ids.append(t.trace_id)
            fr.observe(t)
        assert len(fr) == 4
        assert fr.lookup(ids[0]) is None
        assert fr.lookup(ids[-1]) is not None

    def test_slowest_and_snapshot(self):
        fr = FlightRecorder(capacity=8)
        for ms in (5, 1, 9):
            fr.observe(self._trt(latency=ms / 1000.0, outcome="error"))
        slow = fr.slowest(2)
        assert [round(t.latency * 1e3) for t in slow] == [9, 5]
        snap = fr.snapshot()
        assert snap["seen"] == 3 and snap["retained"] == 3
        assert snap["by_reason"] == {"error": 3}

    def test_registry_counters(self):
        reg = MetricsRegistry()
        fr = FlightRecorder(capacity=8, registry=reg)
        fr.observe(self._trt(outcome="error"))
        fr.observe(self._trt(latency=1.0))  # warm-up tail
        snap = reg.snapshot()
        assert snap["obs_flight_seen_total"] == 2
        by = snap["obs_flight_retained_total"]
        assert by['{reason="error"}'] == 1
        assert by['{reason="tail"}'] == 1


# ---------------------------------------------------------------------------
# propagation + subtree extraction
# ---------------------------------------------------------------------------
class TestPropagation:
    def test_batch_context_nests_and_restores(self):
        assert current_trace_ids() is None
        with batch_context(("a", "b")):
            assert current_trace_ids() == ("a", "b")
            with batch_context(()):
                assert current_trace_ids() is None
        assert current_trace_ids() is None

    @pytest.mark.parametrize("backend", ["sequential", "threads", "processes"])
    def test_shard_spans_tagged(self, backend):
        """Every shard span names the batch's requests, on every backend;
        on ``processes`` those are the spans forwarded from workers."""
        pts = _pts(2000)
        idx = ShardedIndex(pts, 4)
        rec = SpanRecorder()
        try:
            with use_backend(backend, 2):
                enable_tracing(rec)
                try:
                    with batch_context(("tid_x",)):
                        idx.knn(_pts(8, seed=2), k=3)
                finally:
                    disable_tracing()
        finally:
            idx.close()
        shard = [s for s in rec.spans() if s.name.startswith("cluster.")
                 and s.name.endswith(".shard")]
        assert shard, "no shard spans recorded"
        assert all(s.meta and s.meta.get("trace_ids") == ("tid_x",)
                   for s in shard)
        assert all((backend == "processes") == ("pid" in s.meta)
                   for s in shard)

    def test_batch_subtree_extraction(self):
        rec = SpanRecorder()
        enable_tracing(rec)
        try:
            from repro.obs.span import span

            with span("unrelated", cat="x"):
                pass
            mark = rec.mark()
            with span("serve.dispatch", cat="serve"):
                with span("child", cat="x"):
                    pass
            with span("concurrent-other", cat="x"):
                pass
            sid, sub = batch_subtree(rec.spans_since(mark))
        finally:
            disable_tracing()
        names = {s.name for s in sub}
        assert names == {"serve.dispatch", "child"}
        assert sub[0].sid == sid and sub[0].name == "serve.dispatch"

    def test_batch_subtree_missing_root(self):
        assert batch_subtree([]) == (None, [])


# ---------------------------------------------------------------------------
# validation + Perfetto export
# ---------------------------------------------------------------------------
class TestValidation:
    def test_ok_trace_with_mismatched_phases_flagged(self):
        trt = RequestTrace(
            trace_id="t1", tenant="a", kind="knn", t_start=0.0,
            latency=1.0, phases={"queue_wait": 0.2}, outcome="ok",
        )
        probs = validate_request_trace(trt)
        assert any("phases sum" in p for p in probs)

    def test_unknown_and_negative_phases_flagged(self):
        trt = RequestTrace(
            trace_id="t1", tenant="a", kind="knn", t_start=0.0,
            latency=1.0, phases={"bogus": -0.5}, outcome="error",
        )
        probs = validate_request_trace(trt)
        assert any("unknown phase" in p for p in probs)
        assert any("negative phase" in p for p in probs)

    def test_chrome_trace_shapes(self, tmp_path):
        trt = RequestTrace(
            trace_id="tid_1", tenant="a", kind="knn", t_start=1.0,
            latency=0.010,
            phases={"queue_wait": 0.004, "dispatch": 0.001,
                    "compute": 0.005, "merge": 0.0, "cache": 0.0},
        )
        path = tmp_path / "flight.json"
        obj = write_flight_trace(path, [trt])
        on_disk = json.loads(path.read_text())
        assert on_disk["otherData"]["traces"] == 1
        names = [e["name"] for e in obj["traceEvents"] if e["ph"] == "X"]
        assert names == ["queue_wait", "dispatch", "compute"]

    def test_chrome_trace_empty(self):
        obj = flight_chrome_trace([])
        assert obj["otherData"]["traces"] == 0


# ---------------------------------------------------------------------------
# SLO burn rates
# ---------------------------------------------------------------------------
class TestSLO:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            Objective(latency_target=0.0)
        with pytest.raises(ValueError):
            Objective(latency_pct=100.0)
        with pytest.raises(ValueError):
            Objective(availability=1.0)
        obj = Objective(latency_target=0.1, latency_pct=99.0,
                        availability=0.99)
        assert obj.latency_budget == pytest.approx(0.01)
        assert obj.availability_budget == pytest.approx(0.01)

    def test_burn_rate_math(self):
        clk = FakeClock(1000.0)
        slo = SLOTracker(clock=clk)
        slo.set_objective("t", Objective(latency_target=0.1, latency_pct=99.0,
                                         availability=0.999))
        for _ in range(99):
            slo.record("t", latency=0.05)
        slo.record("t", latency=0.5)  # 1/100 slow = exactly the 1% budget
        assert slo.burn_rate("t", "latency", "5m") == pytest.approx(1.0)
        assert slo.budget_remaining("t", "latency", "5m") == pytest.approx(0.0)
        # unanswered request burns availability, not latency
        slo.record("t", latency=None)
        assert slo.burn_rate("t", "availability", "5m") == pytest.approx(
            (1 / 101) / 0.001
        )
        assert slo.burn_rate("t", "latency", "5m") == pytest.approx(1.0)

    def test_windows_expire_on_fake_clock(self):
        clk = FakeClock(1000.0)
        slo = SLOTracker(clock=clk)
        slo.set_objective("t", Objective())
        slo.record("t", latency=99.0)  # slow: burns latency budget
        assert slo.burn_rate("t", "latency", "5m") > 0
        clk.advance(400.0)  # past the 5m window, inside 1h
        assert slo.burn_rate("t", "latency", "5m") == 0.0
        assert slo.burn_rate("t", "latency", "1h") > 0
        clk.advance(4000.0)  # past 1h too
        assert slo.burn_rate("t", "latency", "1h") == 0.0

    def test_gauges_on_registry(self):
        reg = MetricsRegistry()
        clk = FakeClock(50.0)
        slo = SLOTracker(clock=clk, registry=reg)
        slo.set_objective("acme", Objective())
        slo.record("acme", latency=99.0)
        text = reg.render_prometheus()
        assert 'slo_burn_rate{slo="latency",tenant="acme",window="5m"}' in text \
            or 'slo_burn_rate{tenant="acme",slo="latency",window="5m"}' in text

    def test_unknown_tenant_ignored(self):
        slo = SLOTracker(clock=FakeClock())
        slo.record("ghost", latency=0.1)  # no objective: no-op
        assert slo.burn_rate("ghost", "latency", "5m") == 0.0

    def test_snapshot_shape(self):
        slo = SLOTracker(clock=FakeClock(10.0))
        slo.set_objective("t")
        snap = slo.snapshot()
        assert set(snap["t"]["burn"]) == {"latency", "availability"}
        assert set(snap["t"]["burn"]["latency"]) == {"5m", "1h"}


# ---------------------------------------------------------------------------
# registry: exemplars + crash-proof exposition
# ---------------------------------------------------------------------------
class TestRegistryHardening:
    def test_histogram_exemplar_rendered(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency")
        h.observe(0.004, exemplar={"trace_id": "abc123"})
        text = reg.render_prometheus()
        assert '# {trace_id="abc123"}' in text

    def test_raising_gauge_does_not_abort_dump(self):
        reg = MetricsRegistry()
        reg.gauge("boom", "raises").set_function(
            lambda: 1 / 0
        )
        c = reg.counter("fine_total", "works")
        c.inc(3)
        text = reg.render_prometheus()
        assert "fine_total 3" in text
        assert "obs_gauge_errors_total 1" in text
        snap = reg.snapshot()
        assert snap["fine_total"] == 3
        assert snap["obs_gauge_errors_total"] >= 1

    def test_no_gauge_errors_metric_when_clean(self):
        reg = MetricsRegistry()
        reg.counter("fine_total", "works").inc()
        assert "obs_gauge_errors_total" not in reg.render_prometheus()

    def test_help_type_once_per_family(self):
        reg = MetricsRegistry()
        h = reg.histogram("phase_seconds", "phases", labels=("phase",))
        h.labels("a").observe(0.1)
        h.labels("b").observe(0.2)
        text = reg.render_prometheus()
        assert text.count("# HELP phase_seconds ") == 1
        assert text.count("# TYPE phase_seconds ") == 1


# ---------------------------------------------------------------------------
# end-to-end through the front-end
# ---------------------------------------------------------------------------
class TestFrontendTracing:
    def _frontend(self, n=400, **kw):
        fe = Frontend(max_batch=64, queue_depth=256, **kw)
        fe.register_tenant("acme", KDTree(_pts(n)))
        return fe

    def test_reply_carries_trace_and_exact_phases(self):
        async def go():
            fe = self._frontend()
            try:
                qs = _pts(30, seed=7)
                replies = await asyncio.gather(*[
                    fe.knn("acme", q, 4) for q in qs
                ])
                # the same queries again: answered from the cache
                hits = await asyncio.gather(*[
                    fe.knn("acme", q, 4) for q in qs
                ])
            finally:
                await fe.close()
            for r in replies + hits:
                trt = r.trace
                assert trt.trace_id is not None and trt.outcome == "ok"
                assert trt.cache_hit == r.cache_hit
                assert set(trt.phases) == set(PHASES)
                assert all(v >= 0.0 for v in trt.phases.values())
                # ok phases sum to the record's latency
                assert validate_request_trace(trt) == []
                # a retained request's reply holds the recorder's record
                retained = fe.flight.lookup(trt.trace_id)
                assert retained is None or retained is trt
            assert any(fe.flight.lookup(r.trace.trace_id) is r.trace
                       for r in replies + hits)
            assert all(r.cache_hit for r in hits)
            for r in hits:
                assert r.trace.cache_hit and r.trace.work == 0.0
                assert r.trace.batch_size == 0

        asyncio.run(go())

    def test_retained_traces_validate_and_exemplars_resolve(self):
        async def go():
            fe = self._frontend()
            rec = SpanRecorder()
            enable_tracing(rec)
            try:
                qs = _pts(60, seed=9)
                await asyncio.gather(*[fe.knn("acme", q, 4) for q in qs])
            finally:
                disable_tracing()
                await fe.close()
            retained = fe.flight.retained()
            assert retained, "flight recorder retained nothing"
            for trt in retained:
                assert validate_request_trace(trt) == []
            # with the recorder on, ok-tail traces carry the batch subtree
            assert any(t.spans for t in retained if t.outcome == "ok")
            # every exemplar in the exposition resolves to a retained trace
            text = fe.metrics_text()
            ex_ids = set()
            for line in text.splitlines():
                if "# {trace_id=" in line:
                    ex_ids.add(line.split('trace_id="')[1].split('"')[0])
            assert ex_ids, "no exemplars rendered"
            for tid in ex_ids:
                assert fe.flight.lookup(tid) is not None

        asyncio.run(go())

    def test_shed_requests_flight_recorded(self):
        async def go():
            fe = self._frontend()
            # one-token bucket refilling at a glacial rate: the second
            # request is always shed on quota
            fe.register_tenant("capped", KDTree(_pts(100)), rate=0.001,
                               burst=1.0)
            try:
                q = _pts(1)[0]
                await fe.knn("capped", q, 2)
                with pytest.raises(Exception):
                    await fe.knn("capped", q, 2)
            finally:
                await fe.close()
            shed = [t for t in fe.flight.retained() if t.outcome == "shed"]
            assert len(shed) == 1
            assert shed[0].tenant == "capped"

        asyncio.run(go())

    def test_rtrace_off_is_silent(self):
        async def go():
            fe = self._frontend(rtrace=False)
            q = _pts(1)[0]
            before = int(new_trace_id()[-8:], 16)
            try:
                r = await fe.knn("acme", q, 3)
                hit = await fe.knn("acme", q, 3)
            finally:
                await fe.close()
            # no trace id was minted between the two probes
            assert int(new_trace_id()[-8:], 16) == before + 1
            assert r.trace is None and hit.trace is None
            assert hit.cache_hit and not r.cache_hit
            assert fe.flight is None and fe.slo is None
            assert "frontend_latency_seconds" not in fe.metrics_text()

        asyncio.run(go())

    def test_snapshot_has_flight_and_slo(self):
        async def go():
            fe = self._frontend()
            try:
                await fe.knn("acme", _pts(1)[0], 3)
            finally:
                await fe.close()
            snap = fe.snapshot()
            assert "flight" in snap and "slo" in snap
            assert snap["slo"]["acme"]["burn"]["latency"]["5m"] >= 0.0

        asyncio.run(go())

    def test_dash_renders(self):
        async def go():
            fe = self._frontend()
            try:
                qs = _pts(20, seed=11)
                await asyncio.gather(*[fe.knn("acme", q, 4) for q in qs])
            finally:
                await fe.close()
            frame = dash.render(fe)
            assert "repro dash" in frame
            assert "acme" in frame
            assert "flight:" in frame

        asyncio.run(go())

    def test_load_report_has_phase_breakdown(self):
        async def go():
            fe = self._frontend(n=300)
            loads = [TenantLoad(
                "acme",
                [{"op": "knn", "q": q, "k": 3} for q in _pts(40, seed=13)],
                rate=2000.0,
            )]
            try:
                return await run_open_loop(fe, loads)
            finally:
                await fe.close()

        report = asyncio.run(go())
        rep = report.per_tenant["acme"]
        assert rep.completed > 0
        assert rep.phases, "phase breakdown missing from the load report"
        assert set(rep.phases) <= set(PHASES)
        assert all(
            set(stats) == {"mean", "p50", "p99"}
            for stats in rep.phases.values()
        )
        assert "phases" in rep.to_json()

    def test_percentile_reexported(self):
        from repro.frontend.load import percentile as lp

        assert lp is percentile
        assert percentile([], 99.0) == 0.0
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0


# ---------------------------------------------------------------------------
# service-layer attribution plumbing
# ---------------------------------------------------------------------------
class TestServiceAttribution:
    def test_record_carries_batch_attribution(self):
        svc = GeometryService(max_batch=32)
        svc.register("d", KDTree(_pts(300)))
        q = _pts(1, seed=3)[0]
        trt = RequestTrace(new_trace_id(), "d", "knn", 0.0)
        (o,) = svc.execute("d", [Request("knn", q, {"k": 3}, trt)])
        assert o.error is None
        # the service fills the request's own record in place
        assert o.trace is trt
        assert trt.batch_size == 1 and not trt.cache_hit
        assert trt.work > 0.0 and trt.depth > 0.0
        assert trt.phases["compute"] >= 0.0 and trt.phases["merge"] >= 0.0
        # a request without a record gets a bare one, with no trace id
        (o,) = svc.execute("d", [Request("knn", q, {"k": 3})])
        assert o.trace.trace_id is None
        assert o.trace.cache_hit and o.trace.work == 0.0
        svc.close()

    def test_batch_span_links_member_trace_ids(self):
        svc = GeometryService(max_batch=32)
        svc.register("d", KDTree(_pts(300)))
        rec = SpanRecorder()
        enable_tracing(rec)
        try:
            trts = [RequestTrace(new_trace_id(), "d", "knn", 0.0)
                    for _ in range(4)]
            outs = svc.execute("d", [
                Request("knn", q, {"k": 3}, c)
                for q, c in zip(_pts(4, seed=5), trts)
            ])
            assert all(o.error is None for o in outs)
        finally:
            disable_tracing()
            svc.close()
        batch = [s for s in rec.spans() if s.name == "serve.dispatch"]
        assert batch
        links = batch[0].meta.get("links")
        assert links is not None
        for c in trts:
            assert c.trace_id in links
            assert c.batch_sid == batch[0].sid
        # each member got its share; shares re-sum to the batch span's work
        assert math.fsum(o.trace.work for o in outs) == batch[0].work


# ---------------------------------------------------------------------------
# metric oracle: every front-end metric is a tally of replies and errors
# ---------------------------------------------------------------------------
def _scripted_run(rtrace: bool):
    """One fake-clock run through every outcome the front end books.

    Returns ``(fe, clk, submitted, replies, errors)``: per tenant, the
    number of submissions, the replies and the raised errors.
    """
    clk = FakeClock(1000.0)
    fe = Frontend(max_batch=64, queue_depth=4, degrade_at=2, reject_at=6,
                  clock=clk, rtrace=rtrace)
    pts = _pts(400)
    fe.register_tenant("dyn", ShardedIndex(pts, 4))
    fe.register_tenant("kd", KDTree(pts))
    fe.register_tenant("capped", KDTree(pts), rate=1.0, burst=1.0)
    qs = _pts(10, seed=21)
    submitted = {"dyn": 0, "kd": 0, "capped": 0}
    replies = {name: [] for name in submitted}
    errors = {name: [] for name in submitted}

    async def one(tenant, coro):
        submitted[tenant] += 1
        try:
            replies[tenant].append(await coro)
        except Exception as exc:
            errors[tenant].append(exc)

    async def go():
        try:
            await one("kd", fe.knn("kd", qs[0], 3))            # exact
            await one("kd", fe.knn("kd", qs[0], 3))            # cache hit
            await one("kd", fe.knn("kd", np.zeros(3), 3))      # bad request
            await one("dyn", fe.insert("dyn", qs[:8] + 0.5))   # mutation
            await one("capped", fe.knn("capped", qs[0], 3))    # exact
            await one("capped", fe.knn("capped", qs[1], 3))    # quota shed
            # one burst, submitted before the dispatcher runs
            tasks = [asyncio.ensure_future(one("kd", fe.knn(
                "kd", qs[1], 3, timeout=60.0)))]               # times out
            tasks += [asyncio.ensure_future(one("dyn", fe.knn("dyn", q, 3)))
                      for q in qs[2:7]]     # exact, 3 degraded, depth shed
            tasks += [asyncio.ensure_future(one("kd", fe.knn("kd", q, 3)))
                      for q in qs[7:9]]     # exact, admission shed
            await asyncio.sleep(0)
            assert fe.pending() == 6
            clk.advance(100.0)  # past the first request's deadline
            await asyncio.gather(*tasks)
        finally:
            await fe.close()

    asyncio.run(go())
    kinds = [type(e) for errs in errors.values() for e in errs]
    assert kinds.count(QuotaExceeded) == 1
    assert kinds.count(Overloaded) == 2
    assert kinds.count(RequestTimeout) == 1
    assert kinds.count(ValueError) == 1
    assert sum(r.approximate for r in replies["dyn"]) == 3
    assert sum(r.cache_hit for r in replies["kd"]) == 1
    return fe, clk, submitted, replies, errors


class TestMetricOracle:
    @pytest.mark.parametrize("rtrace", [True, False])
    def test_metrics_are_tallies_of_replies_and_errors(self, rtrace):
        fe, clk, submitted, replies, errors = _scripted_run(rtrace)
        snap = fe.registry.snapshot()

        def fam(name, tenant):
            return snap[name][f'{{tenant="{tenant}"}}']

        for name in submitted:
            reps, errs = replies[name], errors[name]
            assert fam("frontend_requests_total", name) == submitted[name]
            assert fam("frontend_completed_total", name) == len(reps)
            assert fam("frontend_cache_hits_total", name) == sum(
                r.cache_hit for r in reps)
            assert fam("frontend_degraded_total", name) == sum(
                r.approximate for r in reps)
            assert fam("frontend_rejected_total", name) == sum(
                isinstance(e, Overloaded) for e in errs)
            assert fam("frontend_quota_rejections_total", name) == sum(
                isinstance(e, QuotaExceeded) for e in errs)
            assert fam("frontend_queue_depth", name) == 0
        assert snap["frontend_admission_state"] == {
            "normal": 0, "degraded": 1, "overloaded": 2}[fe.admission.state]

        if not rtrace:
            assert all(r.trace is None for rs in replies.values() for r in rs)
            assert "frontend_latency_seconds" not in snap
            assert "frontend_phase_seconds" not in snap
            return

        target = Objective().latency_target
        for name in submitted:
            reps, errs = replies[name], errors[name]
            # histograms hold exactly the answered requests' records
            want = Histogram("x", "", fe.registry._lock)
            for r in reps:
                want.observe(r.trace.latency)
            got = fam("frontend_latency_seconds", name)
            assert got["count"] == len(reps)
            assert got["buckets"] == want.value["buckets"]
            assert got["sum"] == pytest.approx(want.value["sum"], rel=1e-9)
            for p in PHASES:
                want = Histogram("x", "", fe.registry._lock)
                for r in reps:
                    want.observe(r.trace.phases[p])
                got = snap["frontend_phase_seconds"][
                    f'{{tenant="{name}",phase="{p}"}}']
                assert got["count"] == len(reps)
                assert got["buckets"] == want.value["buckets"]
            # SLO windows: answered vs not, fast vs slow answers
            counts = fe.slo._counts
            for _, sec in fe.slo.windows:
                assert counts[(name, "availability")].totals(clk(), sec) == (
                    len(reps), len(errs))
                fast = sum(r.trace.latency <= target for r in reps)
                assert counts[(name, "latency")].totals(clk(), sec) == (
                    fast, len(reps) - fast)


# ---------------------------------------------------------------------------
# exemplars resolve after the flight recorder evicts their traces
# ---------------------------------------------------------------------------
def test_exemplars_of_evicted_traces_are_not_rendered():
    async def go():
        fe = Frontend(max_batch=64, queue_depth=256, clock=FakeClock(1.0))
        fe.register_tenant("a", KDTree(_pts(400)))
        fe.register_tenant("capped", KDTree(_pts(100)), rate=1.0, burst=1.0)
        shed = 0
        try:
            for q in _pts(20, seed=7):
                await fe.knn("a", q, 4)
            q = _pts(1)[0]
            for _ in range(600):
                try:
                    await fe.knn("capped", q, 2)
                except Exception:
                    shed += 1
        finally:
            await fe.close()
        return fe, shed

    fe, shed = asyncio.run(go())
    assert shed == 599
    assert len(fe.flight) == fe.flight.capacity
    ex_ids = [line.split('trace_id="')[1].split('"')[0]
              for line in fe.metrics_text().splitlines()
              if "# {trace_id=" in line]
    assert all(fe.flight.lookup(tid) is not None for tid in ex_ids), (
        "an exemplar names a trace the flight recorder evicted")
