"""Tests for repro.obs: span tracing, exporters, and the metrics registry."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    chrome_trace,
    critical_path,
    self_work,
    simulate_schedule,
    span,
    span_roots,
    summary,
    totals,
    trace,
    tracing_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.parlay import parallel_do, tracker, use_backend
from repro.parlay.workdepth import charge


# ----------------------------------------------------------------------
# recorder basics
# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_begin_end_records_in_sid_order(self):
        rec = SpanRecorder()
        a = rec.begin("outer")
        b = rec.begin("inner")
        rec.end(b, 10.0, 2.0)
        rec.end(a, 30.0, 5.0)
        spans = rec.spans()
        assert [s.name for s in spans] == ["outer", "inner"]
        assert spans[1].parent == spans[0].sid
        assert spans[0].parent is None
        assert spans[0].work == 30.0 and spans[0].depth == 5.0
        assert all(s.t1 >= s.t0 for s in spans)

    def test_current_id_tracks_stack(self):
        rec = SpanRecorder()
        assert rec.current_id() is None
        a = rec.begin("a")
        assert rec.current_id() == a.sid
        rec.end(a, 0.0, 0.0)
        assert rec.current_id() is None

    def test_explicit_parent_overrides_stack(self):
        rec = SpanRecorder()
        a = rec.begin("a")
        b = rec.begin("b", parent=None)
        rec.end(b, 0, 0)
        rec.end(a, 0, 0)
        assert rec.spans()[1].parent is None

    def test_clear(self):
        rec = SpanRecorder()
        rec.end(rec.begin("x"), 1, 1)
        rec.clear()
        assert len(rec) == 0 and rec.spans() == []

    def test_bounded_drops_keep_tree_closed_under_parents(self):
        """Over-capacity spans are dropped at begin time, so a recorded
        span's parent is always recorded too (or a root)."""
        with trace("run", max_spans=5) as rec:
            for _ in range(4):
                with span("phase"):
                    for _ in range(5):
                        with span("leaf"):
                            charge(1, 1)
        spans = rec.spans()
        assert rec.dropped > 0
        assert len(spans) <= 5
        recorded = {s.sid for s in spans}
        for s in spans:
            assert s.parent is None or s.parent in recorded

    def test_max_spans_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(max_spans=0)


# ----------------------------------------------------------------------
# tracing over the runtime
# ----------------------------------------------------------------------
def _workload():
    with span("phase.a", batch=3):
        charge(100, 4)
        parallel_do([lambda: charge(50, 2), lambda: charge(70, 3)])
    with span("phase.b"):
        charge(10, 1)


class TestTracing:
    def test_disabled_span_is_noop(self):
        assert not tracing_enabled()
        with span("never.recorded") as c:
            assert c is None
        assert tracker.total().work == 0

    def test_trace_records_named_phases_and_tasks(self):
        with trace("run") as rec:
            _workload()
        names = [s.name for s in rec.spans()]
        assert names.count("run") == 1
        assert "phase.a" in names and "phase.b" in names
        assert names.count("parlay.task") == 2
        by_name = {s.name: s for s in rec.spans()}
        assert by_name["phase.a"].batch == 3
        # tasks parent under the phase that forked them
        root = by_name["run"]
        assert by_name["phase.a"].parent == root.sid
        for s in rec.spans():
            if s.name == "parlay.task":
                assert s.parent == by_name["phase.a"].sid

    def test_cost_parity_traced_vs_untraced(self):
        """Enabling tracing must not change the charged totals at all."""
        tracker.reset()
        _workload()
        plain = tracker.total()
        tracker.reset()
        with trace("run"):
            _workload()
        traced = tracker.total()
        assert traced.work == plain.work
        assert traced.depth == plain.depth
        assert plain.work > 0

    def test_root_span_reconciles_with_tracker_totals(self):
        tracker.reset()
        with trace("run") as rec:
            _workload()
        W, D = totals(rec.spans())
        t = tracker.total()
        assert W == t.work and D == t.depth

    def test_trace_restores_previous_tracer_on_exception(self):
        with pytest.raises(RuntimeError):
            with trace("run"):
                charge(5, 1)
                raise RuntimeError
        assert not tracing_enabled()
        assert tracker.total().work == 5  # cost still folded out

    def test_threads_backend_tasks_parent_under_forking_span(self):
        with use_backend("threads", 4):
            with trace("run") as rec:
                with span("fork.site"):
                    parallel_do([lambda: charge(10, 1) for _ in range(4)])
        by_name = {}
        for s in rec.spans():
            by_name.setdefault(s.name, []).append(s)
        (site,) = by_name["fork.site"]
        tasks = by_name["parlay.task"]
        assert len(tasks) == 4
        assert all(t.parent == site.sid for t in tasks)
        assert all(t.backend == "threads" for t in tasks)
        # worker threads differ from the recording thread
        assert {t.tid for t in tasks} != {site.tid} or len({t.tid for t in tasks}) >= 1

    def test_algorithms_emit_named_phase_spans(self):
        from repro.hull import quickhull2d_parallel
        from repro.kdtree import KDTree
        from repro.seb.sampling import sampling_seb

        rng = np.random.default_rng(0)
        pts = rng.random((6000, 2))
        with trace("run") as rec:
            KDTree(pts).knn(pts[:256], 4)
            quickhull2d_parallel(pts)
            sampling_seb(pts)
        names = {s.name for s in rec.spans()}
        assert {"kdtree.build", "kdtree.knn", "kdtree.batch.frontier",
                "hull2d.partition", "hull2d.recurse",
                "seb.sample", "seb.final"} <= names


# ----------------------------------------------------------------------
# span-tree invariants (property-based)
# ----------------------------------------------------------------------
@st.composite
def _charged_tree(draw, depth=0):
    """A random nested workload: (charges, children) trees."""
    w = draw(st.integers(1, 100))
    d = draw(st.integers(1, w))
    kids = []
    if depth < 3:
        kids = draw(st.lists(_charged_tree(depth=depth + 1), max_size=3))
    par = draw(st.booleans()) if len(kids) >= 2 else False
    return (w, d, kids, par)


def _run_tree(node, idx=0):
    w, d, kids, par = node
    with span(f"n{idx}"):
        charge(w, d)
        if par:
            parallel_do([(lambda k=k: _run_tree(k, idx + 1)) for k in kids])
        else:
            for k in kids:
                _run_tree(k, idx + 1)


class TestSpanInvariants:
    @given(_charged_tree())
    @settings(max_examples=60, deadline=None)
    def test_tree_invariants(self, node):
        tracker.reset()
        with trace("run") as rec:
            _run_tree(node)
        spans = rec.spans()
        assert rec.dropped == 0
        by_sid = {s.sid: s for s in spans}
        kids = {}
        for s in spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        for s in spans:
            # children's inclusive work never exceeds the parent's
            assert sum(c.work for c in kids.get(s.sid, [])) <= s.work + 1e-9
            # every charge in this runtime satisfies depth <= work
            assert s.depth <= s.work + 1e-9
            if s.parent is not None:
                assert by_sid[s.parent].t0 <= s.t0
        # critical path head depth == tracked D (run-rooted trace)
        path = critical_path(spans)
        assert path[0].name == "run"
        assert path[0].depth == pytest.approx(tracker.total().depth)
        # self-work partitions total work exactly
        W, _ = totals(spans)
        assert sum(self_work(spans).values()) == pytest.approx(W)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def _spans(self):
        with trace("run") as rec:
            _workload()
        return rec.spans()

    def test_simulate_schedule_obeys_brent(self):
        spans = self._spans()
        W, D = totals(spans)
        for p in (1, 2, 36):
            placements, makespan = simulate_schedule(spans, p)
            assert len(placements) == len(spans)
            assert makespan >= W / p - 1e-9  # can't beat perfect speedup
            # lanes never overlap
            lanes = {}
            for s, lane, start, dur in placements:
                lanes.setdefault(lane, []).append((start, start + dur))
            for ivs in lanes.values():
                ivs.sort()
                for (a0, a1), (b0, b1) in zip(ivs, ivs[1:]):
                    assert b0 >= a1 - 1e-9
        # one worker: makespan is exactly W
        _, m1 = simulate_schedule(spans, 1)
        assert m1 == pytest.approx(W)

    def test_chrome_trace_is_valid_and_roundtrips(self, tmp_path):
        spans = self._spans()
        path = tmp_path / "t.json"
        obj = write_chrome_trace(path, spans, workers=4, name="test")
        assert validate_chrome_trace(obj) == []
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["spans"] == len(spans)
        W, D = totals(spans)
        assert loaded["otherData"]["work"] == pytest.approx(W)
        assert loaded["otherData"]["depth"] == pytest.approx(D)
        # both the simulated (pid 0) and wall-clock (pid 1) groups exist
        pids = {e["pid"] for e in loaded["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "x",
                                "ts": -5, "dur": "wat"}]}
        assert len(validate_chrome_trace(bad)) == 2

    def test_summary_mentions_phases_and_critical_path(self):
        spans = self._spans()
        text = summary(spans, workers=36)
        assert "phase.a" in text
        assert "critical path" in text
        assert "work W" in text
        assert summary([]) == "(no spans recorded)"

    def test_empty_schedule(self):
        assert simulate_schedule([], 4) == ([], 0.0)
        assert span_roots([]) == []


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter(self):
        r = MetricsRegistry()
        c = r.counter("reqs_total", "requests")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert r.snapshot()["reqs_total"] == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_and_kind_mismatch(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.counter("bad name!")

    def test_gauge_and_function_gauge(self):
        r = MetricsRegistry()
        g = r.gauge("queue_len")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8
        g.set_max(3)
        assert g.value == 8
        g.set_max(11)
        assert g.value == 11
        backing = [1, 2, 3]
        r.gauge("live").set_function(lambda: len(backing))
        assert r.snapshot()["live"] == 3
        backing.append(4)
        assert r.snapshot()["live"] == 4

    def test_histogram_buckets_cumulative(self):
        r = MetricsRegistry()
        h = r.histogram("sizes", buckets=(1, 4, 16))
        for v in (1, 2, 5, 100):
            h.observe(v)
        v = h.value
        assert v["count"] == 4 and v["sum"] == 108
        assert v["buckets"] == {"1": 1, "4": 2, "16": 3, "+Inf": 4}

    def test_prometheus_rendering(self):
        r = MetricsRegistry()
        r.counter("reqs_total", "total requests").inc(3)
        r.gauge("depth").set(2.5)
        r.histogram("lat", "latency", buckets=(0.1, 1.0)).observe(0.05)
        text = r.render_prometheus()
        assert "# HELP reqs_total total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        assert "depth 2.5" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# service stats on the registry
# ----------------------------------------------------------------------
class TestServiceOnRegistry:
    EXPECTED_KEYS = {
        "submitted", "accepted", "completed",
        "cache_hits", "cache_misses", "hit_rate", "batches",
        "batched_requests", "avg_batch_size", "max_batch_size",
        "work_charged", "depth_charged",
    }

    def test_snapshot_keys_unchanged(self):
        from repro.serve.metrics import ServiceStats

        stats = ServiceStats()
        stats.record_submit()
        stats.record_accept()
        stats.record_batch(4, 3, 100.0, 5.0)
        snap = stats.snapshot()
        assert set(snap) == self.EXPECTED_KEYS
        assert snap["submitted"] == 1
        assert snap["batches"] == 1
        assert snap["avg_batch_size"] == 4.0
        assert snap["cache_hits"] == 1  # the duplicate rider
        assert snap["cache_misses"] == 3

    def test_service_publishes_on_one_registry(self):
        from repro.kdtree import KDTree
        from repro.serve import GeometryService

        rng = np.random.default_rng(1)
        pts = rng.random((500, 2))
        svc = GeometryService(cache_capacity=64)
        svc.register("d", KDTree(pts))
        svc.knn("d", pts[0], 3)
        svc.knn("d", pts[0], 3)  # cache hit
        snap = svc.registry.snapshot()
        assert snap["serve_submitted_total"] == 2
        assert snap["serve_cache_hits_total"] == 1
        assert snap["serve_cache_size"] == 1
        assert snap["serve_cache_capacity"] == 64
        text = svc.metrics_text()
        assert "# TYPE serve_submitted_total counter" in text
        assert "serve_submitted_total 2" in text
        assert 'serve_batch_size_bucket{le="1"} 1' in text
        # the old snapshot() API is fed by the same state
        assert svc.snapshot()["submitted"] == 2

    def test_service_dispatch_emits_span(self):
        from repro.kdtree import KDTree
        from repro.serve import GeometryService

        rng = np.random.default_rng(2)
        pts = rng.random((400, 2))
        with trace("run") as rec:
            svc = GeometryService()
            svc.register("d", KDTree(pts))
            svc.knn("d", pts[1], 2)
        spans = rec.spans()
        dispatch = [s for s in spans if s.name == "serve.dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0].cat == "serve"
        assert dispatch[0].batch == 1
        # dispatch work == what the service charged the request
        assert dispatch[0].work == pytest.approx(
            svc.snapshot()["work_charged"])


# ----------------------------------------------------------------------
# CLI: profile and --metrics-out
# ----------------------------------------------------------------------
class TestCLI:
    def _pts(self, tmp_path, n=800):
        rng = np.random.default_rng(7)
        p = tmp_path / "pts.npy"
        np.save(p, rng.random((n, 2)))
        return str(p)

    def _main(self, argv):
        from repro.cli import main

        return main(list(argv))

    def test_profile_knn_end_to_end(self, tmp_path, capsys):
        pts = self._pts(tmp_path)
        out = tmp_path / "knn.trace.json"
        rc = self._main(["profile", "--trace-out", str(out), "--workers", "8",
                         "knn", pts, "-k", "4"])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["workers"] == 8
        assert obj["otherData"]["work"] > 0
        text = capsys.readouterr().out
        assert "kdtree.batch.frontier" in text
        assert "critical path" in text
        assert str(out) in text
        assert not tracing_enabled()

    def test_profile_serve_replay_reuses_metrics_out(self, tmp_path, capsys):
        pts = self._pts(tmp_path, 400)
        out = tmp_path / "sr.trace.json"
        mout = tmp_path / "metrics.json"
        rc = self._main(["profile", "--trace-out", str(out),
                         "serve-replay", pts, "--synthetic", "60",
                         "--metrics-out", str(mout)])
        assert rc == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        snap = json.loads(mout.read_text())
        assert snap["submitted"] == 60
        assert "registry" in snap and "serve_batches_total" in snap["registry"]

    def test_profile_rejects_empty_and_nested(self, capsys):
        assert self._main(["profile"]) == 2
        assert self._main(["profile", "profile", "x"]) == 2
        err = capsys.readouterr().err
        assert "profile" in err

    def test_metrics_out_without_profile(self, tmp_path, capsys):
        pts = self._pts(tmp_path, 300)
        mout = tmp_path / "m.json"
        rc = self._main(["serve-replay", pts, "--synthetic", "40",
                         "--metrics-out", str(mout)])
        assert rc == 0
        snap = json.loads(mout.read_text())
        for key in ("submitted", "completed", "hit_rate", "cache_size",
                    "registry"):
            assert key in snap


class TestMetricFamilies:
    def test_labelled_counter_children_and_exposition(self):
        r = MetricsRegistry()
        fam = r.counter("reqs_total", "per-tenant requests",
                        labels=("tenant",))
        fam.labels("acme").inc(3)
        fam.labels(tenant="zen").inc()
        assert fam.labels("acme") is fam.labels("acme")
        text = r.render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{tenant="acme"} 3' in text
        assert 'reqs_total{tenant="zen"} 1' in text
        snap = r.snapshot()["reqs_total"]
        assert snap['{tenant="acme"}'] == 3

    def test_labelled_gauge_with_function_child(self):
        r = MetricsRegistry()
        fam = r.gauge("depth", labels=("tenant",))
        backing = {"n": 4}
        fam.labels("a").set_function(lambda: backing["n"])
        fam.labels("b").set(9)
        assert 'depth{tenant="a"} 4' in r.render_prometheus()
        backing["n"] = 11
        assert 'depth{tenant="a"} 11' in r.render_prometheus()
        assert r.snapshot()["depth"]['{tenant="b"}'] == 9

    def test_labelled_histogram_merges_le_label(self):
        r = MetricsRegistry()
        fam = r.histogram("lat", buckets=(0.1, 1.0), labels=("tenant",))
        fam.labels("x").observe(0.05)
        fam.labels("x").observe(5.0)
        text = r.render_prometheus()
        assert 'lat_bucket{tenant="x",le="0.1"} 1' in text
        assert 'lat_bucket{tenant="x",le="+Inf"} 2' in text
        assert 'lat_count{tenant="x"} 2' in text

    def test_label_value_escaping(self):
        r = MetricsRegistry()
        fam = r.counter("c", labels=("who",))
        fam.labels('ev"il\\ten\nant').inc()
        text = r.render_prometheus()
        assert 'who="ev\\"il\\\\ten\\nant"' in text

    def test_collisions_are_errors(self):
        r = MetricsRegistry()
        r.counter("a", labels=("tenant",))
        with pytest.raises(ValueError):
            r.counter("a")  # plain vs family
        with pytest.raises(ValueError):
            r.counter("a", labels=("user",))  # different label names
        with pytest.raises(ValueError):
            r.gauge("a", labels=("tenant",))  # different kind
        r.counter("b")
        with pytest.raises(ValueError):
            r.counter("b", labels=("tenant",))  # family vs plain
        with pytest.raises(ValueError):
            r.counter("c", labels=("bad label!",))

    def test_wrong_label_arity_rejected(self):
        r = MetricsRegistry()
        fam = r.counter("c", labels=("a", "b"))
        with pytest.raises(ValueError):
            fam.labels("only-one")
        with pytest.raises(ValueError):
            fam.labels(a="x", wrong="y")

    def test_remove_child(self):
        r = MetricsRegistry()
        fam = r.gauge("g", labels=("tenant",))
        fam.labels("gone").set(1)
        fam.remove("gone")
        assert r.snapshot()["g"] == {}
