"""Tests for the ``processes`` backend and shared-memory shard snapshots.

The contract under test: ``use_backend("processes")`` is a drop-in swap
for ``sequential``/``threads`` — identical results (bitwise), identical
work/depth charges, spans forwarded from workers — and no shared-memory
segment survives pool shutdown.
"""

import glob
import os
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdl import BDLTree
from repro.cluster import ShardedIndex
from repro.cluster.snapshot import SnapshotManager, attach_snapshot
from repro.kdtree.flat import attach_tree, pack_tree, tree_nbytes
from repro.kdtree.tree import KDTree
from repro.parlay.procpool import ProcPool
from repro.parlay.scheduler import use_backend
from repro.parlay.workdepth import tracker

from ._build_reference import assert_same_tree, recursive_builds
from ._engines import ENGINES, forced_engine

BACKENDS = ("sequential", "threads", "processes")


def _points(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


# ----------------------------------------------------------------------
# flat snapshots: pack / attach round trip
# ----------------------------------------------------------------------
class TestFlatTree:
    def test_attached_kdtree_answers_identically(self, rng):
        pts = rng.normal(size=(500, 3))
        tree = KDTree(pts)
        tree.erase(pts[::7])  # exercise the alive mask
        buf = bytearray(tree_nbytes(tree))
        spec, end = pack_tree(tree, buf)
        assert end <= len(buf)
        att = attach_tree(spec, buf)

        qs = rng.normal(size=(60, 3))
        for engine in ENGINES:
            with forced_engine(engine):
                d1, g1 = tree.knn(qs, 4)
                d2, g2 = att.knn(qs, 4)
            assert np.array_equal(d1, d2) and np.array_equal(g1, g2)

    def test_attached_views_are_read_only(self, rng):
        tree = KDTree(rng.normal(size=(100, 2)))
        buf = bytearray(tree_nbytes(tree))
        spec, _ = pack_tree(tree, buf)
        att = attach_tree(spec, buf)
        with pytest.raises(ValueError):
            att.points[0, 0] = 0.0

    def test_snapshot_roundtrip_bdl(self, rng):
        pts = rng.normal(size=(700, 2))
        bdl = BDLTree(dim=2, buffer_size=64)
        bdl.insert(pts)
        bdl.erase(pts[::5])
        mgr = SnapshotManager()
        try:

            class _Shard:  # duck-typed: SnapshotManager reads .tree only
                tree = bdl

            spec = mgr.spec_for(0, _Shard)
            shm, att = attach_snapshot(spec)
            try:
                qs = rng.normal(size=(40, 2))
                d1, g1 = bdl.knn(qs, 3)
                d2, g2 = att.knn(qs, 3)
                assert np.array_equal(d1, d2) and np.array_equal(g1, g2)
                b1 = bdl.range_query_ball_batch(qs[:10], 0.4)
                b2 = att.range_query_ball_batch(qs[:10], 0.4)
                assert all(np.array_equal(a, b) for a, b in zip(b1, b2))
            finally:
                att = None
                shm.close()
        finally:
            mgr.release_all()

    def test_version_bump_repacks(self, rng):
        bdl = BDLTree(dim=2, buffer_size=32)
        bdl.insert(rng.normal(size=(100, 2)))

        class _Shard:
            tree = bdl

        mgr = SnapshotManager()
        try:
            s1 = mgr.spec_for(0, _Shard)
            assert mgr.spec_for(0, _Shard) is s1  # cached at same version
            bdl.insert(rng.normal(size=(10, 2)))
            s2 = mgr.spec_for(0, _Shard)
            assert s2["shm"] != s1["shm"]
            assert len(mgr) == 1  # stale segment released
        finally:
            mgr.release_all()


# ----------------------------------------------------------------------
# worker pool mechanics
# ----------------------------------------------------------------------
def _square(payload):
    return payload * payload


def _whoami(payload):
    return os.getpid()


def _explode(payload):
    raise RuntimeError(f"kaboom-{payload}")


class TestProcPool:
    def test_results_in_task_order(self):
        pool = ProcPool(2)
        try:
            out = pool.run_tasks(
                "tests.test_procs:_square", [(i, i) for i in range(10)]
            )
            assert [r.result for r in out] == [i * i for i in range(10)]
        finally:
            pool.shutdown()

    def test_affinity_pins_tasks_to_workers(self):
        pool = ProcPool(2)
        try:
            out = pool.run_tasks(
                "tests.test_procs:_whoami", [(7, None) for _ in range(6)]
            )
            pids = {r.result for r in out}
            assert len(pids) == 1  # same affinity -> same worker
            assert out[0].pid == out[0].result
            mixed = pool.run_tasks(
                "tests.test_procs:_whoami", [(i, None) for i in range(8)]
            )
            assert len({r.result for r in mixed}) == 2
        finally:
            pool.shutdown()

    def test_remote_error_carries_traceback(self):
        pool = ProcPool(1)
        try:
            with pytest.raises(RuntimeError, match="kaboom-3"):
                pool.run_tasks("tests.test_procs:_explode", [(0, 3)])
            # the pool survives a task failure
            out = pool.run_tasks("tests.test_procs:_square", [(0, 5)])
            assert out[0].result == 25
        finally:
            pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = ProcPool(2)
        pool.pids()
        pool.shutdown()
        pool.shutdown()
        assert not pool.started


# ----------------------------------------------------------------------
# drop-in equivalence across backends
# ----------------------------------------------------------------------
def _run_workload(index, qs, k):
    """The scatter-gather mix; returns results + the charged cost."""
    tracker.reset()
    d2, gid = index.knn(qs, k, exclude_self=False)
    balls = index.range_query_ball_batch(qs[: len(qs) // 2], 0.5)
    boxes = index.range_query_box_batch(qs[:10] - 0.3, qs[:10] + 0.3)
    return d2, gid, balls, boxes, tracker.reset()


def _assert_same(res_a, res_b):
    d2a, ga, balls_a, boxes_a, ca = res_a
    d2b, gb, balls_b, boxes_b, cb = res_b
    assert np.array_equal(d2a, d2b)
    assert np.array_equal(ga, gb)
    assert all(np.array_equal(x, y) for x, y in zip(balls_a, balls_b))
    assert all(np.array_equal(x, y) for x, y in zip(boxes_a, boxes_b))
    assert ca.work == cb.work and ca.depth == cb.depth


@pytest.mark.slow
class TestCrossBackendEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(300, 1200),
        k=st.integers(1, 8),
        shards=st.integers(2, 6),
    )
    def test_sharded_index_knn_box_ball(self, seed, n, k, shards):
        pts = _points(n, 2, seed)
        qs = _points(80, 2, seed + 1)
        idx = ShardedIndex(pts, shards)
        try:
            results = {}
            for backend in BACKENDS:
                with use_backend(backend, 4):
                    results[backend] = _run_workload(idx, qs, k)
            _assert_same(results["sequential"], results["threads"])
            _assert_same(results["sequential"], results["processes"])
        finally:
            idx.close()

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 6))
    def test_kdtree_inline_fallback(self, seed, k):
        """A plain KDTree has no remote slabs — the processes backend
        runs its fork-join inline, with unchanged results and charges."""
        pts = _points(600, 3, seed)
        qs = _points(50, 3, seed + 1)
        tree = KDTree(pts)
        results = {}
        for backend in BACKENDS:
            with use_backend(backend, 4):
                tracker.reset()
                d2, gid = tree.knn(qs, k)
                results[backend] = (d2, gid, tracker.reset())
        for backend in ("threads", "processes"):
            d2a, ga, ca = results["sequential"]
            d2b, gb, cb = results[backend]
            assert np.array_equal(d2a, d2b) and np.array_equal(ga, gb)
            assert ca.work == cb.work and ca.depth == cb.depth

    def test_equivalence_after_insert_and_erase(self, rng):
        """Mutations bump the version; workers must re-snapshot."""
        pts = rng.normal(size=(900, 2))
        idx = ShardedIndex(pts, 4)
        qs = rng.normal(size=(60, 2))
        try:
            with use_backend("processes", 2):
                _run_workload(idx, qs, 3)  # workers attach v0 snapshots
                idx.insert(rng.normal(size=(300, 2)))
                idx.erase(pts[::5])
                after_p = _run_workload(idx, qs, 3)
            with use_backend("sequential"):
                after_s = _run_workload(idx, qs, 3)
            _assert_same(after_p, after_s)
        finally:
            idx.close()

    def test_rebalance_forces_resnapshot(self, rng):
        """A split replaces Shard objects in-place; identity check must
        invalidate the old slots' snapshots."""
        base = rng.normal(size=(2000, 2)) * 0.01  # clustered -> skewed
        idx = ShardedIndex(rng.normal(size=(1500, 2)), 3,
                           rebalance_min=512, skew_threshold=1.5)
        qs = rng.normal(size=(40, 2))
        try:
            with use_backend("processes", 2):
                _run_workload(idx, qs, 3)
                idx.insert(base)  # triggers splits
                got = _run_workload(idx, qs, 3)
            with use_backend("sequential"):
                want = _run_workload(idx, qs, 3)
            _assert_same(got, want)
        finally:
            idx.close()


# ----------------------------------------------------------------------
# construction across backends, against the per-node recursion
# ----------------------------------------------------------------------
def _builds(engine):
    """The recursion oracle for ``"recursive"``, else the batched build."""
    return recursive_builds() if engine == "recursive" else nullcontext()


class TestBuildEngineAcrossBackends:
    def test_kdtree_build_identical_on_every_backend(self):
        """Both builders, all backends: one bitwise-identical tree and
        one identical cost — construction forks above the grain cutoff,
        so n must exceed it to exercise the parallel composition."""
        pts = _points(6000, 3, seed=11)
        built = {}
        for backend in BACKENDS:
            for engine in ("recursive", "batched"):
                with use_backend(backend, 4), _builds(engine):
                    tracker.reset()
                    t = KDTree(pts.copy())
                    built[backend, engine] = (t, tracker.reset())
        ref_t, ref_c = built["sequential", "recursive"]
        for key, (t, c) in built.items():
            assert_same_tree(ref_t, t, str(key))
            assert c.work == ref_c.work, key
            assert np.isclose(c.depth, ref_c.depth, rtol=1e-9), key

    def test_bdl_insert_erase_rebuilds_across_backends(self):
        """The log-structure's rebuild cascade (unit conversions plus
        under-half-capacity reinserts) lands on the same static trees
        for every (builder, backend) combination."""
        pts = _points(2000, 2, seed=23)
        outcomes = {}
        for backend in BACKENDS:
            for engine in ("recursive", "batched"):
                with use_backend(backend, 2), _builds(engine):
                    b = BDLTree(2, buffer_size=256)
                    for i in range(0, 2000, 500):
                        b.insert(pts[i : i + 500])
                    b.erase(pts[::3])
                    b.insert(pts[:100])
                    outcomes[backend, engine] = b
        ref = outcomes["sequential", "recursive"]
        qs = _points(60, 2, seed=24)
        dr, gr = ref.knn(qs, 4)
        for key, b in outcomes.items():
            assert b.bitmask == ref.bitmask, key
            for ta, tb in zip(ref.trees, b.trees):
                assert (ta is None) == (tb is None)
                if ta is not None:
                    assert_same_tree(ta, tb, str(key))
                    assert np.array_equal(ta.alive, tb.alive)
            d2, g2 = b.knn(qs, 4)
            assert np.array_equal(dr, d2) and np.array_equal(gr, g2)


# ----------------------------------------------------------------------
# observability across the process boundary
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestWorkerSpans:
    def test_worker_spans_forwarded_with_pid(self, rng):
        from repro.obs.span import trace

        idx = ShardedIndex(rng.normal(size=(800, 2)), 4)
        try:
            with use_backend("processes", 2) as sched:
                with trace("run") as rec:
                    idx.knn(rng.normal(size=(50, 2)), 3)
                worker_pids = set(sched.proc_pool().pids())
            spans = rec.spans()
            tagged = {s.meta["pid"] for s in spans
                      if s.meta and "pid" in s.meta}
            assert tagged and tagged <= worker_pids
            # forwarded spans stay parented inside the recorded tree
            sids = {s.sid for s in spans}
            assert all(s.parent is None or s.parent in sids for s in spans)
            assert any("shard" in s.name for s in spans
                       if s.meta and "pid" in s.meta)
        finally:
            idx.close()

    def test_disabled_tracing_records_nothing(self, rng):
        from repro.obs.span import active_recorder

        idx = ShardedIndex(rng.normal(size=(400, 2)), 3)
        try:
            with use_backend("processes", 2):
                assert active_recorder() is None
                idx.knn(rng.normal(size=(20, 2)), 3)
                assert active_recorder() is None
        finally:
            idx.close()

    def test_chrome_export_gets_worker_lanes(self, rng):
        from repro.obs.export import chrome_trace, validate_chrome_trace
        from repro.obs.span import trace

        idx = ShardedIndex(rng.normal(size=(600, 2)), 3)
        try:
            with use_backend("processes", 2):
                with trace("run") as rec:
                    idx.knn(rng.normal(size=(30, 2)), 3)
            obj = chrome_trace(rec.spans(), workers=4)
            assert validate_chrome_trace(obj) == []
            lanes = [e["args"]["name"] for e in obj["traceEvents"]
                     if e.get("name") == "process_name"]
            assert sum(1 for x in lanes if x.startswith("worker pid ")) == 2
        finally:
            idx.close()


# ----------------------------------------------------------------------
# shared-memory hygiene
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSharedMemoryLifecycle:
    def test_segments_unlinked_on_backend_exit(self, rng):
        before = _shm_segments()
        idx = ShardedIndex(rng.normal(size=(700, 2)), 4)
        qs = rng.normal(size=(30, 2))
        try:
            with use_backend("processes", 2):
                idx.knn(qs, 3)
                assert len(_shm_segments() - before) >= 1
            # use_backend exit shuts the scheduler down -> the shutdown
            # hook releases every snapshot
            assert _shm_segments() - before == set()
        finally:
            idx.close()

    def test_index_close_unlinks(self, rng):
        before = _shm_segments()
        idx = ShardedIndex(rng.normal(size=(500, 2)), 3)
        with use_backend("processes", 2):
            idx.knn(rng.normal(size=(20, 2)), 3)
            idx.close()
            assert _shm_segments() - before == set()

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_no_resource_tracker_warnings_in_subprocess(self, start_method):
        """End to end in a clean interpreter: run the workload, exit,
        and assert the resource tracker stayed silent and /dev/shm
        came back clean.  Workers share the parent's resource tracker
        under every start method, so none may unregister a segment."""
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.cluster import ShardedIndex\n"
            "from repro.parlay.scheduler import use_backend\n"
            "rng = np.random.default_rng(0)\n"
            "idx = ShardedIndex(rng.normal(size=(600, 2)), 3)\n"
            "with use_backend('processes', 2):\n"
            "    idx.knn(rng.normal(size=(40, 2)), 3)\n"
            "    idx.insert(rng.normal(size=(100, 2)))\n"
            "    idx.knn(rng.normal(size=(40, 2)), 3)\n"
            "    idx.range_query_box_batch([[-1.0, -1.0]], [[1.0, 1.0]])\n"
        )
        before = _shm_segments()
        env = dict(os.environ, PYTHONPATH="src",
                   REPRO_PROC_START_METHOD=start_method)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        assert _shm_segments() - before == set()
