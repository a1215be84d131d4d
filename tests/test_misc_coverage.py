"""Additional edge-case coverage across modules."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.bdl import BDLTree
from repro.generators import dragon, thai_statue, uniform
from repro.kdtree import KDTree, range_query_ball_batch, range_query_batch
from repro.parlay import (
    num_workers,
    parallel_map_tasks,
    tracker,
    use_backend,
)
from repro.seb import orthant_scan_seb, sampling_seb, welzl_mtf
from repro.spatialsort import ZdTree


class TestSchedulerExtras:
    def test_map_tasks(self):
        out = parallel_map_tasks(lambda x: x * 3, [1, 2, 3])
        assert out == [3, 6, 9]

    def test_num_workers_positive(self):
        assert num_workers() >= 1

    def test_worker_count_respected(self):
        with use_backend("threads", 7) as sched:
            assert sched.workers == 7

    def test_scheduler_workers_minimum_one(self):
        from repro.parlay import Scheduler

        s = Scheduler("sequential", workers=0)
        assert s.workers == 1


class TestRangeBatches:
    def test_box_batch_matches_single(self, rng):
        pts = rng.uniform(0, 10, size=(1000, 2))
        t = KDTree(pts)
        centers = rng.uniform(0, 10, size=(20, 2))
        los, his = centers - 0.5, centers + 0.5
        batch = range_query_batch(t, los, his)
        for i in range(20):
            single = t.range_query_box(los[i], his[i])
            assert set(batch[i].tolist()) == set(single.tolist())

    def test_ball_batch_scalar_radius(self, rng):
        pts = rng.uniform(0, 10, size=(800, 3))
        t = KDTree(pts)
        centers = rng.uniform(0, 10, size=(10, 3))
        batch = range_query_ball_batch(t, centers, 1.5)
        ref = cKDTree(pts)
        for i in range(10):
            assert set(batch[i].tolist()) == set(ref.query_ball_point(centers[i], 1.5))

    def test_ball_batch_per_query_radii(self, rng):
        pts = rng.uniform(0, 10, size=(500, 2))
        t = KDTree(pts)
        centers = rng.uniform(0, 10, size=(5, 2))
        radii = rng.uniform(0.5, 2.0, size=5)
        batch = range_query_ball_batch(t, centers, radii)
        ref = cKDTree(pts)
        for i in range(5):
            assert set(batch[i].tolist()) == set(
                ref.query_ball_point(centers[i], radii[i])
            )


class TestHighDimensional:
    def test_seb_7d_orthant_cap(self, rng):
        """7d exercises the full 128-orthant scan."""
        pts = rng.normal(size=(2000, 7))
        ref = welzl_mtf(pts).radius
        assert orthant_scan_seb(pts).radius == pytest.approx(ref, rel=1e-7)
        assert sampling_seb(pts)[0].radius == pytest.approx(ref, rel=1e-7)

    def test_kdtree_7d(self, rng):
        pts = rng.uniform(0, 10, size=(3000, 7))
        t = KDTree(pts)
        t.check_invariants()
        d, i = t.knn(pts[:30], 4)
        dd, _ = cKDTree(pts).query(pts[:30], k=4)
        assert np.allclose(np.sqrt(d), dd)

    def test_bdl_7d(self, rng):
        pts = rng.uniform(0, 10, size=(2000, 7))
        t = BDLTree(7, buffer_size=256)
        t.insert(pts)
        d, _ = t.knn(pts[:20], 3)
        dd, _ = cKDTree(pts).query(pts[:20], k=3)
        assert np.allclose(np.sqrt(d), dd)


class TestZdTreeEdges:
    def test_duplicate_coordinate_erase(self):
        z = ZdTree(2)
        pts = np.vstack([np.ones((4, 2)), np.zeros((3, 2))])
        z.insert(pts)
        assert z.erase(np.ones((1, 2))) == 4
        assert z.size() == 3

    def test_erase_absent(self, rng):
        z = ZdTree(3)
        z.insert(rng.uniform(0, 1, size=(100, 3)))
        assert z.erase(rng.uniform(5, 6, size=(10, 3))) == 0

    def test_empty_knn(self):
        z = ZdTree(2)
        d, i = z.knn(np.zeros((2, 2)), 3)
        assert np.isinf(d).all() and np.all(i == -1)


class TestGeneratorsDeterminism:
    def test_scan_standins_deterministic(self):
        a = thai_statue(500, seed=3)
        b = thai_statue(500, seed=3)
        assert a == b
        assert dragon(300, seed=1) == dragon(300, seed=1)

    def test_scan_standins_differ_by_seed(self):
        assert thai_statue(500, seed=3) != thai_statue(500, seed=4)


class TestSEBStability:
    def test_radius_independent_of_seed(self, rng):
        """The minimal ball is unique: every seed must find the same
        radius (centers equal too)."""
        pts = rng.normal(size=(400, 3))
        radii = [welzl_mtf(pts, seed=s).radius for s in range(5)]
        assert max(radii) - min(radii) < 1e-9 * max(radii)

    def test_sampling_robust_to_chunk_size(self, rng):
        pts = rng.normal(size=(3000, 2))
        ref = welzl_mtf(pts).radius
        for chunk in (64, 512, 4096):
            b, _ = sampling_seb(pts, chunk=chunk)
            assert b.radius == pytest.approx(ref, rel=1e-7)


class TestTrackerHygiene:
    def test_algorithms_leave_balanced_stack(self, rng):
        """Every public algorithm must pop all its cost frames."""
        import repro

        pts = rng.uniform(0, 10, size=(500, 2))
        tracker.reset()
        repro.convex_hull(pts)
        repro.smallest_enclosing_ball(pts)
        t = repro.KDTree(pts)
        t.knn(pts[:10], 3)
        repro.emst(pts[:200])
        assert len(tracker._stack) == 1
        assert tracker.total().work > 0


class TestPublicNames:
    def test_every_all_name_resolves(self):
        """``from m import *`` works for every module: each name a
        module's ``__all__`` lists exists on it."""
        import importlib
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue
            mod = importlib.import_module(info.name)
            missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ())
                        if not hasattr(mod, n)]
        assert missing == []
