"""Tests for WSPD, BCCP, union-find, and EMST."""

import numpy as np
import pytest

from repro.emst import UnionFind, bccp_points, emst
from repro.kdtree import KDTree
from repro.wspd import wspd, well_separated


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert not uf.connected(0, 1)

    def test_union_and_find(self):
        uf = UnionFind(6)
        assert uf.union(0, 1)
        assert not uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert uf.n_components == 4

    def test_transitive_chain(self):
        uf = UnionFind(100)
        for i in range(99):
            uf.union(i, i + 1)
        assert uf.n_components == 1
        assert uf.connected(0, 99)


class TestWSPD:
    def test_requires_singleton_leaves(self, rng):
        t = KDTree(rng.normal(size=(50, 2)), leaf_size=8)
        with pytest.raises(ValueError):
            wspd(t)

    def test_coverage_exact_once(self, rng):
        """Every unordered point pair is covered by exactly one WSP."""
        pts = rng.uniform(0, 10, size=(120, 2))
        t = KDTree(pts, leaf_size=1)
        count = {}
        for p in wspd(t, 2.0):
            for u in t.node_points(p.a):
                for v in t.node_points(p.b):
                    key = (min(u, v), max(u, v))
                    count[key] = count.get(key, 0) + 1
        n = len(pts)
        assert len(count) == n * (n - 1) // 2
        assert set(count.values()) == {1}

    def test_pairs_are_separated(self, rng):
        pts = rng.uniform(0, 10, size=(200, 3))
        t = KDTree(pts, leaf_size=1)
        for p in wspd(t, 2.0):
            assert well_separated(t, p.a, p.b, 2.0)

    def test_linear_pair_count(self):
        """s=2 WSPD has O(n) pairs; verify sub-quadratic growth."""
        from repro.generators import uniform

        n1, n2 = 500, 2000
        c1 = len(wspd(KDTree(uniform(n1, 2, seed=1).coords, leaf_size=1)))
        c2 = len(wspd(KDTree(uniform(n2, 2, seed=1).coords, leaf_size=1)))
        assert c2 < (n2 / n1) ** 1.4 * c1

    def test_higher_separation_more_pairs(self, rng):
        pts = rng.uniform(0, 10, size=(300, 2))
        t = KDTree(pts, leaf_size=1)
        assert len(wspd(t, 4.0)) > len(wspd(t, 2.0))

    def test_invalid_separation(self, rng):
        t = KDTree(rng.normal(size=(10, 2)), leaf_size=1)
        with pytest.raises(ValueError):
            wspd(t, 0)


class TestBCCP:
    def test_matches_bruteforce(self, rng):
        for _ in range(5):
            red = rng.uniform(0, 5, size=(200, 3))
            blue = rng.uniform(3, 8, size=(150, 3))
            d, i, j = bccp_points(red, blue)
            from repro.core.distance import cross_dists_sq

            ref = np.sqrt(cross_dists_sq(red, blue).min())
            assert d == pytest.approx(ref, abs=1e-12)
            assert np.linalg.norm(red[i] - blue[j]) == pytest.approx(d)

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            bccp_points(np.empty((0, 2)), rng.normal(size=(3, 2)))


class TestEMST:
    def test_spanning_and_acyclic(self, rng):
        pts = rng.uniform(0, 10, size=(400, 2))
        e, w = emst(pts)
        assert len(e) == 399
        uf = UnionFind(400)
        for u, v in e:
            assert uf.union(int(u), int(v))  # no cycles
        assert uf.n_components == 1  # spanning

    def test_total_weight_matches_networkx(self, rng):
        import networkx as nx
        from scipy.spatial.distance import pdist, squareform

        for d in (2, 3):
            pts = rng.uniform(0, 10, size=(150, d))
            e, w = emst(pts)
            G = nx.from_numpy_array(squareform(pdist(pts)))
            ref = sum(dd["weight"] for _, _, dd in nx.minimum_spanning_tree(G).edges(data=True))
            assert w.sum() == pytest.approx(ref, rel=1e-9)

    def test_weights_are_euclidean(self, rng):
        pts = rng.uniform(0, 10, size=(100, 2))
        e, w = emst(pts)
        ref = np.linalg.norm(pts[e[:, 0]] - pts[e[:, 1]], axis=1)
        assert np.allclose(w, ref)

    def test_tiny_inputs(self):
        e, w = emst(np.array([[0.0, 0.0]]))
        assert len(e) == 0
        e, w = emst(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert len(e) == 1 and w[0] == pytest.approx(1.0)

    def test_clustered_data(self):
        """EMST must bridge clusters with exactly the shortest links."""
        a = np.random.default_rng(0).normal(size=(50, 2)) * 0.1
        b = a + np.array([100.0, 0.0])
        pts = np.vstack([a, b])
        e, w = emst(pts)
        long_edges = w[w > 50]
        assert len(long_edges) == 1  # exactly one bridge

    def test_duplicate_heavy_matches_scipy(self):
        """Repeated points: zero-length edges join the copies, and the
        weight equals scipy's MST over the unique points."""
        from scipy.sparse.csgraph import minimum_spanning_tree
        from scipy.spatial.distance import pdist, squareform

        g = np.random.default_rng(0)
        inputs = (
            g.integers(0, 6, (300, 2)),          # 36 cells, ~8 copies each
            g.binomial(1024, 0.5, (400, 2)),     # clustered, with repeats
            g.integers(0, 4, (200, 3)),          # 64 cells in 3D
        )
        for raw in inputs:
            pts = raw.astype(np.float64)
            uniq = np.unique(pts, axis=0)
            assert len(uniq) < len(pts)
            e, w = emst(pts)
            assert len(e) == len(pts) - 1
            uf = UnionFind(len(pts))
            for u, v in e:
                assert uf.union(int(u), int(v))
            ref = minimum_spanning_tree(squareform(pdist(uniq))).sum()
            assert w.sum() == pytest.approx(ref, rel=1e-9)
