"""DBSCAN via kd-tree range queries + union-find.

The standard exact DBSCAN semantics: a point is *core* when its closed
eps-ball holds at least ``min_pts`` points (itself included); core
points within eps of each other share a cluster; border (non-core)
points join the cluster of any core point within eps; everything else
is noise (label -1).
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..emst.unionfind import UnionFind
from ..kdtree.range_search import range_query_ball_batch
from ..kdtree.tree import KDTree
from ..parlay.workdepth import charge

__all__ = ["dbscan"]


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Cluster labels per point (noise = -1), deterministic."""
    pts = as_array(points)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    tree = KDTree(pts)

    # every point's eps-neighborhood in one data-parallel batch
    neighborhoods = range_query_ball_batch(tree, pts, eps, grain=64)
    core = np.array([len(nb) >= min_pts for nb in neighborhoods])

    uf = UnionFind(n)
    for i in np.flatnonzero(core):
        charge(len(neighborhoods[i]))
        for j in neighborhoods[i]:
            if core[j]:
                uf.union(i, int(j))

    labels = np.full(n, -1, dtype=np.int64)
    roots: dict[int, int] = {}
    for i in np.flatnonzero(core):
        r = uf.find(i)
        if r not in roots:
            roots[r] = len(roots)
        labels[i] = roots[r]
    # border points adopt the cluster of the smallest-id core neighbor
    for i in np.flatnonzero(~core):
        nbs = neighborhoods[i]
        core_nbs = nbs[core[nbs]]
        if len(core_nbs):
            labels[i] = labels[int(core_nbs.min())]
    return labels
