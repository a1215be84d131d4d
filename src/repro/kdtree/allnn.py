"""Dual-tree all-nearest-neighbors.

For "every point's nearest neighbor" workloads (the EMST's base case,
boruvka steps, k-NN graph with k=1), the dual-tree traversal beats
point-at-a-time searches: node pairs prune when the box distance
exceeds every query's current bound.  Classic Callahan–Kosaraju /
Gray–Moore style.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import cross_dists_sq
from ..core.points import as_array
from ..parlay.workdepth import charge
from .tree import KDTree

__all__ = ["all_nearest_neighbors"]

_BRUTE = 1024


def all_nearest_neighbors(points, engine: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbor of every point (excluding itself).

    Returns (dists, ids): Euclidean distance and index of each point's
    nearest other point.

    ``engine="batched"`` (default; ``None`` too, as the point set is one
    whole-set batch, not a request batch for the size rule) runs the
    whole point set as one vectorized 1-NN batch over the frontier
    engine, banning each query's own id so duplicates still pair up
    with each other;
    ``engine="recursive"`` uses the classic dual-tree traversal.
    """
    from .batch import BatchKNNBuffers, batched_knn_into, resolve_engine

    pts = as_array(points)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 points")
    if resolve_engine(engine or "batched", n, "knn") == "batched":
        tree = KDTree(pts, leaf_size=16)
        buf = BatchKNNBuffers(n, 1)
        batched_knn_into(tree, pts, buf, ban=np.arange(n, dtype=np.int64))
        d, i = buf.extract(1, exclude_self=False)
        return np.sqrt(d[:, 0]), i[:, 0]
    tree = KDTree(pts, leaf_size=16)
    best_d = np.full(n, np.inf)
    best_i = np.full(n, -1, dtype=np.int64)

    def node_bound(q: int) -> float:
        """Max of the current bounds over query points in node q."""
        ids = tree.node_points(q)
        charge(max(len(ids), 1))
        return float(best_d[ids].max()) if len(ids) else 0.0

    def box_dist(a: int, b: int) -> float:
        gap = np.maximum(tree.box_lo[a] - tree.box_hi[b], 0.0) + np.maximum(
            tree.box_lo[b] - tree.box_hi[a], 0.0
        )
        return float(gap @ gap)

    def dual(q: int, r: int) -> None:
        charge(1, 1)
        if box_dist(q, r) >= node_bound(q):
            return
        nq = int(tree.end[q] - tree.start[q])
        nr = int(tree.end[r] - tree.start[r])
        if nq * nr <= _BRUTE or (tree.is_leaf[q] and tree.is_leaf[r]):
            qi = tree.node_points(q)
            ri = tree.node_points(r)
            if len(qi) == 0 or len(ri) == 0:
                return
            d2 = cross_dists_sq(pts[qi], pts[ri])
            if q == r:
                np.fill_diagonal(d2, np.inf)
            else:
                same = qi[:, None] == ri[None, :]
                d2[same] = np.inf
            j = np.argmin(d2, axis=1)
            dmin = d2[np.arange(len(qi)), j]
            better = dmin < best_d[qi]
            best_d[qi[better]] = dmin[better]
            best_i[qi[better]] = ri[j[better]]
            return
        # recurse: split the bigger node; visit nearer ref child first
        if (nq >= nr and not tree.is_leaf[q]) or tree.is_leaf[r]:
            for child in (int(tree.left[q]), int(tree.right[q])):
                if child >= 0:
                    dual(child, r)
        else:
            kids = [int(tree.left[r]), int(tree.right[r])]
            kids = [k for k in kids if k >= 0]
            kids.sort(key=lambda k: box_dist(q, k))
            for k in kids:
                dual(q, k)

    dual(tree.root, tree.root)
    return np.sqrt(best_d), best_i
