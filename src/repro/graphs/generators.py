"""Geometric graph generators (ParGeo Module (3)).

* k-NN graph — from the kd-tree's data-parallel k-NN.
* Delaunay graph — edges of the 2D Delaunay triangulation.
* Gabriel graph — Delaunay edges whose diametral disk is empty
  (tested with kd-tree ball range search).
* β-skeleton — lune-based, for β >= 1 a subgraph of the Delaunay graph;
  emptiness tested by range search, per the paper.
* EMST graph — the Euclidean minimum spanning tree.
* WSPD spanner — one edge between representatives of every
  well-separated pair; a t-spanner with t = (s+4)/(s-4) for s > 4.
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..delaunay.triangulation import delaunay
from ..emst.emst import emst
from ..kdtree.tree import KDTree
from ..kdtree.range_search import range_query_ball, range_query_ball_batch
from ..parlay.scheduler import get_scheduler
from ..parlay.primitives import query_blocks
from ..parlay.workdepth import charge
from ..wspd.wspd import wspd
from .graph import Graph

__all__ = [
    "knn_graph",
    "relative_neighborhood_graph",
    "delaunay_graph",
    "gabriel_graph",
    "beta_skeleton",
    "emst_graph",
    "wspd_spanner",
]


def knn_graph(points, k: int) -> Graph:
    """Undirected k-nearest-neighbor graph."""
    pts = as_array(points)
    n = len(pts)
    tree = KDTree(pts)
    d, ids = tree.knn(pts, k, exclude_self=True)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = ids.ravel()
    w = np.sqrt(d.ravel())
    valid = dst >= 0
    return Graph(n, np.column_stack([src[valid], dst[valid]]), w[valid])


def delaunay_graph(points) -> Graph:
    """Edges of the 2D Delaunay triangulation."""
    pts = as_array(points)
    dt = delaunay(pts)
    e = dt.edges()
    w = np.linalg.norm(pts[e[:, 0]] - pts[e[:, 1]], axis=1)
    return Graph(len(pts), e, w)


def gabriel_graph(points) -> Graph:
    """Gabriel graph: edges (u,v) whose disk with diameter uv is empty.

    Computed by filtering the Delaunay edges (Gabriel ⊆ Delaunay) with a
    kd-tree ball query around each edge midpoint — all edges queried as
    one data-parallel batch with per-edge radii.
    """
    pts = as_array(points)
    n = len(pts)
    dt = delaunay(pts)
    e = dt.edges()
    tree = KDTree(pts)
    mids = 0.5 * (pts[e[:, 0]] + pts[e[:, 1]])
    radii = 0.5 * np.linalg.norm(pts[e[:, 0]] - pts[e[:, 1]], axis=1)
    balls = range_query_ball_batch(tree, mids, radii * (1 - 1e-12), grain=64)
    keep = np.zeros(len(e), dtype=bool)
    for i, inside in enumerate(balls):
        u, v = e[i]
        inside = inside[(inside != u) & (inside != v)]
        keep[i] = len(inside) == 0
    e = e[keep]
    w = np.linalg.norm(pts[e[:, 0]] - pts[e[:, 1]], axis=1)
    return Graph(n, e, w)


def beta_skeleton(points, beta: float = 1.5) -> Graph:
    """Lune-based β-skeleton for β >= 1 (subgraph of Delaunay).

    For β >= 1 the lune of edge (u, v) is the intersection of two disks
    of radius β·|uv|/2 centered at the points c_{1,2} = (1-β/2)·p +
    (β/2)·q for (p,q) = (u,v),(v,u); the edge survives iff the open lune
    holds no other point (tested via kd-tree range search, per §2).
    """
    if beta < 1:
        raise ValueError("lune-based beta-skeleton requires beta >= 1")
    pts = as_array(points)
    n = len(pts)
    dt = delaunay(pts)
    e = dt.edges()
    tree = KDTree(pts)
    keep = np.zeros(len(e), dtype=bool)
    sched = get_scheduler()
    blocks = query_blocks(len(e), grain=64)
    half_b = beta / 2.0

    def run_block(b: int) -> None:
        lo, hi = blocks[b]
        for i in range(lo, hi):
            u, v = e[i]
            pu, pv = pts[u], pts[v]
            d = np.linalg.norm(pu - pv)
            r = half_b * d
            c1 = (1 - half_b) * pu + half_b * pv
            c2 = (1 - half_b) * pv + half_b * pu
            cand = range_query_ball(tree, c1, r * (1 - 1e-12))
            cand = cand[(cand != u) & (cand != v)]
            if len(cand):
                charge(len(cand))
                d2 = np.linalg.norm(pts[cand] - c2, axis=1)
                if np.any(d2 < r * (1 - 1e-12)):
                    keep[i] = False
                    continue
            keep[i] = True

    sched.parallel_for(len(blocks), run_block)
    e = e[keep]
    w = np.linalg.norm(pts[e[:, 0]] - pts[e[:, 1]], axis=1)
    return Graph(n, e, w)


def emst_graph(points) -> Graph:
    """The Euclidean minimum spanning tree as a graph."""
    pts = as_array(points)
    e, w = emst(pts)
    return Graph(len(pts), e, w)


def wspd_spanner(points, s: float = 8.0) -> Graph:
    """WSPD-based t-spanner: connect a representative pair per WSP.

    With separation s > 4 the result is a t-spanner for
    t = (s + 4) / (s - 4).
    """
    if s <= 4:
        raise ValueError("spanner guarantee needs separation s > 4")
    pts = as_array(points)
    n = len(pts)
    tree = KDTree(pts, leaf_size=1)
    pairs = wspd(tree, s=s)
    charge(max(len(pairs), 1))
    edges = np.empty((len(pairs), 2), dtype=np.int64)
    for i, p in enumerate(pairs):
        # representative: first point in each node
        edges[i, 0] = tree.perm[tree.start[p.a]]
        edges[i, 1] = tree.perm[tree.start[p.b]]
    w = np.linalg.norm(pts[edges[:, 0]] - pts[edges[:, 1]], axis=1)
    return Graph(n, edges, w)


def relative_neighborhood_graph(points) -> Graph:
    """Relative neighborhood graph: the lune-based beta-skeleton at
    beta = 2 (edges whose lune of two |uv|-radius disks is empty)."""
    return beta_skeleton(points, beta=2.0)
