"""Data-parallel k-nearest-neighbor search (paper Appendix C.1.3).

Queries are parallelized across the batch; each individual search walks
the tree serially with a :class:`~repro.kdtree.knnbuffer.KNNBuffer`.
The search descends to the query's leaf first, then unwinds: while the
buffer is not yet full it greedily ingests sibling subtrees; once full,
it prunes with the k-th-nearest bound (taking whole subtrees when their
box lies inside the bound, skipping them when disjoint, recursing when
they straddle it — exactly the paper's strategy).
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..obs.span import span
from ..parlay.scheduler import get_scheduler
from ..parlay.primitives import query_blocks
from ..parlay.workdepth import charge
from .knnbuffer import KNNBuffer
from .tree import KDTree, NodeGeometry, box_dist2

__all__ = ["extract_knn_results", "knn", "knn_into", "knn_single"]


def _ingest_subtree(tree: KDTree, idx: int, q: np.ndarray, buf: KNNBuffer) -> None:
    """Add every live point under ``idx`` to the buffer."""
    ids = tree.node_points(idx)
    if len(ids) == 0:
        return
    pts = tree.points[ids]
    diff = pts - q
    charge(len(ids) * tree.dim)
    d2 = np.einsum("ij,ij->i", diff, diff)
    buf.insert_batch(d2, tree.gids[ids])


def _search(tree: KDTree, idx: int, q: np.ndarray, buf: KNNBuffer, geo: NodeGeometry) -> None:
    if idx < 0 or tree.live[idx] == 0:
        return
    charge(2 * tree.dim + 4, 1)  # per-node box/plane arithmetic
    if tree.is_leaf[idx]:
        _ingest_subtree(tree, idx, q, buf)
        return

    # distance-ordered descent
    li, ri = int(tree.left[idx]), int(tree.right[idx])
    d = int(tree.split_dim[idx])
    first, second = (li, ri) if q[d] <= tree.split_val[idx] else (ri, li)

    _search(tree, first, q, buf, geo)

    if second < 0 or tree.live[second] == 0:
        return
    if not buf.full() and buf.bound == np.inf:
        # fill up with nearby points as fast as possible (paper C.1.3);
        # a seeded bound (finite before the buffer fills) keeps pruning
        _search(tree, second, q, buf, geo)
        return
    near2, far2 = geo(second)
    if near2 >= buf.bound:
        return  # disjoint from the k-NN ball: prune
    if far2 < buf.bound:
        _ingest_subtree(tree, second, q, buf)  # wholly inside: take all
    else:
        _search(tree, second, q, buf, geo)


def _walk(tree: KDTree, q: np.ndarray, buf: KNNBuffer) -> None:
    """One query's search from the root.

    The node distances stay arrays, not lists: a kNN walk reads few
    entries per chunk, fewer than converting them would pay back.
    """
    _search(tree, tree.root, q, buf, NodeGeometry(tree, lambda lo, hi: box_dist2(lo, hi, q)))


def knn_single(tree: KDTree, q: np.ndarray, k: int, buf: KNNBuffer | None = None) -> KNNBuffer:
    """k-NN of a single query point; returns the filled buffer."""
    if buf is None:
        buf = KNNBuffer(k)
    if tree.root >= 0:
        _walk(tree, np.asarray(q, dtype=np.float64), buf)
    return buf


def knn_into(tree: KDTree, queries, buffers: list[KNNBuffer], exclude_self: bool = False) -> None:
    """Run k-NN for each query, accumulating into existing buffers.

    This is the subroutine BDL-trees use: the same buffers are passed to
    each of the log-structure's trees so results merge across trees.
    ``exclude_self`` drops candidates at squared distance 0 at result
    time — callers handle it; here we simply search.
    """
    qs = as_array(queries)
    if len(qs) != len(buffers):
        raise ValueError("queries and buffers length mismatch")
    if tree.root < 0:
        return
    sched = get_scheduler()
    blocks = query_blocks(len(qs), grain=64)

    def run_block(b: int) -> None:
        lo, hi = blocks[b]
        for i in range(lo, hi):
            _walk(tree, qs[i], buffers[i])

    sched.parallel_for(len(blocks), run_block)


def knn(
    tree: KDTree,
    queries,
    k: int,
    exclude_self: bool = False,
    engine: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Data-parallel k-NN over a batch of query points.

    Returns ``(dists, ids)`` of shape (m, k): *squared* distances and
    point ids, each row sorted by distance.  With ``exclude_self`` the
    query point itself (matched by id when the queries are the tree's
    own points, else by zero distance) is excluded; callers should then
    ask for ``k`` true neighbors.

    ``engine`` selects the execution strategy: ``"batched"`` runs the
    whole batch through the vectorized frontier engine of
    :mod:`repro.kdtree.batch`; ``"recursive"`` walks the tree once per
    query; ``None`` picks by batch size
    (:func:`~repro.kdtree.batch.resolve_engine`).  Results and
    work/depth charges are identical.
    """
    from .batch import batched_knn, resolve_engine

    qs = as_array(queries)
    eng = resolve_engine(engine, len(qs), "knn")
    with span("kdtree.knn", batch=len(qs), k=k, engine=eng):
        if eng == "batched":
            return batched_knn(tree, qs, k, exclude_self)
        m = len(qs)
        kk = k + 1 if exclude_self else k
        buffers = [KNNBuffer(kk) for _ in range(m)]
        knn_into(tree, qs, buffers)
        return extract_knn_results(buffers, k, exclude_self)


def extract_knn_results(
    buffers: list[KNNBuffer], k: int, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Data-parallel extraction of (dists, ids) from k-NN buffers."""
    m = len(buffers)
    dists = np.full((m, k), np.inf)
    ids = np.full((m, k), -1, dtype=np.int64)
    sched = get_scheduler()
    blocks = query_blocks(m, grain=256)

    def run_block(b: int) -> None:
        lo, hi = blocks[b]
        for i in range(lo, hi):
            d, j = buffers[i].result()
            if exclude_self:
                # drop the closest zero-distance hit (the query itself)
                if len(d) and d[0] <= 1e-18:
                    d, j = d[1:], j[1:]
                else:
                    d, j = d[:k], j[:k]
            take = min(k, len(d))
            dists[i, :take] = d[:take]
            ids[i, :take] = j[:take]

    sched.parallel_for(len(blocks), run_block)
    return dists, ids
