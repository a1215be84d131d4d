"""Batched array-at-a-time kd-tree query engine.

The recursive query paths (:mod:`.knn`, :mod:`.range_search`) walk the
tree once per query point, paying thousands of interpreter-level node
visits per query.  This module executes an *entire query batch*
simultaneously: a structure-of-arrays frontier of ``(query, node)``
pairs advances one step per iteration, with every geometric test — box
distance pruning against ``box_lo``/``box_hi``, split-plane sidedness,
bulk leaf ingestion — performed by one vectorized numpy kernel over the
whole frontier.

**k-NN** is order-sensitive (the pruning bound tightens as candidates
arrive), so the engine runs a *lock-step DFS*: each query owns a tiny
explicit stack replaying exactly the recursion of ``knn._search``, and
one engine step pops the top entry of every active query at once.  The
per-query visit sequence — and therefore the visit set, the candidate
insertion order, and every ``KNNBuffer`` compaction — is identical to
the recursive path, so results are bitwise-equal and the work/depth
charges match.

**Range search** has no adaptive bound, so it uses a plain breadth-
first frontier, one for box and ball alike: the query region's node
and point tests (:mod:`.range_search`) prune, take whole and filter
leaves; hits are re-ordered by permutation position, the DFS order.

**Cost accounting** is charged per visit into per-query accumulators
(same constants as the recursive path charges per node), then composed
with :func:`repro.parlay.workdepth.charge_blocked` using the *same*
block structure the recursive path hands to the scheduler — so the
simulated-speedup numbers are unchanged: only wall-clock drops.

**Engine choice by batch size.**  The lock-step engine pays a fixed
numpy dispatch cost per step for the whole frontier, so it wins once a
tree call carries enough queries to amortize it; the per-query walk
pays interpreter cost per visited node and wins on tiny batches.  The
serving path is dominated by tiny batches: a traced wallbench run
answers 1.05 (``stream_views``) to 1.15 (``load_zipf``) requests per
front-end batch, and each shard sees a slice of that.  Every query
entry point asks :func:`resolve_engine`, which walks below
:data:`WALK_BELOW` queries per tree call and runs the lock-step engine
from there on.  There is one cutoff per kernel family, from the
measured crossover (table in DESIGN.md): for k=8 in 2D a single kNN
query walks in 0.2 ms against 1.5 ms in lock step and the two meet
between 32 and 48 queries.  Range walks test node boxes a vEB chunk at
a time (:class:`~repro.kdtree.tree.NodeGeometry`); box queries then
meet near 4 and ball queries near 3, so range walks up to two queries
per tree call.
Both engines return identical rows and charges, so the rule only moves
wall-clock time.
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..obs.span import span
from ..parlay.primitives import query_blocks
from ..parlay.workdepth import charge, charge_blocked
from .range_search import Ball, Box, range_query_regions
from .tree import KDTree

__all__ = [
    "WALK_BELOW",
    "BatchKNNBuffers",
    "batched_allnn_on_tree",
    "batched_knn",
    "batched_knn_into",
    "batched_range_query_batch",
    "batched_range_query_ball_batch",
    "execute_requests",
    "resolve_engine",
]

#: Per kernel family, the tree-call batch size below which the
#: per-query walk beats the lock-step engine, from the measured
#: crossover (2D, k=8; table in DESIGN.md): k-NN crosses between m=32
#: and m=48; for range, ball crosses near m=3 and box near m=4.
WALK_BELOW = {"knn": 32, "range": 3}


def resolve_engine(m: int, family: str) -> str:
    """The query engine for one tree call of ``m`` queries: ``"recursive"``
    (the per-query walk) when ``m`` is below ``WALK_BELOW[family]``,
    else ``"batched"`` (the lock-step engine)."""
    return "recursive" if m < WALK_BELOW[family] else "batched"


def _ragged_arange(lens: np.ndarray) -> np.ndarray:
    """[0..lens[0]), [0..lens[1]), ... concatenated."""
    total = int(lens.sum())
    out = np.arange(total, dtype=np.int64)
    return out - np.repeat(np.cumsum(lens) - lens, lens)


def _charge_like(w: np.ndarray) -> np.ndarray:
    """Default depth of ``charge(w)``: log2(w) for w > 1 else 1."""
    w = np.asarray(w, dtype=np.float64)
    return np.where(w > 1, np.log2(np.maximum(w, 2.0)), 1.0)


# ----------------------------------------------------------------------
# Vectorized k-NN buffers (structure-of-arrays KNNBuffer batch)
# ----------------------------------------------------------------------
class BatchKNNBuffers:
    """``m`` KNNBuffer(k) instances stored as flat arrays.

    Semantics (candidate filtering, chunked insertion, selection
    compaction, bound updates) replicate :class:`~.knnbuffer.KNNBuffer`
    exactly, including the charge sequence, so a batched search is
    indistinguishable from ``m`` scalar buffers fed in the same order.

    Per-query (work, depth) charges accumulate in ``qwork``/``qdepth``
    and are flushed by the engine with the block composition of the
    recursive path.
    """

    __slots__ = ("m", "k", "cap", "dists", "ids", "count", "bound", "qwork", "qdepth")

    def __init__(self, m: int, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.m = m
        self.k = k
        self.cap = 2 * k
        self.dists = np.empty((m, self.cap), dtype=np.float64)
        self.ids = np.empty((m, self.cap), dtype=np.int64)
        self.count = np.zeros(m, dtype=np.int64)
        self.bound = np.full(m, np.inf)
        self.qwork = np.zeros(m, dtype=np.float64)
        self.qdepth = np.zeros(m, dtype=np.float64)

    # -- cost flushing -----------------------------------------------------
    def flush_blocked(self, grain: int) -> None:
        """Charge accumulated per-query costs as parallel query blocks."""
        charge_blocked(self.qwork, self.qdepth, query_blocks(self.m, grain=grain))
        self.qwork[:] = 0.0
        self.qdepth[:] = 0.0

    def flush_serial(self) -> None:
        """Charge accumulated per-query costs as one serial scan."""
        charge(float(self.qwork.sum()), float(self.qdepth.sum()))
        self.qwork[:] = 0.0
        self.qdepth[:] = 0.0

    # -- KNNBuffer._compact, vectorized ------------------------------------
    def _compact(self, rows: np.ndarray) -> None:
        cnt = self.count[rows]
        self.qwork[rows] += cnt
        self.qdepth[rows] += 1.0
        at_k = rows[cnt == self.k]
        if len(at_k):
            self.bound[at_k] = self.dists[at_k, : self.k].max(axis=1)
        over = rows[cnt > self.k]
        if len(over):
            # selection-partition per distinct fill level so each row sees
            # the exact argpartition the scalar buffer would run
            for c in np.unique(self.count[over]):
                sub = over[self.count[over] == c]
                d = self.dists[sub, :c]
                sel = np.argpartition(d, self.k - 1, axis=1)[:, : self.k]
                self.dists[sub, : self.k] = np.take_along_axis(d, sel, axis=1)
                self.ids[sub, : self.k] = np.take_along_axis(
                    self.ids[sub, :c], sel, axis=1
                )
            self.count[over] = self.k
            self.bound[over] = self.dists[over, : self.k].max(axis=1)

    # -- KNNBuffer.insert_batch, vectorized over one candidate block
    #    per query -----------------------------------------------------------
    def insert_grouped(
        self,
        rows: np.ndarray,
        cand_d: np.ndarray,
        cand_g: np.ndarray,
        lens: np.ndarray,
    ) -> None:
        """Insert one candidate segment per row (flat, grouped by row).

        ``rows`` must be unique query indices with ``lens > 0``; the
        flat ``cand_d``/``cand_g`` hold each row's candidates back to
        back in insertion order.
        """
        nr = len(rows)
        if nr == 0:
            return
        self.qwork[rows] += lens
        self.qdepth[rows] += 1.0

        rowrep = np.repeat(np.arange(nr, dtype=np.int64), lens)
        keep = cand_d < self.bound[rows][rowrep]
        kd = cand_d[keep]
        kg = cand_g[keep]
        klen = np.bincount(rowrep[keep], minlength=nr).astype(np.int64)
        koff = np.cumsum(klen) - klen
        consumed = np.zeros(nr, dtype=np.int64)
        rem = klen.copy()

        act = np.flatnonzero(rem > 0)
        while len(act):
            q = rows[act]
            space = self.cap - self.count[q]
            take = np.minimum(space, rem[act])
            ins = take > 0
            if np.any(ins):
                pos = act[ins]
                qi = rows[pos]
                t = take[ins]
                rep = np.repeat(np.arange(len(pos), dtype=np.int64), t)
                within = _ragged_arange(t)
                src = (koff[pos] + consumed[pos])[rep] + within
                drow = qi[rep]
                dcol = self.count[qi][rep] + within
                self.dists[drow, dcol] = kd[src]
                self.ids[drow, dcol] = kg[src]
                self.count[qi] += t
                consumed[pos] += t
                rem[pos] -= t
            cq = self.count[q]
            needc = (cq >= self.cap) | ((cq >= self.k) & np.isinf(self.bound[q]))
            if np.any(needc):
                self._compact(q[needc])
            act = act[rem[act] > 0]

        fin = rows[self.count[rows] >= self.k]
        if len(fin):
            self._compact(fin)

    # -- extract_knn_results + KNNBuffer.result, vectorized -----------------
    def extract(self, k: int, exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
        """Final (dists, ids) of shape (m, k), rows sorted by distance."""
        m = self.m
        self._compact(np.arange(m, dtype=np.int64))

        cnt = self.count
        col = np.arange(self.cap)
        valid = col[None, :] < cnt[:, None]
        d_pad = np.where(valid, self.dists, np.inf)
        order = np.argsort(d_pad, axis=1, kind="stable")
        d_sorted = np.take_along_axis(d_pad, order, axis=1)
        i_sorted = np.where(
            np.take_along_axis(valid, order, axis=1),
            np.take_along_axis(self.ids, order, axis=1),
            -1,
        )
        navail = np.minimum(cnt, self.k)
        if exclude_self:
            # drop the closest zero-distance hit (the query itself)
            hit = (navail > 0) & (d_sorted[:, 0] <= 1e-18)
            shift = np.where(hit, 1, 0)
            take_cols = shift[:, None] + col[None, : self.cap - 1]
            d_sorted = np.take_along_axis(d_pad, order, axis=1)
            d_sorted = np.take_along_axis(d_sorted, take_cols, axis=1)
            i_sorted = np.take_along_axis(i_sorted, take_cols, axis=1)
            navail = navail - shift
            # the non-hit branch of the scalar code truncates to k first;
            # both branches below are clipped to k columns anyway
        navail = np.minimum(navail, k)
        dists = np.full((m, k), np.inf)
        ids = np.full((m, k), -1, dtype=np.int64)
        w = min(k, d_sorted.shape[1])
        cols = np.arange(w)
        fill = cols[None, :] < navail[:, None]
        dists[:, :w] = np.where(fill, d_sorted[:, :w], np.inf)
        ids[:, :w] = np.where(fill, i_sorted[:, :w], -1)

        # charges of extract_knn_results: per-query result() compaction,
        # composed over grain-256 blocks (already accumulated by _compact)
        self.flush_blocked(grain=256)
        return dists, ids


# ----------------------------------------------------------------------
# Lock-step DFS k-NN search
# ----------------------------------------------------------------------
# stack entries encode (node << 1) | kind
_VISIT = 0  # run _search(node)
_SECOND = 1  # post-first-child continuation of _search(node)


def _live_at(tree: KDTree, nodes: np.ndarray) -> np.ndarray:
    """tree.live[nodes] that tolerates -1 entries (returns 0 for them)."""
    safe = np.where(nodes >= 0, nodes, 0)
    return np.where(nodes >= 0, tree.live[safe], 0)


def _frontier_knn(
    tree: KDTree,
    qs: np.ndarray,
    buf: BatchKNNBuffers,
    qids: np.ndarray,
    ban: np.ndarray | None,
) -> None:
    """Advance every query's DFS of ``knn._search`` in lock step.

    ``qids`` are the buffer rows driven by this call; ``ban`` optionally
    holds one global point id per row that must never enter the buffer
    (used by all-NN to exclude each query's own point by identity).
    """
    d = tree.dim
    visit_w = 2 * d + 4
    maxstack = tree.levels + 3
    nq = len(qids)
    stack = np.zeros((nq, maxstack), dtype=np.int64)
    sp = np.zeros(nq, dtype=np.int64)
    if tree.live[tree.root] > 0:
        stack[:, 0] = tree.root << 1
        sp[:] = 1

    act = np.flatnonzero(sp > 0)
    while len(act):
        sp[act] -= 1
        ent = stack[act, sp[act]]
        kind = ent & 1
        node = ent >> 1

        vmask = kind == _VISIT
        vrow = act[vmask]
        vnode = node[vmask]
        ing_rows = []
        ing_nodes = []
        if len(vrow):
            # per-node box/plane arithmetic charge of _search
            buf.qwork[qids[vrow]] += visit_w
            buf.qdepth[qids[vrow]] += 1.0
            leaf = tree.is_leaf[vnode]
            lrow, lnode = vrow[leaf], vnode[leaf]
            if len(lrow):
                ing_rows.append(lrow)
                ing_nodes.append(lnode)
            irow, inode = vrow[~leaf], vnode[~leaf]
            if len(irow):
                sd = tree.split_dim[inode]
                go_left = qs[irow, sd] <= tree.split_val[inode]
                first = np.where(go_left, tree.left[inode], tree.right[inode])
                # LIFO: continuation below the first-child visit
                stack[irow, sp[irow]] = (inode << 1) | _SECOND
                sp[irow] += 1
                okf = (first >= 0) & (_live_at(tree, first) > 0)
                frow = irow[okf]
                if len(frow):
                    stack[frow, sp[frow]] = first[okf] << 1
                    sp[frow] += 1

        srow = act[~vmask]
        snode = node[~vmask]
        if len(srow):
            sd = tree.split_dim[snode]
            go_left = qs[srow, sd] <= tree.split_val[snode]
            second = np.where(go_left, tree.right[snode], tree.left[snode])
            ok = (second >= 0) & (_live_at(tree, second) > 0)
            srow, second = srow[ok], second[ok]
            if len(srow):
                # still filling AND no externally seeded bound: descend
                # unconditionally (paper C.1.3).  A seeded row (finite
                # bound before the buffer fills) must keep pruning even
                # while underfull — that is the point of the seed.
                notfull = (buf.count[qids[srow]] < buf.k) & np.isinf(
                    buf.bound[qids[srow]]
                )
                prow = srow[notfull]
                if len(prow):
                    stack[prow, sp[prow]] = second[notfull] << 1
                    sp[prow] += 1
                frow, fnode = srow[~notfull], second[~notfull]
                if len(frow):
                    lo = tree.box_lo[fnode]
                    hi = tree.box_hi[fnode]
                    qq = qs[frow]
                    gap = np.maximum(lo - qq, 0.0) + np.maximum(qq - hi, 0.0)
                    dist2 = np.einsum("ij,ij->i", gap, gap)
                    near = dist2 < buf.bound[qids[frow]]
                    frow, fnode = frow[near], fnode[near]
                    if len(frow):
                        qq = qq[near]
                        lo, hi = lo[near], hi[near]
                        far = np.maximum(np.abs(qq - lo), np.abs(qq - hi))
                        far2 = np.einsum("ij,ij->i", far, far)
                        whole = far2 < buf.bound[qids[frow]]
                        wrow, wnode = frow[whole], fnode[whole]
                        if len(wrow):
                            # box wholly inside the k-NN ball: take all
                            ing_rows.append(wrow)
                            ing_nodes.append(wnode)
                        rrow, rnode = frow[~whole], fnode[~whole]
                        if len(rrow):
                            stack[rrow, sp[rrow]] = rnode << 1
                            sp[rrow] += 1

        if ing_rows:
            _ingest(
                tree,
                qs,
                buf,
                qids,
                np.concatenate(ing_rows),
                np.concatenate(ing_nodes),
                ban,
            )
        act = act[sp[act] > 0]


def _ingest(
    tree: KDTree,
    qs: np.ndarray,
    buf: BatchKNNBuffers,
    qids: np.ndarray,
    rows: np.ndarray,
    nodes: np.ndarray,
    ban: np.ndarray | None,
) -> None:
    """Bulk `_ingest_subtree`: every live point under nodes[i] feeds
    the buffer of rows[i].  At most one node per row per call."""
    start = tree.start[nodes]
    lens = tree.end[nodes] - start
    rowrep = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
    pos = np.repeat(start, lens) + _ragged_arange(lens)
    pids = tree.perm[pos]
    am = tree.alive[pids]
    pids, rowrep = pids[am], rowrep[am]
    if ban is not None:
        okb = tree.gids[pids] != ban[rows[rowrep]]
        pids, rowrep = pids[okb], rowrep[okb]
    klen = np.bincount(rowrep, minlength=len(rows)).astype(np.int64)
    nz = klen > 0
    if not np.any(nz):
        return
    # distance-computation charge of _ingest_subtree
    w = klen[nz] * tree.dim
    r = rows[nz]
    buf.qwork[qids[r]] += w
    buf.qdepth[qids[r]] += _charge_like(w)

    diff = tree.points[pids] - qs[rows[rowrep]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    gid = tree.gids[pids]
    buf.insert_grouped(qids[r], d2, gid, klen[nz])


def batched_knn_into(
    tree: KDTree,
    queries,
    buf: BatchKNNBuffers,
    ban: np.ndarray | None = None,
) -> None:
    """Array-at-a-time counterpart of :func:`repro.kdtree.knn.knn_into`.

    Accumulates into the batch buffers (reused across a BDL structure's
    trees) and charges exactly what the recursive path would: per-visit
    costs composed over grain-64 query blocks.
    """
    qs = as_array(queries)
    if len(qs) != buf.m:
        raise ValueError("queries and buffers length mismatch")
    if tree.root < 0:
        return
    blocks = query_blocks(len(qs), grain=64)
    if not blocks:
        return
    with span("kdtree.batch.frontier", batch=len(qs)):
        _frontier_knn(tree, qs, buf, np.arange(buf.m, dtype=np.int64), ban)
        charge_blocked(buf.qwork, buf.qdepth, blocks)
    buf.qwork[:] = 0.0
    buf.qdepth[:] = 0.0


def batched_knn(
    tree: KDTree, queries, k: int, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Batched engine behind :func:`repro.kdtree.knn.knn`."""
    qs = as_array(queries)
    kk = k + 1 if exclude_self else k
    buf = BatchKNNBuffers(len(qs), kk)
    batched_knn_into(tree, qs, buf)
    return buf.extract(k, exclude_self)


# ----------------------------------------------------------------------
# Breadth-first batched range search
# ----------------------------------------------------------------------
def _split_hits(m: int, hq: list, hp: list, perm: np.ndarray) -> list[np.ndarray]:
    """Reassemble per-query hit lists in recursive (DFS) emission order.

    The DFS collector emits hits in ascending permutation position, so
    sorting each query's hits by ``perm`` position reproduces its output
    array exactly.
    """
    results: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * m
    if not hq:
        return results
    q = np.concatenate(hq)
    p = np.concatenate(hp)
    order = np.lexsort((p, q))
    q, p = q[order], p[order]
    ids = perm[p]
    counts = np.bincount(q, minlength=m)
    offs = np.cumsum(counts) - counts
    for i in np.flatnonzero(counts):
        results[i] = ids[offs[i] : offs[i] + counts[i]]
    return results


def _batched_range(tree: KDTree, region, grain: int = 16) -> list[np.ndarray]:
    """Array-at-a-time batch of ``region`` queries (a :class:`Box` or
    :class:`Ball` batch): one breadth-first frontier of (query, node)
    pairs, pruned and taken whole by ``region.node_test``."""
    m = len(region)
    blocks = query_blocks(m, grain=grain)
    if not blocks:
        return []
    qwork = np.zeros(m, dtype=np.float64)
    qdepth = np.zeros(m, dtype=np.float64)
    hq: list = []
    hp: list = []
    d = tree.dim

    with span(f"kdtree.batch.{region.label}", batch=m):
        if tree.root >= 0 and tree.live[tree.root] > 0:
            fq = np.arange(m, dtype=np.int64)
            fn = np.full(m, tree.root, dtype=np.int64)
            while len(fq):
                np.add.at(qwork, fq, 2 * d + 4)
                np.add.at(qdepth, fq, 1.0)
                disjoint, contained = region.node_test(
                    tree.box_lo[fn], tree.box_hi[fn], fq
                )
                fq, fn, contained = fq[~disjoint], fn[~disjoint], contained[~disjoint]
                if not len(fq):
                    break
                crow, cnode = fq[contained], fn[contained]
                if len(crow):
                    _emit_whole(tree, crow, cnode, hq, hp)
                fq, fn = fq[~contained], fn[~contained]
                leaf = tree.is_leaf[fn]
                lrow, lnode = fq[leaf], fn[leaf]
                if len(lrow):
                    _emit_leaf(tree, region, lrow, lnode, hq, hp, qwork, qdepth)
                fq, fn = fq[~leaf], fn[~leaf]
                nxt_q = []
                nxt_n = []
                for child in (tree.left[fn], tree.right[fn]):
                    ok = (child >= 0) & (_live_at(tree, child) > 0)
                    nxt_q.append(fq[ok])
                    nxt_n.append(child[ok])
                fq = np.concatenate(nxt_q)
                fn = np.concatenate(nxt_n)

        results = _split_hits(m, hq, hp, tree.perm)
        charge_blocked(qwork, qdepth, blocks)
    return results


def batched_range_query_batch(tree: KDTree, los, his, grain: int = 16) -> list[np.ndarray]:
    """Array-at-a-time batch of orthogonal (box) range queries."""
    return _batched_range(tree, Box(los, his), grain)


def batched_range_query_ball_batch(
    tree: KDTree, centers, radii, grain: int = 16
) -> list[np.ndarray]:
    """Array-at-a-time batch of spherical range queries."""
    return _batched_range(tree, Ball(centers, radii), grain)


def _emit_whole(tree, rows, nodes, hq, hp) -> None:
    """Emit every live point under each node (contained case; uncharged,
    matching ``node_points`` in the recursive collector)."""
    start = tree.start[nodes]
    lens = tree.end[nodes] - start
    rowrep = np.repeat(rows, lens)
    pos = np.repeat(start, lens) + _ragged_arange(lens)
    am = tree.alive[tree.perm[pos]]
    hq.append(rowrep[am])
    hp.append(pos[am])


def _emit_leaf(tree, region, rows, nodes, hq, hp, qwork, qdepth) -> None:
    """Emit the live points of each leaf that pass ``region.point_test``
    for its query row, charging the recursive collector's leaf scan."""
    start = tree.start[nodes]
    lens = tree.end[nodes] - start
    rowrep = np.repeat(rows, lens)
    pos = np.repeat(start, lens) + _ragged_arange(lens)
    pids = tree.perm[pos]
    am = tree.alive[pids]
    pos, pids, rowrep = pos[am], pids[am], rowrep[am]
    klen = np.bincount(
        np.repeat(np.arange(len(rows), dtype=np.int64), lens)[am], minlength=len(rows)
    )
    nz = klen > 0
    if not np.any(nz):
        return
    w = klen[nz] * tree.dim
    np.add.at(qwork, rows[nz], w)
    np.add.at(qdepth, rows[nz], _charge_like(w))
    inside = region.point_test(tree.points[pids], rowrep)
    hq.append(rowrep[inside])
    hp.append(pos[inside])


# ----------------------------------------------------------------------
# Heterogeneous-batch entry point (used by repro.serve)
# ----------------------------------------------------------------------
def batched_allnn_on_tree(tree: KDTree) -> tuple[np.ndarray, np.ndarray]:
    """1-NN of every *alive* point of an existing tree, banning self by id.

    Rows follow ascending alive point index; distances are Euclidean
    (not squared), matching :func:`repro.kdtree.allnn.all_nearest_neighbors`.
    """
    aids = np.flatnonzero(tree.alive)
    if len(aids) < 2:
        raise ValueError("allnn needs at least 2 alive points")
    qs = tree.points[aids]
    buf = BatchKNNBuffers(len(aids), 1)
    batched_knn_into(tree, qs, buf, ban=tree.gids[aids])
    d, i = buf.extract(1, exclude_self=False)
    return np.sqrt(d[:, 0]), i[:, 0]


def _range_results(index, region) -> list[np.ndarray]:
    """Per-query global-id hits for a region batch on a KDTree or a
    BDL-style index (through its ``range_query_<label>_batch``)."""
    if isinstance(index, KDTree):
        return [index.gids[ids] for ids in range_query_regions(index, region)]
    return getattr(index, f"range_query_{region.label}_batch")(*region.args)


#: request kind -> the region batch a group's payloads describe
_REQUEST_REGIONS = {
    "box": lambda boxes: Box(
        *np.stack([np.asarray(b, dtype=np.float64) for b in boxes]).transpose(1, 0, 2)
    ),
    "ball": lambda balls: Ball(
        np.stack([np.asarray(c, dtype=np.float64) for c, _ in balls]),
        [float(r) for _, r in balls],
    ),
}


def execute_requests(index, requests, costs_out: list | None = None,
                     errors_out: list | None = None) -> list:
    """Execute a *heterogeneous* batch of single-query requests.

    ``requests`` is a sequence of ``(kind, payload, params)`` where

    * ``("knn", q, {"k": k, "exclude_self": bool})`` — ``q`` of shape
      (d,); result ``(sq_dists, ids)``, each of shape (k,);
    * ``("box", box, {})`` — ``box`` of shape (2, d) holding (lo, hi);
      result: global ids inside the closed box;
    * ``("ball", (center, radius), {})`` — result: global ids within
      ``radius`` of ``center`` (per-request radii batch together);
    * ``("allnn", None, {})`` — result ``(dists, ids)`` over all alive
      points (KDTree indexes only);
    * ``("view", name, {"name": name})`` — the named materialized
      view's ``(answer, version)`` from the index's attached
      :class:`~repro.views.manager.ViewManager` (one lookup per group;
      requires a view-bearing dynamic dataset).

    Requests are grouped by ``(kind, params)`` preserving first-seen
    order and each group runs as ONE dispatch per tree, so a mixed slab
    from the query service costs a handful of numpy dispatches
    instead of one tree walk per request.  Each tree call picks its
    engine from its own batch size (:func:`resolve_engine`).  Results
    come back in input order and are bitwise-identical to running each
    request alone through the recursive engine.

    ``index`` is a :class:`KDTree` or a BDL-style index exposing
    ``knn`` / ``range_query_box_batch`` / ``range_query_ball_batch``;
    ids are global (``gids``) in either case.

    When ``costs_out`` is a list it is filled with one per-request
    *work weight* aligned to ``requests``: each group's execution is
    captured separately and its charged work divides evenly across the
    group's members (the engine runs a group as one vectorized shot, so
    within-group per-item work is not individually observable).  The
    weights are attribution inputs — see
    :func:`repro.obs.rtrace.partition_work` — and sum to the total work
    the batch charged, up to float re-association from the per-group
    capture.  Charge *composition* is unchanged: captures absorb
    serially into the enclosing frame, the same composition the
    uncaptured path records.

    When ``errors_out`` is a list it is filled with one entry per
    request: ``None``, or the exception its group raised.  A raising
    group then fails only its own members -- the other groups still run
    and their results are returned; the failed members' results stay
    ``None``.  Without it the first raising group's exception
    propagates.
    """
    results: list = [None] * len(requests)
    groups: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for i, (kind, _payload, params) in enumerate(requests):
        key = (kind, tuple(sorted(dict(params).items())))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)

    if costs_out is not None:
        from ..parlay.workdepth import capture as _capture

        del costs_out[:]
        costs_out.extend([0.0] * len(requests))
    if errors_out is not None:
        del errors_out[:]
        errors_out.extend([None] * len(requests))

    for key in order:
        kind, params = key[0], dict(key[1])
        idxs = groups[key]
        try:
            if costs_out is not None:
                with _capture() as _group_cost:
                    _run_group(index, requests, results, kind, params, idxs)
                per_member = _group_cost.work / len(idxs)
                for i in idxs:
                    costs_out[i] = per_member
            else:
                _run_group(index, requests, results, kind, params, idxs)
        except Exception as exc:
            if errors_out is None:
                raise
            for i in idxs:
                results[i] = None
                errors_out[i] = exc
    return results


def _run_group(index, requests, results, kind, params, idxs) -> None:
    """One (kind, params) group as a single dispatch."""
    if kind == "knn":
        qs = np.stack([np.asarray(requests[i][1], dtype=np.float64) for i in idxs])
        d, g = index.knn(
            qs,
            params["k"],
            exclude_self=params.get("exclude_self", False),
        )
        for r, i in enumerate(idxs):
            results[i] = (d[r].copy(), g[r].copy())
    elif kind in _REQUEST_REGIONS:
        region = _REQUEST_REGIONS[kind]([requests[i][1] for i in idxs])
        for i, hits in zip(idxs, _range_results(index, region)):
            results[i] = hits
    elif kind == "allnn":
        if not isinstance(index, KDTree):
            raise ValueError("allnn requests require a static KDTree dataset")
        shared = batched_allnn_on_tree(index)
        for i in idxs:
            results[i] = shared
    elif kind == "view":
        manager = getattr(index, "views", None)
        if manager is None:
            raise ValueError(
                "view requests require a dataset with a ViewManager attached"
            )
        shared = manager.get(params["name"])
        for i in idxs:
            results[i] = shared
    else:
        raise ValueError(f"unknown request kind {kind!r}")
