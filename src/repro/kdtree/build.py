"""Array-at-a-time kd-tree construction engine.

The recursive builder (:meth:`repro.kdtree.tree.KDTree._build`) runs one
numpy call chain *per node* — an argpartition, a couple of gathers and a
box reduction over segments that shrink geometrically — so construction
cost is dominated by interpreter and numpy-dispatch overhead long before
the arrays get interesting.  This module builds the same tree
*level-at-a-time*: all median splits of one tree depth run as a single
2-D ``argpartition`` over the whole frontier, and bounding boxes come
from one ``reduceat`` over the leaf tiling plus a bottom-up combine.

**Skeleton and point pass.**  With the object-median split rule the
segment boundaries are data-independent (``mid = lo + m // 2``), so the
whole layout of a tree depends only on ``(n, leaf_size, d)``: vEB slot
assignment, leaf set, split dimensions, child wiring, the per-depth
groups of median splits, the leaf tiling and the box-combine order.
:func:`skeleton` computes that layout as arrays by mirroring
``_build``'s recursion; a recursion call's output depends only on its
segment size, level count and kind, so each distinct call is computed
once and repeated subtrees are shifted copies of it.  The point pass
(:func:`build_batched`) then only runs numpy calls on those arrays: it
replays each level's partitions with the same kernel the recursive path
uses (``np.argpartition`` row-by-row semantics are identical to the 1-D
call), so ``perm``, ``split_val`` and the boxes match the recursive
build bitwise.

**Cost invariance.**  The skeleton also replays the recursive builder's
work/depth accounting — every ``charge`` and every ``merge_parallel``
of every call, in the call's order, with the same float arithmetic —
and the point pass issues the total as one charge.  The charges are
therefore identical on every backend; what the batched engine gives up
is per-task ``parlay.task`` spans under tracing (the same trade the
batched query engine made).

**Sharing within one construction.**  A construction that builds many
trees — a :class:`~repro.cluster.index.ShardedIndex` or a shard split —
builds them inside :func:`shared_skeletons`, and trees of equal
``(n, leaf_size, d)`` then share one skeleton (a sharded index's
equal-size shards build one skeleton, not one each).  The skeletons
are dropped when the construction's block ends: nothing is cached
across constructions, so every build pays for its own layouts and a
timed build stays a cold build.  The block is per thread; a
``threads``-backend worker outside it computes its own skeletons,
which are identical.

:class:`~repro.kdtree.tree.KDTree` runs :func:`build_batched` for every
object-median tree.  Spatial-median trees have data-dependent structure,
so the per-node recursion is their only builder; on object-median input
it is the oracle the tests compare against.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from ..parlay.workdepth import charge

__all__ = ["Skeleton", "build_batched", "shared_skeletons", "skeleton", "tree_levels"]


def tree_levels(n: int, leaf_size: int) -> int:
    """Levels of a tree over ``n`` points: enough that a balanced tree
    has at most ``leaf_size`` points per leaf."""
    return max(1, math.ceil(math.log2(max(1, n / leaf_size))) + 1)


# ----------------------------------------------------------------------
# cost replay: the recursive builder's accounting, as plain floats
# ----------------------------------------------------------------------
def _charge_into(fr: list, work: int, depth: float | None = None) -> None:
    """Replays ``tracker.charge`` into a [work, depth] frame accumulator."""
    if depth is None:
        depth = math.log2(work) if work > 1 else 1.0
    fr[0] += work
    fr[1] += depth


def _merge_parallel(fr: list, costs: list, fanout: int) -> None:
    """Replays ``tracker.merge_parallel`` (sum work / max depth + fork)."""
    if not costs:
        return
    fr[0] += sum(c[0] for c in costs) + fanout
    fr[1] += max(c[1] for c in costs) + math.log2(max(fanout, 2))


# ----------------------------------------------------------------------
# the skeleton: everything about a tree that does not read a coordinate
# ----------------------------------------------------------------------
class Skeleton(NamedTuple):
    """The data-independent layout of one object-median tree.

    ``nodes`` holds ``(field, array)`` for every node array the layout
    fixes (all but ``split_val`` and the boxes).  ``passes`` lists, per
    tree depth with splits, ``(split dim, groups)`` where each group is
    ``(m, node ids, segment starts)`` for that depth's splits of size
    ``m``.  ``leaf_idx`` / ``leaf_start`` tile ``[0, n)`` in order;
    ``combine`` lists ``(node ids, left ids, right ids)`` deepest depth
    first.  ``work`` / ``depth`` is the recursion's replayed charge.
    """

    nodes: tuple
    passes: list
    leaf_idx: np.ndarray
    leaf_start: np.ndarray
    combine: list
    work: float
    depth: float


def _shifted(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Copies of ``rows`` (r, k), one per column of ``offsets`` (r, c),
    each shifted by its column: (r, c * k)."""
    return (rows[:, None, :] + offsets[:, :, None]).reshape(rows.shape[0], -1)


def skeleton(n: int, leaf_size: int, dim: int) -> Skeleton:
    """The layout and replayed charge of a tree over ``n >= 1`` points.

    Mirrors ``KDTree._build``'s recursion ``build_rec(lo, hi, idx, l,
    top)``.  What one call lays out depends only on ``(hi - lo, l,
    top)``; its slots, segments and depths shift with ``(idx, lo,
    depth)``.  Every call also starts from a fresh cost frame: a forked
    task's own, or its caller's, which charged nothing before calling
    its top half.  So each distinct call is computed once, at offset 0
    — its nodes, its frontier of splits and its frame, with the
    recursion's float arithmetic — and a call that lays out many equal
    bottom subtrees stamps shifted copies of one.  The tree's nodes then
    sort by depth and position, which gives the child wiring and the
    per-depth groups of the point pass.
    """
    from .tree import hyperceiling

    levels = tree_levels(n, leaf_size)
    calls: dict = {}

    def call(m, l, top):
        # -> (nodes: rows slot, lo, hi, depth, leaf; frontier: rows slot,
        #     lo, hi, depth of its last-level splits, left to right;
        #     its cost frame), at offset 0
        key = (m, l, top)
        got = calls.get(key)
        if got is not None:
            return got
        if l == 1 or m <= leaf_size or m < 2:
            fr = [0.0, 0.0]
            _charge_into(fr, max(m, 1))
            split = l == 1 and top and m >= 2
            if split:
                _charge_into(fr, m, math.log2(m) if m > 1 else 1.0)
            node = np.array([[0], [0], [m], [0], [not split]], dtype=np.int64)
            got = calls[key] = (node, node[:4, : int(split)], fr)
            return got

        lb = hyperceiling((l + 1) // 2)
        lt = l - lb
        top_nodes, (fidx, flo, fhi, fdepth), top_fr = call(m, lt, True)
        # a split's halves are never empty; each roots a bottom subtree,
        # laid out after the top half in frontier order L0, R0, L1, ...
        nf = len(fidx)
        clo = np.empty(2 * nf, dtype=np.int64)
        clo[0::2] = flo
        clo[1::2] = flo + (fhi - flo) // 2
        sizes = np.empty(2 * nf, dtype=np.int64)
        sizes[0::2] = clo[1::2] - flo
        sizes[1::2] = fhi - clo[1::2]
        cidx = (1 << lt) - 1 + np.arange(2 * nf, dtype=np.int64) * ((1 << lb) - 1)
        cdepth = np.repeat(fdepth + 1, 2)
        nodes, fronts = [top_nodes], []
        for size in np.unique(sizes).tolist():
            c_nodes, c_front, _ = call(size, lb, top)
            at = sizes == size
            shift = np.stack([cidx[at], clo[at], clo[at], cdepth[at], np.zeros_like(clo[at])])
            nodes.append(_shifted(c_nodes, shift))
            if c_front.shape[1]:
                fronts.append(_shifted(c_front, shift[:4]))
        front = np.concatenate(fronts, axis=1) if fronts else top_nodes[:4, :0]
        if len(fronts) > 1:
            front = front[:, np.argsort(front[1])]
        # parallel_do (above the task grain) and fork_costs (below it)
        # merge the same way, with the task count as fan-out
        fr = list(top_fr)
        _merge_parallel(fr, [calls[(size, lb, top)][2] for size in sizes.tolist()],
                        len(sizes))
        got = calls[key] = (np.concatenate(nodes, axis=1), front, fr)
        return got

    (idx, lo, hi, depth, leaf), _, (work, work_depth) = call(n, levels, False)
    leaf = leaf.astype(bool)
    nslots = (1 << levels) - 1
    used = np.zeros(nslots, dtype=bool)
    used[idx] = True
    is_leaf = np.zeros(nslots, dtype=bool)
    is_leaf[idx] = leaf
    start = np.zeros(nslots, dtype=np.int64)
    start[idx] = lo
    end = np.zeros(nslots, dtype=np.int64)
    end[idx] = hi
    split_dim = np.full(nslots, -1, dtype=np.int32)
    left = np.full(nslots, -1, dtype=np.int64)
    right = np.full(nslots, -1, dtype=np.int64)

    # by depth, then left to right: the nodes of depth t + 1 are the two
    # halves of each split of depth t, in order
    order = np.lexsort((lo, depth))
    idx, lo, m, depth, leaf = idx[order], lo[order], (hi - lo)[order], depth[order], leaf[order]
    bounds = np.searchsorted(depth, np.arange(levels + 1))
    passes, combine = [], []
    for t in range(levels - 1):
        a, b, c = bounds[t], bounds[t + 1], bounds[t + 2]
        inner = ~leaf[a:b]
        if not inner.any():
            break
        ii, mi, li = idx[a:b][inner], m[a:b][inner], lo[a:b][inner]
        left[ii] = idx[b:c:2]
        right[ii] = idx[b + 1 : c : 2]
        split_dim[ii] = t % dim
        combine.append((ii, idx[b:c:2], idx[b + 1 : c : 2]))
        # object-median halving keeps segment sizes within two values
        # per depth, so this groups into at most a couple of kernels
        passes.append((t % dim, [(size, ii[mi == size], li[mi == size])
                                 for size in np.unique(mi).tolist()]))
    combine.reverse()

    by_start = np.argsort(lo[leaf])
    nodes = (
        ("split_dim", split_dim),
        ("left", left),
        ("right", right),
        ("is_leaf", is_leaf),
        ("used", used),
        ("start", start),
        ("end", end),
        ("live", end - start),
    )
    return Skeleton(nodes, passes, idx[leaf][by_start], lo[leaf][by_start], combine,
                    work, work_depth)


# ----------------------------------------------------------------------
# sharing skeletons within one construction
# ----------------------------------------------------------------------
_construction = threading.local()


@contextmanager
def shared_skeletons():
    """Let the trees this thread builds in the block share skeletons.

    A nested block joins the outermost one.  The skeletons are dropped
    when the outermost block ends.
    """
    if getattr(_construction, "skeletons", None) is not None:
        yield
        return
    _construction.skeletons = {}
    try:
        yield
    finally:
        _construction.skeletons = None


# ----------------------------------------------------------------------
# the batched builder
# ----------------------------------------------------------------------
def build_batched(tree) -> None:
    """Populate ``tree``'s node arrays level-at-a-time (object median).

    Takes the tree's skeleton (shared within a :func:`shared_skeletons`
    block, computed otherwise), charges its replayed cost, copies its
    node arrays, then runs the point pass: per depth, one 2-D
    ``argpartition`` per segment size over that depth's segments; then
    leaf boxes via ``reduceat`` and internal boxes bottom-up.  The
    result is bitwise-identical to the recursive build, including the
    work/depth charges.
    """
    n = tree.n_points
    if n == 0:
        return
    key = (n, tree.leaf_size, tree.dim)
    shared = getattr(_construction, "skeletons", None)
    sk = shared.get(key) if shared is not None else None
    if sk is None:
        sk = skeleton(*key)
        if shared is not None:
            shared[key] = sk
    charge(sk.work, sk.depth)
    for name, arr in sk.nodes:
        getattr(tree, name)[:] = arr

    perm = tree.perm
    points = tree.points
    split_val = tree.split_val
    for d, groups in sk.passes:
        cols = points[:, d]
        for m, idxs, starts in groups:
            half = m // 2
            seg = starts[:, None] + np.arange(m, dtype=np.int64)[None, :]
            rows = perm[seg]
            vals = cols[rows]
            order = np.argpartition(vals, half, axis=1)
            perm[seg] = np.take_along_axis(rows, order, axis=1)
            split_val[idxs] = np.take_along_axis(
                vals, order[:, half : half + 1], axis=1
            )[:, 0]

    # --- boxes: leaves tile [0, n), internal combine bottom-up --------
    box_lo, box_hi = tree.box_lo, tree.box_hi
    laid = points[perm]
    box_lo[sk.leaf_idx] = np.minimum.reduceat(laid, sk.leaf_start, axis=0)
    box_hi[sk.leaf_idx] = np.maximum.reduceat(laid, sk.leaf_start, axis=0)
    for ii, li, ri in sk.combine:
        box_lo[ii] = np.minimum(box_lo[li], box_lo[ri])
        box_hi[ii] = np.maximum(box_hi[li], box_hi[ri])
