"""Array-at-a-time kd-tree construction engine.

The recursive builder (:meth:`repro.kdtree.tree.KDTree._build`) runs one
numpy call chain *per node* — an argpartition, a couple of gathers and a
box reduction over segments that shrink geometrically — so construction
cost is dominated by interpreter and numpy-dispatch overhead long before
the arrays get interesting.  This module builds the same tree
*level-at-a-time*: all median splits of one tree depth run as a single
2-D ``argpartition`` over the whole frontier, and bounding boxes come
from one ``reduceat`` over the leaf tiling plus a bottom-up combine.

**Bitwise equivalence.**  With the object-median split rule the segment
boundaries are data-independent (``mid = lo + m // 2``), so the entire
node structure — vEB slot assignment, leaf set, split dimensions, the
frontier wiring — is computed in a cheap structural pass that mirrors
``_build``'s recursion exactly.  The point pass then replays each
level's partitions with the same kernel the recursive path uses
(``np.argpartition`` row-by-row semantics are identical to the 1-D
call), so ``perm``, ``split_val`` and the boxes match the recursive
build bitwise.

**Cost invariance.**  The structural pass also replays the recursive
builder's work/depth accounting — every ``charge`` and every
``merge_parallel`` in the exact order the recursion performs them, with
the same float arithmetic — and issues the total as one charge.  The
charges are therefore identical on every backend; what the batched
engine gives up is per-task ``parlay.task`` spans under tracing (the
same trade the batched query engine made).

:class:`~repro.kdtree.tree.KDTree` runs :func:`build_batched` for every
object-median tree.  Spatial-median trees have data-dependent structure,
so the per-node recursion is their only builder; on object-median input
it is the oracle the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from ..parlay.workdepth import charge

__all__ = ["build_batched"]


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
# the batched builder
# ----------------------------------------------------------------------
def build_batched(tree) -> None:
    """Populate ``tree``'s node arrays level-at-a-time (object median).

    Structural pass: a pure-Python mirror of ``KDTree._build`` that
    assigns vEB slots, marks leaves, wires children, groups every
    median split by global tree depth, and replays the recursion's cost
    accounting.  Point pass: per depth, one 2-D ``argpartition`` over
    all of that depth's segments; then leaf boxes via ``reduceat`` and
    internal boxes bottom-up.  The result is bitwise-identical to the
    recursive build, including the work/depth charges.
    """
    from .tree import _SEQ_CUTOFF, hyperceiling

    n = tree.n_points
    if n == 0:
        return
    dim = tree.dim
    leaf_size = tree.leaf_size

    # (idx, lo, hi) of every internal node, grouped by global depth;
    # split dim at depth t is t % dim (the recursion cycles dimensions)
    splits_by_depth: list[list] = [[] for _ in range(tree.levels)]
    leaves: list = []

    def rec(lo, hi, idx, l, top, fr, depth_t, frontier_out):
        # mirrors _build.build_rec; fr is the enclosing cost frame
        m = hi - lo
        if l == 1:
            tree.used[idx] = True
            tree.start[idx] = lo
            tree.end[idx] = hi
            tree.live[idx] = m
            _charge_into(fr, max(m, 1))
            if top and m >= 2:
                _charge_into(fr, m, math.log2(m) if m > 1 else 1.0)
                mid = lo + m // 2
                tree.split_dim[idx] = depth_t % dim
                splits_by_depth[depth_t].append((idx, lo, hi))
                frontier_out.append((idx, lo, mid, hi, depth_t))
            else:
                tree.is_leaf[idx] = True
                leaves.append((idx, lo))
            return
        if m <= leaf_size or m < 2:
            tree.used[idx] = True
            tree.start[idx] = lo
            tree.end[idx] = hi
            tree.live[idx] = m
            _charge_into(fr, max(m, 1))
            tree.is_leaf[idx] = True
            leaves.append((idx, lo))
            return

        lb = hyperceiling((l + 1) // 2)
        lt = l - lb

        frontier: list = []
        rec(lo, hi, idx, lt, True, fr, depth_t, frontier)

        idx_b = idx + (1 << lt) - 1
        subtree_slots = (1 << lb) - 1
        tasks = []
        pos = idx_b
        for (pidx, plo, pmid, phi, pdepth) in frontier:
            for child, (clo, chi) in (("L", (plo, pmid)), ("R", (pmid, phi))):
                cidx = pos
                pos += subtree_slots
                if chi - clo == 0:
                    continue
                if child == "L":
                    tree.left[pidx] = cidx
                else:
                    tree.right[pidx] = cidx
                tasks.append((clo, chi, cidx, lb, top, pdepth + 1))

        costs = []
        for (clo, chi, cidx, cl, ctop, cdepth) in tasks:
            child_fr = [0.0, 0.0]
            local: list = []
            rec(clo, chi, cidx, cl, ctop, child_fr, cdepth, local)
            costs.append(child_fr)
            frontier_out.extend(local)
        # same composition the recursive build performs: parallel_do for
        # big fan-outs, fork_costs otherwise (identical merge arithmetic)
        if m > _SEQ_CUTOFF and len(tasks) > 1:
            _merge_parallel(fr, costs, len(tasks))
        else:
            _merge_parallel(fr, costs, len(costs) or 1)

    root_fr = [0.0, 0.0]
    rec(0, n, 0, tree.levels, False, root_fr, 0, [])
    charge(root_fr[0], root_fr[1])

    # --- point pass: one argpartition per (depth, segment size) -------
    perm = tree.perm
    points = tree.points
    for t, splits in enumerate(splits_by_depth):
        if not splits:
            continue
        cols = points[:, t % dim]
        # object-median halving keeps segment sizes within two values
        # per depth, so this groups into at most a couple of kernels
        by_size: dict[int, list] = {}
        for (idx, lo, hi) in splits:
            by_size.setdefault(hi - lo, []).append((idx, lo))
        for m, group in by_size.items():
            half = m // 2
            idxs = np.array([g[0] for g in group], dtype=np.int64)
            starts = np.array([g[1] for g in group], dtype=np.int64)
            seg = starts[:, None] + np.arange(m, dtype=np.int64)[None, :]
            rows = perm[seg]
            vals = cols[rows]
            order = np.argpartition(vals, half, axis=1)
            perm[seg] = np.take_along_axis(rows, order, axis=1)
            tree.split_val[idxs] = np.take_along_axis(
                vals, order[:, half : half + 1], axis=1
            )[:, 0]

    # --- boxes: leaves tile [0, n), internal combine bottom-up --------
    leaves.sort(key=lambda e: e[1])
    lidx = np.array([e[0] for e in leaves], dtype=np.int64)
    lstarts = np.array([e[1] for e in leaves], dtype=np.int64)
    laid = points[perm]
    tree.box_lo[lidx] = np.minimum.reduceat(laid, lstarts, axis=0)
    tree.box_hi[lidx] = np.maximum.reduceat(laid, lstarts, axis=0)
    for t in range(len(splits_by_depth) - 1, -1, -1):
        if not splits_by_depth[t]:
            continue
        ii = np.array([s[0] for s in splits_by_depth[t]], dtype=np.int64)
        li = tree.left[ii]
        ri = tree.right[ii]
        tree.box_lo[ii] = np.minimum(tree.box_lo[li], tree.box_lo[ri])
        tree.box_hi[ii] = np.maximum(tree.box_hi[li], tree.box_hi[ri])
