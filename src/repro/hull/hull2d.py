"""2D convex hull: sequential and parallel quickhull, divide-and-conquer.

``quickhull2d_seq`` is the optimized sequential baseline (vectorized
orientation filtering, recursion on the surviving candidates only).
``quickhull2d_parallel`` is the PBBS-style recursive parallel quickhull
the paper uses for R^2 (fork-join on the two subproblems, data-parallel
filtering).  ``divide_conquer_2d`` implements the paper's §3 strategy:
split into ``c * numProc`` equal subsets, sequential quickhull on each
in parallel, then a final hull over the collected subproblem vertices.

All functions return the hull as **indices into the input array, in
counter-clockwise order** starting from the lexicographically smallest
point.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.points import as_array
from ..obs.span import span
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge
from .filter import at_filter

__all__ = ["quickhull2d_seq", "quickhull2d_parallel", "divide_conquer_2d"]

_PAR_CUTOFF = 4096


def _cross_batch(pts: np.ndarray, a: np.ndarray, b: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Signed area of (a, b, pts[idx]) — positive = left of a->b."""
    charge(max(len(idx), 1))
    p = pts[idx]
    return (b[0] - a[0]) * (p[:, 1] - a[1]) - (b[1] - a[1]) * (p[:, 0] - a[0])


def _qh_rec(
    pts: np.ndarray,
    ia: int,
    ib: int,
    idx: np.ndarray,
    out: list,
    parallel: bool,
    cr: np.ndarray | None = None,
) -> None:
    """Hull points strictly left of a->b among ``idx``, appended between
    a and b (a exclusive, b exclusive), in ccw order, into ``out``.

    ``cr`` optionally carries the cross products of ``pts[idx]`` against
    a->b, already computed by the caller's partition pass — the values
    are bitwise-identical to recomputing them, so passing them down
    saves one O(|idx|) pass per recursion level.
    """
    if len(idx) == 0:
        return
    a, b = pts[ia], pts[ib]
    if cr is None:
        cr = _cross_batch(pts, a, b, idx)
    # furthest point from the line a-b (max cross = max distance)
    fi = int(np.argmax(cr))
    charge(max(len(idx), 1))
    if cr[fi] <= 0:
        return
    ic = int(idx[fi])
    c = pts[ic]
    # fused partition kernel: one gather of pts[idx], both child edges'
    # cross products in the same pass (same expressions as _cross_batch,
    # so the children receive bitwise-identical values)
    charge(max(len(idx), 1))
    p = pts[idx]
    px = p[:, 0]
    py = p[:, 1]
    cr_ac = (c[0] - a[0]) * (py - a[1]) - (c[1] - a[1]) * (px - a[0])
    cr_cb = (b[0] - c[0]) * (py - c[1]) - (b[1] - c[1]) * (px - c[0])
    mask_ac = cr_ac > 0
    mask_cb = cr_cb > 0
    left_ac = idx[mask_ac]
    left_cb = idx[mask_cb]
    cr_ac = cr_ac[mask_ac]
    cr_cb = cr_cb[mask_cb]

    if parallel and len(idx) > _PAR_CUTOFF:
        sched = get_scheduler()
        out1: list = []
        out2: list = []
        sched.parallel_do(
            [
                lambda: _qh_rec(pts, ia, ic, left_ac, out1, parallel, cr_ac),
                lambda: _qh_rec(pts, ic, ib, left_cb, out2, parallel, cr_cb),
            ]
        )
        out.extend(out1)
        out.append(ic)
        out.extend(out2)
    else:
        _qh_rec(pts, ia, ic, left_ac, out, parallel, cr_ac)
        out.append(ic)
        _qh_rec(pts, ic, ib, left_cb, out, parallel, cr_cb)


def _quickhull2d(points, parallel: bool, prefilter: bool = True) -> np.ndarray:
    pts = as_array(points)
    if pts.shape[1] != 2:
        raise ValueError("quickhull2d requires 2-dimensional points")
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    # Akl–Toussaint filter-first: eliminate certainly-interior points
    # before quickhull sees them.  Kept points preserve their relative
    # order and every possible hull point survives, so the result is
    # bitwise-identical to the unfiltered run (only cheaper).
    if prefilter and n >= 3:
        keep = at_filter(pts)
        if not keep.all():
            sub = np.flatnonzero(keep)
            local = _quickhull2d(pts[sub], parallel, prefilter=False)
            return sub[local]

    with span("hull2d.partition", batch=n):
        # extreme points by lexicographic order (breaks ties deterministically)
        charge(n, math.log2(max(n, 2)))
        lex = np.lexsort((pts[:, 1], pts[:, 0]))
        il, ir = int(lex[0]), int(lex[-1])
        if il == ir or np.all(pts[il] == pts[ir]):
            return np.array([il], dtype=np.int64)

        idx = np.arange(n, dtype=np.int64)
        a, b = pts[il], pts[ir]
        cr = _cross_batch(pts, a, b, idx)
        upper = idx[cr > 0]
        cr_up = cr[cr > 0]  # reused by the upper chain's root call
        lower = idx[cr < 0]

    out_up: list = []
    out_lo: list = []
    with span("hull2d.recurse", batch=len(upper) + len(lower)):
        if parallel and n > _PAR_CUTOFF:
            get_scheduler().parallel_do(
                [
                    lambda: _qh_rec(pts, il, ir, upper, out_up, True, cr_up),
                    lambda: _qh_rec(pts, ir, il, lower, out_lo, True),
                ]
            )
        else:
            _qh_rec(pts, il, ir, upper, out_up, parallel, cr_up)
            _qh_rec(pts, ir, il, lower, out_lo, parallel)
    # _qh_rec(a, b, ...) emits the chain of points left of a->b in a->b
    # order; out_up runs il->ir above the line, out_lo runs ir->il below.
    # CCW traversal = il, lower chain left-to-right, ir, upper chain
    # right-to-left.
    hull = [il] + out_lo[::-1] + [ir] + out_up[::-1]
    return np.array(hull, dtype=np.int64)


def quickhull2d_seq(points, prefilter: bool = True) -> np.ndarray:
    """Optimized sequential quickhull (the CGAL/Qhull-role baseline).

    ``prefilter`` runs the Akl–Toussaint interior-elimination pass
    first; the result is identical either way.  The divide-and-conquer
    hull turns it off for its per-block and final passes.
    """
    return _quickhull2d(points, parallel=False, prefilter=prefilter)


def quickhull2d_parallel(points, prefilter: bool = True) -> np.ndarray:
    """PBBS-style recursive parallel quickhull for R^2."""
    return _quickhull2d(points, parallel=True, prefilter=prefilter)


def divide_conquer_2d(points, c: int = 2, nblocks: int | None = None) -> np.ndarray:
    """Divide-and-conquer hull (paper §3): ``c * numProc`` blocks, each
    solved sequentially in parallel; final hull over collected vertices.

    ``numProc`` defaults to the simulated target machine (36h cores) so
    the block decomposition matches the paper's; execution interleaves
    the blocks on however many real workers exist.
    """
    from ..bench.harness import PAPER_CORES

    pts = as_array(points)
    n = len(pts)
    sched = get_scheduler()
    if nblocks is None:
        nblocks = c * max(sched.workers, int(PAPER_CORES))
    nblocks = max(1, min(nblocks, n // 32 or 1))
    if nblocks <= 1 or n < 2 * _PAR_CUTOFF:
        return quickhull2d_parallel(pts)

    bounds = [(n * b // nblocks, n * (b + 1) // nblocks) for b in range(nblocks)]

    # The block decomposition IS this algorithm's interior filter (each
    # block's hull discards its interior before the final merge), so the
    # Akl–Toussaint prefilter stays off here: running it per block would
    # shrink the per-block work the paper's §3 cost analysis is about
    # without touching the answer.
    def solve_block(b: int):
        lo, hi = bounds[b]
        sub = quickhull2d_seq(pts[lo:hi], prefilter=False)
        return sub + lo

    with span("hull2d.blocks", batch=nblocks):
        subs = sched.parallel_do(
            [(lambda b=b: solve_block(b)) for b in range(nblocks)]
        )
        cand = np.concatenate(subs)
    with span("hull2d.final", batch=len(cand)):
        final_local = quickhull2d_parallel(pts[cand], prefilter=False)
    return cand[final_local]
