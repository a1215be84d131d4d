"""Reference kd-tree erase: the all-numpy descent of paper Algorithm 2.

This is the batch-deletion recursion that ``repro.kdtree.delete`` ran
before small sub-batches were split as Python lists, kept here
unchanged as the oracle: the library's erase must leave the same node
arrays, delete the same points and charge the same work and depth.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.points import as_array
from repro.kdtree.delete import _CountBox, _match_rows
from repro.kdtree.tree import KDTree
from repro.parlay.scheduler import get_scheduler
from repro.parlay.workdepth import charge, fork_costs

_SEQ_CUTOFF = 2048


def reference_erase(tree: KDTree, point_coords) -> int:
    """``repro.kdtree.delete.erase`` through the reference descent."""
    q = as_array(point_coords)
    if q.shape[1] != tree.dim:
        raise ValueError("dimension mismatch")
    if tree.root < 0 or len(q) == 0:
        return 0
    deleted = _CountBox()
    new_root = _erase_rec(tree, tree.root, q, deleted, get_scheduler())
    tree.root = new_root if new_root is not None else -1
    tree.n_alive -= deleted.count
    if deleted.count:
        tree.version += 1
    return deleted.count


def _erase_rec(tree: KDTree, idx: int, q: np.ndarray, deleted: _CountBox, sched) -> int | None:
    """Returns the node that should replace ``idx`` (None = removed)."""
    m = len(q)
    charge(max(m, 1), math.log2(m) if m > 1 else 1.0)
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        if len(ids) == 0:
            return None if tree.live[idx] == 0 else idx
        pts = tree.points[ids]
        charge(len(ids) * max(m, 1))
        hit = _match_rows(pts, q)
        if np.any(hit):
            k = int(np.count_nonzero(hit))
            tree.alive[ids[hit]] = False
            tree.live[idx] -= k
            deleted.add(k)
        return None if tree.live[idx] == 0 else idx

    d = int(tree.split_dim[idx])
    sv = float(tree.split_val[idx])
    mask_l = q[:, d] <= sv
    mask_r = q[:, d] >= sv
    ql = q[mask_l]
    qr = q[mask_r]
    li, ri = int(tree.left[idx]), int(tree.right[idx])

    results: list[int | None] = [None, None]

    def do_left():
        results[0] = _erase_rec(tree, li, ql, deleted, sched) if (li >= 0 and len(ql)) else (li if li >= 0 else None)

    def do_right():
        results[1] = _erase_rec(tree, ri, qr, deleted, sched) if (ri >= 0 and len(qr)) else (ri if ri >= 0 else None)

    if m > _SEQ_CUTOFF and len(ql) and len(qr):
        sched.parallel_do([do_left, do_right])
    else:
        fork_costs([do_left, do_right])

    new_l, new_r = results
    if new_l is not None and tree.live[new_l] == 0:
        new_l = None
    if new_r is not None and tree.live[new_r] == 0:
        new_r = None

    tree.left[idx] = new_l if new_l is not None else -1
    tree.right[idx] = new_r if new_r is not None else -1
    tree.live[idx] = (tree.live[new_l] if new_l is not None else 0) + (
        tree.live[new_r] if new_r is not None else 0
    )
    if new_l is None and new_r is None:
        return None
    if new_l is None:
        return new_r
    if new_r is None:
        return new_l
    return idx
