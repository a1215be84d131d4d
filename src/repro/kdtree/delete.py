"""Parallel batch deletion from a static kd-tree (paper Algorithm 2).

The batch of points to erase is partitioned around each node's splitting
hyperplane and pushed to both relevant subtrees in parallel; leaves mark
matching points as deleted.  On the way back up, nodes whose subtrees
emptied are removed, and internal nodes left with a single child are
contracted (the child replaces the node), flattening unnecessary
traversal — exactly the structure-maintenance rule in the paper.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..core.points import as_array
from ..parlay.scheduler import get_scheduler
from ..parlay.workdepth import charge, fork_costs, tracker
from .tree import KDTree

__all__ = ["erase"]

_SEQ_CUTOFF = 2048

#: Sub-batches of at most this many rows split as Python lists: a
#: serving erase brings one or two rows to each tree, where a float
#: comparison per row beats two numpy masks and two fancy indexes.
_LIST_ROWS = 16


def erase(tree: KDTree, point_coords, out: list | None = None) -> int:
    """Delete points (by coordinates) from the tree; returns #deleted.

    Points not present are ignored.  Duplicates in the tree matching a
    single query row are all deleted (coordinate equality is exact).
    ``out``, when given, receives the global ids (``tree.gids``) of the
    deleted points.
    """
    q = as_array(point_coords)
    if q.shape[1] != tree.dim:
        raise ValueError("dimension mismatch")
    if tree.root < 0 or len(q) == 0:
        return 0
    deleted = _CountBox(tree.gids, out)
    new_root = _erase_rec(tree, tree.root, q, deleted, get_scheduler())
    tree.root = new_root if new_root is not None else -1
    tree.n_alive -= deleted.count
    if deleted.count:
        # the live point set changed: invalidate version-keyed caches
        tree.version += 1
    return deleted.count


class _CountBox:
    """Deletion counter, lock-protected for the threads backend.

    With an ``out`` list it also collects the global ids (``gids``) of
    the deleted point ids passed to :meth:`add`.
    """

    __slots__ = ("count", "_lock", "_gids", "_out")

    def __init__(self, gids: np.ndarray | None = None, out: list | None = None):
        self.count = 0
        self._lock = threading.Lock()
        self._gids = gids
        self._out = out

    def add(self, k: int, ids=None) -> None:
        with self._lock:
            self.count += k
            if self._out is not None:
                self._out.extend(self._gids[ids].tolist())


def _erase_rec(tree: KDTree, idx: int, q: np.ndarray | list, deleted: _CountBox, sched) -> int | None:
    """Returns the node that should replace ``idx`` (None = removed).

    ``q`` is an (m, d) array, or a list of m coordinate lists once the
    sub-batch has at most :data:`_LIST_ROWS` rows; both split the same
    rows the same way.  Charges go into the caller's frame.
    """
    m = len(q)
    if m <= _LIST_ROWS:
        if not isinstance(q, list):
            q = q.tolist()
        # the node's own charges first, then its subtrees' composed
        # cost, in the order the per-node frames would merge them
        charge(m, math.log2(m) if m > 1 else 1.0)
        node, w, d = _erase_list(tree, idx, q, deleted, 0.0, 0.0)
        top = tracker.current
        top.work += w
        top.depth += d
        return node
    charge(m, math.log2(m))
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        if len(ids) == 0:
            return None if tree.live[idx] == 0 else idx
        pts = tree.points[ids]
        # exact coordinate match against the batch
        charge(len(ids) * m)
        hit = _match_rows(pts, q)
        if np.any(hit):
            k = int(np.count_nonzero(hit))
            tree.alive[ids[hit]] = False
            tree.live[idx] -= k
            deleted.add(k, ids[hit])
        return None if tree.live[idx] == 0 else idx

    d = int(tree.split_dim[idx])
    sv = float(tree.split_val[idx])
    ql = q[q[:, d] <= sv]
    qr = q[q[:, d] >= sv]
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
    return _contract(tree, idx, results[0], results[1])


def _erase_list(tree: KDTree, idx: int, q: list, deleted: _CountBox,
                w: float, dp: float) -> tuple:
    """The descent below a node whose sub-batch ``q`` is a short list.

    Returns ``(node, work, depth)``: the node replacing ``idx`` and the
    cost of the node's subtree visits, composed without frames exactly
    as :func:`~repro.parlay.workdepth.fork_costs` composes them — each
    child's cost from a fresh 0.0 accumulator, the pair merged as
    ``(wl + wr) + 2`` work and ``max(dl, dr) + 1.0`` depth.  ``w`` and
    ``dp`` are the accumulator the rest of the node's cost adds to: 0.0
    at the list descent's root, whose partition charge the caller put in
    its own frame, and the partition charge ``(m, log m)`` for a child
    (what a fresh frame holds after that charge).
    """
    if tree.is_leaf[idx]:
        ids = tree.node_points(idx)
        n = len(ids)
        if n:
            # exact coordinate match against the batch
            nm = n * len(q)
            w += nm
            dp += math.log2(nm) if nm > 1 else 1.0
            hit = [i for i, p in zip(ids.tolist(), tree.points[ids].tolist()) if p in q]
            if hit:
                tree.alive[hit] = False
                tree.live[idx] -= len(hit)
                deleted.add(len(hit), hit)
        return (None if tree.live[idx] == 0 else idx), w, dp

    d = int(tree.split_dim[idx])
    sv = float(tree.split_val[idx])
    li, ri = int(tree.left[idx]), int(tree.right[idx])
    new_l = li if li >= 0 else None
    new_r = ri if ri >= 0 else None
    wl = dl = wr = dr = 0.0
    if li >= 0:
        ql = [row for row in q if row[d] <= sv]
        if ql:
            k = len(ql)
            new_l, wl, dl = _erase_list(tree, li, ql, deleted, float(k),
                                        math.log2(k) if k > 1 else 1.0)
    if ri >= 0:
        qr = [row for row in q if row[d] >= sv]
        if qr:
            k = len(qr)
            new_r, wr, dr = _erase_list(tree, ri, qr, deleted, float(k),
                                        math.log2(k) if k > 1 else 1.0)
    w += (wl + wr) + 2
    dp += (dl if dl >= dr else dr) + 1.0
    return _contract(tree, idx, new_l, new_r), w, dp


def _contract(tree: KDTree, idx: int, new_l, new_r) -> int | None:
    """Rewire ``idx`` to its children's replacements; returns the node
    replacing ``idx`` (None when both sides emptied, the surviving
    child when one did)."""
    # a child that wasn't visited but is empty should also disappear
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


def _match_rows(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Boolean mask over ``pts`` rows that exactly equal some row of q.

    Equality is ``==`` on every coordinate.  Large inputs prefilter on
    the first coordinate and match whole rows among the candidates
    only, so a small batch against a large set never copies the set.
    """
    if len(q) * len(pts) <= 4096:
        return (pts[:, None, :] == q[None, :, :]).all(axis=2).any(axis=1)
    hit = np.isin(pts[:, 0], q[:, 0])
    cand = np.flatnonzero(hit)
    c = pts[cand]
    if len(cand) * len(q) <= 4096:
        hit[cand] = (c[:, None, :] == q[None, :, :]).all(axis=2).any(axis=1)
    else:
        # hash rows through a void view + sorted membership
        cv = np.ascontiguousarray(c).view([("", c.dtype)] * c.shape[1]).ravel()
        qv = np.ascontiguousarray(q).view([("", q.dtype)] * q.shape[1]).ravel()
        hit[cand] = np.isin(cv, qv)
    return hit
