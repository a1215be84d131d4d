"""Batch-dynamic closest-pair view (sparse-partition style).

Follows the structure of Wang, Yu, Gu & Shun's parallel batch-dynamic
closest pair: the view keeps the live points bucketed in a uniform grid
whose cell width ``w`` satisfies the **sparse-partition invariant**
``w^2 >= answer_d2`` — every pair that could beat (or tie) the current
answer has per-coordinate extent at most ``w`` and therefore lies in
the same or an adjacent cell.  A batch insert then repairs the answer
by scanning only the ``3^d`` neighborhoods of the cells the batch
touched (the candidate neighbor set); a batch erase that keeps both
answer endpoints alive is free (deleting points can only *remove*
pairs, so the surviving minimum is unchanged); an erase that kills an
endpoint falls back to a counted from-scratch recompute, which also
re-tightens the grid.

The answer is canonical: the lexicographically smallest ``(d2, gi,
gj)`` (``gi < gj`` by global id) over all live pairs, with every
distance evaluated by :func:`~repro.views.base.pairs_d2` — so the
incremental path, the fallback, and the from-scratch reference
:meth:`ClosestPairView.compute` agree bitwise, ties included.
"""

from __future__ import annotations

import numpy as np

from ..closestpair.divide_conquer import _rec
from ..parlay.workdepth import charge
from .base import MaterializedView, Mirror, pairs_d2

__all__ = ["ClosestPairView"]


def _lex_min(a, b):
    """Smaller of two (d2, gi, gj) answers (None = no pair)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _pair_key(d2: float, ga: int, gb: int) -> tuple:
    return (float(d2), min(int(ga), int(gb)), max(int(ga), int(gb)))


def _duplicate_answer(pts: np.ndarray, gids: np.ndarray):
    """Canonical zero-distance answer: lex-min over duplicate groups."""
    view = np.ascontiguousarray(pts).view(
        [("", pts.dtype)] * pts.shape[1]
    ).ravel()
    order = np.argsort(view, kind="stable")
    sv = view[order]
    best = None
    start = 0
    for i in range(1, len(sv) + 1):
        if i == len(sv) or sv[i] != sv[start]:
            if i - start >= 2:
                g = np.sort(gids[order[start:i]])
                best = _lex_min(best, _pair_key(0.0, g[0], g[1]))
            start = i
    return best


class ClosestPairView(MaterializedView):
    """Materialized closest pair over one batch-dynamic index."""

    kind = "closest_pair"

    def __init__(self, name: str = "closest_pair"):
        super().__init__(name)
        self.w = 1.0
        self._cells: dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # canonical from-scratch reference
    # ------------------------------------------------------------------
    @classmethod
    def compute(cls, pts: np.ndarray, gids: np.ndarray):
        """The canonical answer for a live set: ``(d2, gi, gj)`` or None."""
        answer, _w = cls._canonical(
            np.ascontiguousarray(pts, dtype=np.float64),
            np.asarray(gids, dtype=np.int64),
        )
        return answer

    @staticmethod
    def _cells_of(pts: np.ndarray, w: float) -> np.ndarray:
        return np.floor(pts / w).astype(np.int64)

    @classmethod
    def _canonical(cls, pts: np.ndarray, gids: np.ndarray):
        """(answer, grid width) from scratch.

        Uses the repo's divide-and-conquer closest pair for an upper
        bound ``r2``, then canonicalizes: collect every pair within the
        slightly-inflated bound from a grid of width ``sqrt(cutoff)``
        and take the lexicographic minimum under :func:`pairs_d2`.
        """
        n = len(pts)
        if n < 2:
            return None, 1.0
        r2, _i, _j = _rec(pts, np.arange(n, dtype=np.int64), 0, False)
        if r2 == 0.0:
            return _duplicate_answer(pts, gids), 1.0
        # inflate by an ulp + relative slack: _rec's internal distance
        # expression may differ from pairs_d2 by a rounding step, and
        # the canonical minimum must never be excluded by the bound
        cutoff = max(np.nextafter(r2, np.inf), r2 * (1.0 + 1e-12))
        w = float(np.nextafter(np.sqrt(cutoff), np.inf))
        cells = cls._cells_of(pts, w)
        buckets: dict[tuple, list] = {}
        for row, c in enumerate(map(tuple, cells)):
            buckets.setdefault(c, []).append(row)

        d = pts.shape[1]
        offsets = np.stack(
            np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)
        # half-neighborhood: strictly positive lexicographic offsets,
        # so each cell pair is visited once
        half = [tuple(o) for o in offsets if tuple(o) > tuple([0] * d)]

        best = None
        for c, rows in buckets.items():
            rows = np.asarray(rows, dtype=np.int64)
            if len(rows) > 1:
                ii, jj = np.triu_indices(len(rows), k=1)
                best = _lex_min(best, cls._best_of(
                    pts, gids, rows[ii], rows[jj], cutoff))
            for off in half:
                other = buckets.get(tuple(np.add(c, off)))
                if other is None:
                    continue
                other = np.asarray(other, dtype=np.int64)
                ii = np.repeat(rows, len(other))
                jj = np.tile(other, len(rows))
                best = _lex_min(best, cls._best_of(pts, gids, ii, jj, cutoff))
        return best, w

    @staticmethod
    def _best_of(pts, gids, rows_a, rows_b, cutoff):
        """Lex-min (d2, gi, gj) among row pairs with d2 <= cutoff."""
        if len(rows_a) == 0:
            return None
        charge(len(rows_a))
        d2 = pairs_d2(pts[rows_a], pts[rows_b])
        keep = d2 <= cutoff
        if not keep.any():
            return None
        d2 = d2[keep]
        ga = gids[rows_a[keep]]
        gb = gids[rows_b[keep]]
        lo = np.minimum(ga, gb)
        hi = np.maximum(ga, gb)
        k = np.lexsort((hi, lo, d2))[0]
        return _pair_key(d2[k], lo[k], hi[k])

    # ------------------------------------------------------------------
    # state (re)build
    # ------------------------------------------------------------------
    def _rebuild(self, mirror: Mirror) -> None:
        rows = mirror.live_rows()
        self.answer, self.w = self._canonical(
            mirror.pts[rows], mirror.gids[rows]
        )
        self._cells = {}
        self._index_rows(mirror, rows)

    def _index_rows(self, mirror: Mirror, rows) -> None:
        if len(rows) == 0:
            return
        cells = self._cells_of(mirror.pts[rows], self.w)
        for r, c in zip(rows, map(tuple, cells)):
            self._cells.setdefault(c, []).append(int(r))

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _repair_insert(self, mirror: Mirror, rows: np.ndarray) -> None:
        if self.answer is None:
            # no pair to repair against (fewer than 2 points before,
            # possibly after the live set emptied): the grid width is
            # stale, so rebuild once there is a pair
            if mirror.n_live() >= 2:
                self.note_recompute()
                self._rebuild(mirror)
            return
        self.note_repair()
        self._index_rows(mirror, rows)
        d = mirror.dim
        offsets = np.stack(
            np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)
        cells = self._cells_of(mirror.pts[rows], self.w)
        best = self.answer
        for r, c in zip(rows, cells):
            cand = []
            for off in offsets:
                got = self._cells.get(tuple(c + off))
                if got:
                    cand.extend(got)
            cand = np.asarray(cand, dtype=np.int64)
            cand = cand[mirror.alive[cand] & (cand != r)]
            if len(cand) == 0:
                continue
            here = np.full(len(cand), r, dtype=np.int64)
            # <= cutoff keeps ties, which may be lexicographically smaller
            got = self._best_of(mirror.pts, mirror.gids, here, cand, best[0])
            best = _lex_min(best, got)
        self.answer = best

    def _repair_erase(self, mirror: Mirror, rows: np.ndarray) -> None:
        if mirror.n_live() < 2:
            self.answer = None
            self.note_repair()
            return
        a = self.answer
        if a is not None and a[1] in mirror.row_of and a[2] in mirror.row_of:
            # both endpoints survive: erasing only removes pairs, so the
            # previous lexicographic minimum still wins
            self.note_repair()
            return
        self.note_recompute()
        self._rebuild(mirror)
