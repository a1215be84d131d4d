"""Incrementally maintained 2D convex hull view.

A point inside the convex hull of the others can never become extreme
again — the hull only grows outward under insertion — so the candidate
set for the new hull is exactly ``old hull vertices ∪ inserted batch``,
and each insert repair runs the normalizing monotone chain over that
hull-sized input instead of the whole live set.  Deletion of a hull
coordinate triggers a counted *filtered rebuild*: the Akl–Toussaint
filter runs over the surviving mirror's rows, and only its survivors
are lex-sorted and deduplicated for the chain; deleting interior
coordinates is free —
Carathéodory: every non-vertex lies in the convex hull of the vertex
set alone, so removing non-vertex rows leaves the vertex set intact.

The canonical answer (see :meth:`HullView.compute`) is the *strict*
hull of the distinct live coordinates — collinear boundary points
excluded — as a tuple of global ids, counter-clockwise, starting at the
lexicographically smallest ``(x, y)`` vertex; each coordinate is
represented by the smallest live gid at it.  Both the incremental and
the rebuild path compute it with the same monotone-chain pass over
lex-sorted distinct coordinates, so answers are bitwise-identical
tuples either way.
"""

from __future__ import annotations

import numpy as np

from ..hull.filter import at_filter
from ..parlay.workdepth import charge
from .base import MaterializedView, Mirror

__all__ = ["HullView"]


def _dedup_lex(pts: np.ndarray, gids: np.ndarray):
    """Distinct coords sorted by (x, y), min gid per coord."""
    if len(pts) == 0:
        return pts.reshape(0, 2), gids[:0]
    order = np.lexsort((gids, pts[:, 1], pts[:, 0]))
    p = pts[order]
    g = gids[order]
    first = np.ones(len(p), dtype=bool)
    first[1:] = np.any(p[1:] != p[:-1], axis=1)
    return p[first], g[first]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(p: np.ndarray) -> list[int]:
    """Monotone chain over lex-sorted distinct coords.

    Strict turns (``<= 0`` pops) exclude collinear boundary points; the
    result is ccw and starts at index 0, the lex-min coordinate.  Fully
    collinear inputs collapse to the two extreme coords.  The turns run
    on Python floats (``p.tolist()``): the same IEEE operations in the
    same order as on numpy scalars, so the index lists are identical,
    without numpy's per-scalar cost.
    """
    n = len(p)
    if n <= 2:
        return list(range(n))
    charge(n)
    pts = p.tolist()
    lower: list[int] = []
    for i in range(n):
        b = pts[i]
        while len(lower) >= 2 and _cross(pts[lower[-2]], pts[lower[-1]], b) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in range(n - 1, -1, -1):
        b = pts[i]
        while len(upper) >= 2 and _cross(pts[upper[-2]], pts[upper[-1]], b) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


class HullView(MaterializedView):
    """Materialized strict 2D hull over one batch-dynamic index."""

    kind = "hull2d"

    def __init__(self, name: str = "hull2d"):
        super().__init__(name)
        self._hull_pts = np.empty((0, 2))
        self._hull_gids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # canonical from-scratch reference
    # ------------------------------------------------------------------
    @classmethod
    def compute(cls, pts: np.ndarray, gids: np.ndarray) -> tuple:
        """Canonical hull gid tuple for a live set."""
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        if pts.size and pts.shape[1] != 2:
            raise ValueError("hull view requires 2-dimensional points")
        p, g = _dedup_lex(pts.reshape(-1, 2), np.asarray(gids, dtype=np.int64))
        return tuple(int(g[i]) for i in _chain(p))

    # ------------------------------------------------------------------
    # state (re)build
    # ------------------------------------------------------------------
    def _set_answer(self, p: np.ndarray, g: np.ndarray) -> None:
        idx = _chain(p)
        self._hull_pts = p[idx]
        self._hull_gids = g[idx]
        self.answer = tuple(int(x) for x in self._hull_gids)

    def _rebuild(self, mirror: Mirror) -> None:
        pts, gids = mirror.live()
        if pts.size and pts.shape[1] != 2:
            raise ValueError("hull view requires 2-dimensional points")
        pts = pts.reshape(-1, 2)
        if len(pts) >= 3:
            # Akl–Toussaint filter-first, on the live rows: certainly-
            # interior points can never be strict-hull vertices, and the
            # filter decides by coordinate (every row at a coordinate
            # gets one verdict), so the sort and dedup below see a
            # hull-sized input and still keep each survivor's min gid
            keep = at_filter(pts)
            if not keep.all():
                pts, gids = pts[keep], gids[keep]
        self._set_answer(*_dedup_lex(pts, gids))

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _repair_insert(self, mirror: Mirror, rows: np.ndarray) -> None:
        self.note_repair()
        cand_pts = np.vstack([self._hull_pts, mirror.pts[rows]])
        cand_gids = np.concatenate([self._hull_gids, mirror.gids[rows]])
        # the chain over the lex-sorted candidates is their strict hull
        self._set_answer(*_dedup_lex(cand_pts, cand_gids))

    def _repair_erase(self, mirror: Mirror, rows: np.ndarray) -> None:
        if len(self._hull_pts):
            killed = mirror.pts[rows]
            charge(len(killed) * max(len(self._hull_pts), 1))
            hit = (killed[:, None, :] == self._hull_pts[None, :, :]).all(
                axis=2
            )
            if hit.any():
                # a hull coordinate died (erase kills every row at the
                # coord, so it is gone entirely): filtered rebuild
                self.note_recompute()
                self._rebuild(mirror)
                return
        # only interior coords died; reps survive because every row at a
        # killed coordinate was killed, and no hull coordinate was
        self.note_repair()
