"""Independent answer checks for the wall-clock benchmark.

Every check recomputes the answer by brute force (numpy) or with
scipy's Qhull over the live point set the request saw, never through
the library under test.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

#: Relative slack for distances the library and numpy may round apart.
RTOL = 1e-9


class LiveSet:
    """The live (coords, gids) of one index, replayed from its mutations."""

    def __init__(self, pts: np.ndarray, gids: np.ndarray):
        self.pts = pts
        self.gids = gids

    def insert(self, pts: np.ndarray, gids: np.ndarray) -> None:
        self.pts = np.vstack([self.pts, pts])
        self.gids = np.concatenate([self.gids, np.asarray(gids, dtype=np.int64)])

    def erase_rows(self, rows: np.ndarray) -> None:
        keep = np.ones(len(self.gids), dtype=bool)
        keep[rows] = False
        self.pts = self.pts[keep]
        self.gids = self.gids[keep]

    def erase_coords(self, pts: np.ndarray) -> None:
        """Erase the live points at exactly these coordinates."""
        hit = np.zeros(len(self.pts), dtype=bool)
        for p in pts:
            hit |= np.all(self.pts == p, axis=1)
        self.erase_rows(np.flatnonzero(hit))

    def coords_of(self, gids: np.ndarray) -> np.ndarray:
        order = np.argsort(self.gids)
        pos = np.searchsorted(self.gids, gids, sorter=order)
        rows = order[np.minimum(pos, len(order) - 1)]
        if not np.array_equal(self.gids[rows], gids):
            raise AssertionError(f"ids not live: {np.setdiff1d(gids, self.gids)[:5]}")
        return self.pts[rows]


def _d2(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = pts - q
    return np.einsum("ij,ij->i", diff, diff)


def check_knn(live: LiveSet, q, k: int, value, approximate: bool) -> None:
    """Exact answers match brute force.  A degraded (``approximate``)
    answer keeps the front end's weaker promise: real points at their
    true distances, each no nearer than the exact neighbour of its rank.
    """
    d2, ids = (np.asarray(v) for v in value)
    true = np.sort(_d2(live.pts, np.asarray(q)))[:k]
    if d2.shape != (k,) or ids.shape != (k,):
        raise AssertionError(f"knn answer shape {d2.shape}/{ids.shape}, want ({k},)")
    if approximate:
        real = ids >= 0
        d2, ids, true = d2[real], ids[real], true[real]
        if np.any(d2 < true * (1 - RTOL)):
            raise AssertionError("degraded knn answer is nearer than the exact one")
    elif not np.allclose(d2, true, rtol=RTOL, atol=0.0):
        raise AssertionError(f"knn distances {d2} != brute force {true}")
    if len(np.unique(ids)) != len(ids):
        raise AssertionError("knn answer repeats an id")
    own = _d2(live.coords_of(ids.astype(np.int64)), np.asarray(q))
    if not np.allclose(own, d2, rtol=RTOL, atol=0.0):
        raise AssertionError("knn ids are not at their reported distances")


def check_box(live: LiveSet, lo, hi, value) -> None:
    inside = np.all((live.pts >= lo) & (live.pts <= hi), axis=1)
    want = np.sort(live.gids[inside])
    got = np.sort(np.asarray(value, dtype=np.int64))
    if not np.array_equal(got, want):
        raise AssertionError(f"box answer has {len(got)} ids, brute force {len(want)}")


def check_ball(live: LiveSet, center, radius: float, value) -> None:
    d2 = _d2(live.pts, np.asarray(center))
    r2 = radius * radius
    must = set(live.gids[d2 < r2 * (1 - RTOL)].tolist())
    may = set(live.gids[d2 <= r2 * (1 + RTOL)].tolist())
    got = set(np.asarray(value, dtype=np.int64).tolist())
    if not (must <= got <= may):
        raise AssertionError(f"ball answer has {len(got)} ids, brute force {len(must)}")


def check_hull(live: LiveSet, answer) -> None:
    want = set(live.gids[ConvexHull(live.pts).vertices].tolist())
    if set(answer) != want or len(answer) != len(want):
        raise AssertionError(f"hull has {len(answer)} vertices, Qhull {len(want)}; "
                             f"not on Qhull's hull: {sorted(set(answer) - want)[:5]}, "
                             f"missing: {sorted(want - set(answer))[:5]}")


def check(live: LiveSet, kind: str, args: tuple, value, approximate: bool) -> None:
    """Raise AssertionError unless ``value`` answers the request on ``live``."""
    if kind == "knn":
        check_knn(live, args[0], args[1], value, approximate)
    elif kind == "box":
        check_box(live, args[0], args[1], value)
    elif kind == "ball":
        check_ball(live, args[0], args[1], value)
    elif kind == "view":
        answer, _version = value
        check_hull(live, answer)
    else:
        raise ValueError(f"no check for request kind {kind!r}")
