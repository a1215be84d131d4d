"""Akl–Toussaint interior-point elimination for 2D hulls.

The classic filter-first heuristic: the extreme points in eight
directions (±x, ±y, ±(x+y), ±(x−y)) are hull vertices, and any point
strictly inside the polygon they span is strictly inside the hull —
eliminating it can never change the answer.  On typical inputs the
polygon swallows the vast majority of points, so quickhull only sees a
thin annulus (the GPU-filtering and VQhull studies both find this step
dominates 2D hull cost).

**Exactness.**  Hull algorithms here break ties by index order, so the
filter must never discard a point the unfiltered run could output.  A
point is eliminated only when it is *certainly* strictly inside every
edge: the cross product must exceed a conservative per-point rounding
bound (``_ETA_C`` ulp-scaled), so boundary points — duplicates of hull
vertices, collinear edge points, near-degenerate cases — always
survive.  Surviving points keep their relative order, which keeps every
lexsort/argmax tie-break downstream identical; filtered and unfiltered
hulls are bitwise-equal index sequences.

The filter charges one labelled ``hull2d.filter`` span: two vectorized
O(n) passes (extreme-finding reductions, then the point-in-polygon
rejection test).
"""

from __future__ import annotations

import numpy as np

from ..obs.span import span
from ..parlay.workdepth import charge

__all__ = ["at_extremes", "at_filter"]

#: Safety factor on the eliminate-side rounding bound.  The cross
#: product of doubles incurs at most a few ulps of error; 8 covers the
#: 4 multiplies/subtracts with margin.
_ETA_C = 8.0 * np.finfo(np.float64).eps


def at_extremes(pts: np.ndarray) -> np.ndarray:
    """Indices of the 8-directional extreme points, in ccw order.

    Duplicate consecutive coordinates are dropped; the result may have
    fewer than 3 distinct vertices on degenerate inputs.
    """
    x = pts[:, 0]
    y = pts[:, 1]
    s = x + y
    d = x - y
    # ccw starting at +x: E, NE, N, NW, W, SW, S, SE
    ext = np.array(
        [
            np.argmax(x),
            np.argmax(s),
            np.argmax(y),
            np.argmin(d),
            np.argmin(x),
            np.argmin(s),
            np.argmin(y),
            np.argmax(d),
        ],
        dtype=np.int64,
    )
    # drop consecutive (and wrap-around) coordinate repeats
    keep = np.ones(8, dtype=bool)
    for i in range(8):
        j = (i + 1) % 8
        if keep[j] and j != i and np.array_equal(pts[ext[i]], pts[ext[j]]):
            keep[j] = False
    return ext[keep]


def at_filter(pts: np.ndarray) -> np.ndarray:
    """Boolean keep-mask: False only for certainly-interior points.

    Every hull vertex (and every point on the hull boundary, including
    duplicates and collinear boundary points) maps to True; points
    eliminated are strictly inside the convex hull in exact arithmetic.
    """
    n = len(pts)
    with span("hull2d.filter", batch=n):
        keep = np.ones(n, dtype=bool)
        if n < 3:
            charge(max(n, 1))
            return keep
        charge(n)  # extreme-finding reductions
        ext = at_extremes(pts)
        if len(ext) < 3:
            # degenerate polygon (all collinear / all equal): keep all
            charge(n)
            return keep
        poly = pts[ext]
        charge(n)  # point-in-polygon rejection pass
        inside = np.ones(n, dtype=bool)
        ax, ay = np.abs(pts[:, 0]), np.abs(pts[:, 1])
        for i in range(len(poly)):
            a = poly[i]
            b = poly[(i + 1) % len(poly)]
            ex = b[0] - a[0]
            ey = b[1] - a[1]
            cross = ex * (pts[:, 1] - a[1]) - ey * (pts[:, 0] - a[0])
            # conservative per-point rounding bound: only eliminate when
            # the point is strictly left of the edge beyond any error
            eta = _ETA_C * (
                abs(ex) * (ay + abs(a[1])) + abs(ey) * (ax + abs(a[0]))
            )
            inside &= cross > eta
            if not inside.any():
                break
        keep[inside] = False
        # the polygon vertices themselves are hull points; `inside` is
        # exact-strict so they can never be flagged, but make it explicit
        keep[ext] = True
    return keep
