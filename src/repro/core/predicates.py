"""Geometric predicates with floating-point filters and exact fallback.

``orient2d`` / ``orient3d`` / ``incircle`` evaluate the standard
determinant with float64 first; when the result's magnitude falls below
a forward error bound (Shewchuk-style constant-times-permanent bound)
the computation is redone with exact arithmetic via Python's arbitrary
precision :class:`fractions.Fraction`.

Vectorized (batch) forms return the *sign* array computed in float64 and
re-evaluate only the filtered-out ambiguous rows exactly, so robustness
costs nothing on generic inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "orient2d",
    "orient3d",
    "incircle",
    "orient2d_batch",
    "orient3d_batch",
    "incircle_batch",
    "EPS2D",
    "EPS3D",
]

_MACH = np.finfo(np.float64).eps
# Forward error bounds on the naive determinant expansions (coarse but
# safe constants; anything within bound * magnitude goes exact).
EPS2D = 8.0 * _MACH
EPS3D = 64.0 * _MACH
EPSINC = 128.0 * _MACH


def _exact_orient2d(a, b, c) -> int:
    """Exact sign via rational arithmetic on the *raw* coordinates —
    float subtraction may already have lost the sign."""
    ax, ay = Fraction(float(a[0])), Fraction(float(a[1]))
    bx, by = Fraction(float(b[0])), Fraction(float(b[1]))
    cx, cy = Fraction(float(c[0])), Fraction(float(c[1]))
    v = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (v > 0) - (v < 0)


def orient2d(a, b, c) -> int:
    """Sign of the area of triangle (a, b, c): +1 ccw, -1 cw, 0 collinear."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    acx, acy = ax - cx, ay - cy
    bcx, bcy = bx - cx, by - cy
    det = acx * bcy - acy * bcx
    errbound = EPS2D * (abs(acx * bcy) + abs(acy * bcx) + abs(det))
    if abs(det) > errbound:
        return 1 if det > 0 else -1
    return _exact_orient2d(a, b, c)


def _det3(m) -> tuple[float, float]:
    """Float determinant of the 3x3 rows ``m`` and its permanent.

    The permanent sums the absolute values of all six products, so it
    bounds the rounding of every product: the sum of the absolute
    cofactor terms does not, since a 2x2 minor that cancels to 0 hides
    the error its entries carry."""
    p0 = m[1][1] * m[2][2]
    p1 = m[1][2] * m[2][1]
    p2 = m[1][0] * m[2][2]
    p3 = m[1][2] * m[2][0]
    p4 = m[1][0] * m[2][1]
    p5 = m[1][1] * m[2][0]
    det = m[0][0] * (p0 - p1) - m[0][1] * (p2 - p3) + m[0][2] * (p4 - p5)
    perm = (abs(m[0][0]) * (abs(p0) + abs(p1))
            + abs(m[0][1]) * (abs(p2) + abs(p3))
            + abs(m[0][2]) * (abs(p4) + abs(p5)))
    return det, perm


def orient3d(a, b, c, d) -> int:
    """Sign of det([b-a; c-a; d-a]): +1 if d is on the positive side of
    plane (a,b,c) oriented by the right-hand rule, -1 if negative,
    0 if coplanar."""
    ax, ay, az = (float(x) for x in a[:3])
    m = [
        [float(b[0]) - ax, float(b[1]) - ay, float(b[2]) - az],
        [float(c[0]) - ax, float(c[1]) - ay, float(c[2]) - az],
        [float(d[0]) - ax, float(d[1]) - ay, float(d[2]) - az],
    ]
    det, perm = _det3(m)
    # the floor keeps the bound from underflowing to 0 when the products
    # do (a subnormal det's sign is then rounding noise), as in
    # orient3d_batch
    if abs(det) > EPS3D * max(perm, 1e-300):
        return 1 if det > 0 else -1
    # exact fallback on the raw coordinates (float subtraction may have
    # already cancelled the signal)
    fa = [Fraction(float(x)) for x in a[:3]]
    fm = [
        [Fraction(float(p[k])) - fa[k] for k in range(3)]
        for p in (b, c, d)
    ]
    v = (
        fm[0][0] * (fm[1][1] * fm[2][2] - fm[1][2] * fm[2][1])
        - fm[0][1] * (fm[1][0] * fm[2][2] - fm[1][2] * fm[2][0])
        + fm[0][2] * (fm[1][0] * fm[2][1] - fm[1][1] * fm[2][0])
    )
    return (v > 0) - (v < 0)


def incircle(a, b, c, d) -> int:
    """+1 if d lies inside the circle through ccw triangle (a, b, c),
    -1 if outside, 0 if cocircular.  Assumes orient2d(a, b, c) > 0."""
    rows = []
    dx, dy = float(d[0]), float(d[1])
    for p in (a, b, c):
        px, py = float(p[0]) - dx, float(p[1]) - dy
        rows.append((px, py, px * px + py * py))
    det, perm = _det3(rows)
    if abs(det) > EPSINC * perm:
        return 1 if det > 0 else -1
    # exact fallback on the raw coordinates
    fdx, fdy = Fraction(float(d[0])), Fraction(float(d[1]))
    frows = []
    for p in (a, b, c):
        px = Fraction(float(p[0])) - fdx
        py = Fraction(float(p[1])) - fdy
        frows.append([px, py, px * px + py * py])
    v = (
        frows[0][0] * (frows[1][1] * frows[2][2] - frows[1][2] * frows[2][1])
        - frows[0][1] * (frows[1][0] * frows[2][2] - frows[1][2] * frows[2][0])
        + frows[0][2] * (frows[1][0] * frows[2][1] - frows[1][1] * frows[2][0])
    )
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Vectorized batch predicates: fast float path + exact re-check of the
# ambiguous rows only.
# ---------------------------------------------------------------------------


def orient2d_batch(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signs of orient2d(a, b, p) for every row p of ``pts``."""
    acx = a[0] - pts[:, 0]
    acy = a[1] - pts[:, 1]
    bcx = b[0] - pts[:, 0]
    bcy = b[1] - pts[:, 1]
    l = acx * bcy
    r = acy * bcx
    det = l - r
    err = EPS2D * (np.abs(l) + np.abs(r))
    sign = np.sign(det).astype(np.int8)
    ambiguous = np.abs(det) <= err
    if np.any(ambiguous):
        for i in np.flatnonzero(ambiguous):
            sign[i] = orient2d(a, b, pts[i])
    return sign


def orient3d_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signs of orient3d(a, b, c, p) for every row p of ``pts``.

    Positive means p on the positive side of plane (a, b, c).
    """
    ab = b - a
    ac = c - a
    normal = np.cross(ab, ac)
    ap = pts - a
    det = ap @ normal
    # error proxy: the permanent, each normal component taken as the
    # sum of its two products' magnitudes (a component that cancels to
    # 0 still carries their rounding)
    pa, pb = np.abs(ab), np.abs(ac)
    nabs = np.array([pa[1] * pb[2] + pa[2] * pb[1],
                     pa[2] * pb[0] + pa[0] * pb[2],
                     pa[0] * pb[1] + pa[1] * pb[0]])
    mag = np.abs(ap) @ nabs
    sign = np.sign(det).astype(np.int8)
    ambiguous = np.abs(det) <= EPS3D * np.maximum(mag, 1e-300)
    if np.any(ambiguous):
        for i in np.flatnonzero(ambiguous):
            # orient3d(a,b,c,p) has same sign convention: det([b-a;c-a;p-a])
            sign[i] = orient3d(a, b, c, pts[i])
    return sign


def incircle_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signs of incircle(a, b, c, p) for every row p of ``pts``."""
    out = np.empty(len(pts), dtype=np.int8)
    rel = np.empty((3, len(pts), 3))
    for k, q in enumerate((a, b, c)):
        px = q[0] - pts[:, 0]
        py = q[1] - pts[:, 1]
        rel[k, :, 0] = px
        rel[k, :, 1] = py
        rel[k, :, 2] = px * px + py * py
    r0, r1, r2 = rel[0], rel[1], rel[2]
    det, perm = _det3((r0.T, r1.T, r2.T))
    out[:] = np.sign(det)
    ambiguous = np.abs(det) <= EPSINC * np.maximum(perm, 1e-300)
    for i in np.flatnonzero(ambiguous):
        out[i] = incircle(a, b, c, pts[i])
    return out
