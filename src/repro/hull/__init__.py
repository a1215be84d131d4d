"""``repro.hull`` — convex hull algorithms (paper §3, Appendix A/B).

2D: sequential/parallel quickhull, reservation-based randomized
incremental, reservation-based quickhull, divide-and-conquer.
3D: sequential quickhull, reservation-based randomized incremental and
quickhull, pseudohull culling (Tang et al. variant), divide-and-conquer.
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from .facets3d import FacetHull3D, build_initial_tetrahedron
from .filter import at_extremes, at_filter
from .hull2d import divide_conquer_2d, quickhull2d_parallel, quickhull2d_seq
from .hull3d import (
    divide_conquer_3d,
    hull3d_facets,
    pseudo_hull3d,
    pseudohull_prune,
    quickhull3d_seq,
    randinc_hull3d,
    reservation_quickhull3d,
)
from .incremental2d import HullStats, randinc_hull2d, reservation_quickhull2d
from .measures import (
    hull_area_2d,
    hull_surface_area_3d,
    hull_volume_3d,
    points_in_hull_2d,
    points_in_hull_3d,
    polygon_area,
)

__all__ = [
    "FacetHull3D",
    "HullStats",
    "at_extremes",
    "at_filter",
    "build_initial_tetrahedron",
    "convex_hull",
    "divide_conquer_2d",
    "divide_conquer_3d",
    "hull3d_facets",
    "hull_area_2d",
    "hull_surface_area_3d",
    "hull_volume_3d",
    "points_in_hull_2d",
    "points_in_hull_3d",
    "polygon_area",
    "pseudo_hull3d",
    "pseudohull_prune",
    "quickhull2d_parallel",
    "quickhull2d_seq",
    "quickhull3d_seq",
    "randinc_hull2d",
    "randinc_hull3d",
    "reservation_quickhull2d",
    "reservation_quickhull3d",
]


def convex_hull(points, method: str = "divide_conquer") -> np.ndarray:
    """Convex hull of 2D or 3D points; returns hull vertex indices.

    ``method`` is one of 'divide_conquer' (default — the paper's fastest
    variant), 'quickhull', 'randinc', or 'pseudo' (3D only).
    For 2D the result is in counter-clockwise order.
    """
    pts = as_array(points)
    d = pts.shape[1]
    if d == 2:
        if method == "divide_conquer":
            return divide_conquer_2d(pts)
        if method == "quickhull":
            h, _ = reservation_quickhull2d(pts)
            return h
        if method == "randinc":
            h, _ = randinc_hull2d(pts)
            return h
        raise ValueError(f"unknown 2d method {method!r}")
    if d == 3:
        if method == "divide_conquer":
            return divide_conquer_3d(pts)[0]
        if method == "quickhull":
            return reservation_quickhull3d(pts)[0]
        if method == "randinc":
            return randinc_hull3d(pts)[0]
        if method == "pseudo":
            return pseudo_hull3d(pts)[0]
        raise ValueError(f"unknown 3d method {method!r}")
    raise ValueError("convex_hull supports 2- and 3-dimensional points")
