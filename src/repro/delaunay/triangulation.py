"""2D Delaunay triangulation — incremental Bowyer–Watson.

Points are inserted in Morton order so that the walk-based point
location from the previously touched triangle is O(1) amortized (the
standard spatial-sort acceleration; ParGeo's spatial-sorting module
plays the same role).  Robustness comes from the filtered-exact
``orient2d`` / ``incircle`` predicates of :mod:`repro.core.predicates`.

The triangulation is bootstrapped from a large bounding triangle whose
vertices are removed at the end.

Duplicate points are triangulated once: of each set of equal
coordinates only the lowest id is inserted, and the others are reported
in ``duplicates`` -- the exact-duplicate part of what
``scipy.spatial.Delaunay.coplanar`` reports.
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..core.predicates import incircle, orient2d
from ..parlay.workdepth import charge, parallel_merge, tracker
from ..spatialsort.morton import morton_argsort

__all__ = ["DelaunayTriangulation", "delaunay"]


class DelaunayTriangulation:
    """Triangle-soup Delaunay structure with neighbor links.

    ``triangles`` rows are ccw vertex-id triples; ``neighbors[t][e]`` is
    the triangle across edge e = (v[e], v[(e+1)%3]) of t, or -1.
    Vertex ids ``n..n+2`` are the bounding super-triangle (excluded from
    results).  ``duplicates`` rows are ``(dropped id, kept id)``: a
    point whose coordinates equal those of the lower id it names, left
    out of the triangulation.
    """

    def __init__(self, points):
        pts = as_array(points)
        if pts.shape[1] != 2:
            raise ValueError("requires 2-dimensional points")
        self.n = len(pts)
        if self.n < 3:
            raise ValueError("need at least 3 points")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        c = 0.5 * (lo + hi)
        # the super-triangle must sit far enough out that no finite
        # triangle's circumcircle can reach it (near-collinear hull
        # points produce huge circumcircles); 1e9x the span approximates
        # the symbolic point-at-infinity, and the exact predicate
        # fallback keeps the arithmetic sound at this scale
        r = max(float(np.max(hi - lo)), 1.0) * 1e9
        super_pts = np.array(
            [
                [c[0] - 2.0 * r, c[1] - r],
                [c[0] + 2.0 * r, c[1] - r],
                [c[0], c[1] + 2.0 * r],
            ]
        )
        self.pts = np.vstack([pts, super_pts])
        self.duplicates = _duplicates(pts)
        self.tri_v: list[list[int]] = [[self.n, self.n + 1, self.n + 2]]
        self.tri_n: list[list[int]] = [[-1, -1, -1]]
        self.alive: list[bool] = [True]
        self._last = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Insert all points; cost composes in prefix-doubling rounds.

        The parallel incremental Delaunay algorithm (which ParGeo's
        Delaunay generator uses) processes exponentially growing rounds
        of independent insertions.  We execute sequentially but account
        round r's insertions as a parallel batch — work sums, depth is
        the round's maximum (see DESIGN.md §1).
        """
        order = morton_argsort(self.pts[: self.n])
        if len(self.duplicates):
            kept = np.ones(self.n, dtype=bool)
            kept[self.duplicates[:, 0]] = False
            order = order[kept[order]]
        i = 0
        round_size = 16
        while i < len(order):
            batch = order[i : i + round_size]
            costs = []
            for pid in batch:
                with tracker.frame() as c:
                    self.insert_point(int(pid))
                costs.append(c)
            parallel_merge(costs)
            i += len(batch)
            round_size *= 2

    # -- point location -------------------------------------------------------
    def _locate(self, p: np.ndarray) -> int:
        """Visibility walk from the last touched triangle."""
        t = self._last
        if not self.alive[t]:
            t = next(i for i in range(len(self.tri_v)) if self.alive[i])
        for _ in range(4 * len(self.tri_v) + 16):
            charge(1, 1)
            vs = self.tri_v[t]
            moved = False
            for e in range(3):
                a, b = vs[e], vs[(e + 1) % 3]
                if orient2d(self.pts[a], self.pts[b], p) < 0:
                    nxt = self.tri_n[t][e]
                    if nxt >= 0:
                        t = nxt
                        moved = True
                        break
            if not moved:
                self._last = t
                return t
        raise RuntimeError("point location walk did not terminate")

    # -- insertion --------------------------------------------------------------
    def insert_point(self, pid: int) -> None:
        p = self.pts[pid]
        t0 = self._locate(p)

        # grow the cavity: BFS over triangles whose circumcircle holds p
        cavity = {t0}
        stack = [t0]
        while stack:
            t = stack.pop()
            for nb in self.tri_n[t]:
                if nb >= 0 and nb not in cavity:
                    a, b, c = self.tri_v[nb]
                    charge(1, 1)
                    if incircle(self.pts[a], self.pts[b], self.pts[c], p) > 0:
                        cavity.add(nb)
                        stack.append(nb)

        # boundary edges of the cavity, with the outside triangle
        boundary: list[tuple[int, int, int]] = []
        for t in cavity:
            vs = self.tri_v[t]
            for e in range(3):
                nb = self.tri_n[t][e]
                if nb < 0 or nb not in cavity:
                    boundary.append((vs[e], vs[(e + 1) % 3], nb))

        # retriangulate: fan from p over each boundary edge
        for t in cavity:
            self.alive[t] = False
        new_ids: dict[tuple[int, int], int] = {}
        created = []
        for (a, b, outside) in boundary:
            tid = len(self.tri_v)
            self.tri_v.append([a, b, pid])
            self.tri_n.append([outside, -1, -1])
            self.alive.append(True)
            created.append(tid)
            if outside >= 0:
                # rewire the outside triangle's link to the new one
                ons = self.tri_n[outside]
                ovs = self.tri_v[outside]
                for e in range(3):
                    if {ovs[e], ovs[(e + 1) % 3]} == {a, b}:
                        ons[e] = tid
                        break
            new_ids[(a, b)] = tid
        # wire fan siblings: the cavity boundary is a closed cycle, so
        # each vertex starts exactly one boundary edge and ends exactly
        # one.  Edge 1 of (a, b, p) is (b, p) -> the fan triangle whose
        # boundary edge starts at b; edge 2 is (p, a) -> the one ending
        # at a.
        starts = {a: tid for (a, _b), tid in new_ids.items()}
        ends = {b: tid for (_a, b), tid in new_ids.items()}
        for (a, b), tid in new_ids.items():
            self.tri_n[tid][1] = starts[b]
            self.tri_n[tid][2] = ends[a]
        self._last = created[0] if created else self._last

    # -- output --------------------------------------------------------------
    def triangles(self) -> np.ndarray:
        """(m, 3) ccw triangles over the input points (super excluded)."""
        out = []
        for t in range(len(self.tri_v)):
            if not self.alive[t]:
                continue
            vs = self.tri_v[t]
            if all(v < self.n for v in vs):
                out.append(vs)
        return np.array(out, dtype=np.int64).reshape(-1, 3)

    def edges(self) -> np.ndarray:
        """(m, 2) unique Delaunay edges (super-triangle excluded)."""
        tris = self.triangles()
        if len(tris) == 0:
            return np.empty((0, 2), dtype=np.int64)
        e = np.vstack(
            [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]
        )
        e.sort(axis=1)
        return np.unique(e, axis=0)

    def check_delaunay(self, sample: int = 200, seed: int = 0) -> bool:
        """Empty-circumcircle property on a sample of triangles (tests)."""
        tris = self.triangles()
        rng = np.random.default_rng(seed)
        take = tris if len(tris) <= sample else tris[rng.choice(len(tris), sample, replace=False)]
        for (a, b, c) in take:
            pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
            from ..core.predicates import incircle_batch

            signs = incircle_batch(pa, pb, pc, self.pts[: self.n])
            inside = np.flatnonzero(signs > 0)
            inside = [i for i in inside if i not in (a, b, c)]
            if inside:
                return False
        return True


def _duplicates(pts: np.ndarray) -> np.ndarray:
    """(dropped id, kept id) rows: each point equal (``==`` on every
    coordinate) to a lower-id point, paired with the lowest such id."""
    order = np.lexsort(pts.T[::-1])
    s = pts[order]
    same = np.all(s[1:] == s[:-1], axis=1)
    # a group of equal rows starts wherever a row differs from the one
    # before it; the stable sort puts each group's lowest id first
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    group = np.cumsum(np.concatenate(([True], ~same))) - 1
    kept = order[first][group]
    dropped = order != kept
    return np.stack([order[dropped], kept[dropped]], axis=1).astype(np.int64)


def delaunay(points) -> DelaunayTriangulation:
    """Build the Delaunay triangulation of 2D points."""
    return DelaunayTriangulation(points)
