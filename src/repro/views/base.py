"""Shared machinery of materialized views: mirror + repair protocol.

A :class:`MaterializedView` owns a derived answer over the live point
set of one batch-dynamic index, maintained *incrementally*: the
:class:`~repro.views.manager.ViewManager` calls :meth:`apply_insert` /
:meth:`apply_erase` after each effective batch mutation, handing the
view the rows that changed, and the view either repairs its state in
place (cheap, counted in ``repairs``) or falls back to a from-scratch
recompute (counted in ``recomputes`` — the trigger is always counted,
never silent).

The correctness contract every view obeys — and the hypothesis suite
asserts — is **canonical equality**: after any sequence of batches,
``view.answer`` is bitwise-equal to ``type(view).compute(pts, gids,
...)`` over the live mirror.  ``compute`` is the from-scratch reference
(also what :func:`repro.serve.trace.run_unbatched` uses as the
recompute baseline), so an incrementally maintained view can never
drift from what a cold recompute would return.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MaterializedView", "Mirror", "pairs_d2"]


def pairs_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, one canonical evaluation everywhere.

    Every distance that can reach a view answer — incremental repair,
    recompute fallback, and the from-scratch reference — goes through
    this one expression, so equal point pairs always produce the same
    float64 bit pattern regardless of which path computed them.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return (d * d).sum(axis=1)


class Mirror:
    """The manager's row-oriented copy of an index's live point set.

    Rows are append-only; erase marks ``alive`` False.  Views index
    into the shared arrays by row, so no view keeps its own coordinate
    copies.  ``row_of`` maps global id -> row (live rows only).

    ``pts`` / ``gids`` / ``alive`` are views of the first ``n`` rows of
    buffers with amortized (doubling) capacity: an append writes its
    rows in place instead of copying the whole mirror.
    """

    def __init__(self, pts: np.ndarray, gids: np.ndarray):
        self._pts = np.ascontiguousarray(pts, dtype=np.float64)
        self._gids = np.asarray(gids, dtype=np.int64).copy()
        self._alive = np.ones(len(self._gids), dtype=bool)
        self._view(len(self._gids))
        self.row_of = dict(zip(self.gids.tolist(), range(len(self.gids))))

    def _view(self, n: int) -> None:
        self.pts = self._pts[:n]
        self.gids = self._gids[:n]
        self.alive = self._alive[:n]

    @property
    def dim(self) -> int:
        return self.pts.shape[1]

    def n_live(self) -> int:
        return int(self.alive.sum())

    def live_rows(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords, gids) of the live rows, in row (= insertion) order."""
        rows = self.live_rows()
        return self.pts[rows], self.gids[rows]

    def append(self, pts: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Add a batch; returns the new row indices."""
        gids = np.asarray(gids, dtype=np.int64)
        base = len(self.gids)
        n = base + len(gids)
        if n > len(self._gids):
            cap = max(n, 2 * len(self._gids), 16)
            bp = np.empty((cap, self._pts.shape[1]), dtype=np.float64)
            bp[:base] = self.pts
            bg = np.empty(cap, dtype=np.int64)
            bg[:base] = self.gids
            ba = np.zeros(cap, dtype=bool)
            ba[:base] = self.alive
            self._pts, self._gids, self._alive = bp, bg, ba
        self._pts[base:n] = pts
        self._gids[base:n] = gids
        self._alive[base:n] = True
        self._view(n)
        row_of = self.row_of
        for r, g in enumerate(gids.tolist(), base):
            row_of[g] = r
        return np.arange(base, n, dtype=np.int64)

    def kill_gids(self, gids) -> np.ndarray:
        """Mark the live rows of these global ids dead.

        Returns the killed rows, ascending.  Ids with no live row are
        skipped, so a caller that expected every id to be live compares
        the count.
        """
        row_of = self.row_of
        killed = np.array(
            sorted(row_of.pop(g) for g in gids if g in row_of), dtype=np.int64
        )
        self.alive[killed] = False
        return killed


class MaterializedView:
    """Base class: identity, repair/recompute counters, answer cache.

    Subclasses implement ``_rebuild(mirror)`` (from-scratch state +
    answer), ``_repair_insert(mirror, rows)`` and
    ``_repair_erase(mirror, rows)`` (incremental maintenance; may call
    :meth:`note_recompute` + ``_rebuild`` to fall back), and the
    classmethod ``compute(pts, gids, ...)`` (the canonical reference).
    """

    #: subclass view kind tag ("closest_pair" / "dbscan" / "hull2d")
    kind = "view"

    def __init__(self, name: str):
        self.name = name
        self.answer = None
        self.version = -1       #: index version the answer belongs to
        self.repairs = 0        #: incremental repair count
        self.recomputes = 0     #: from-scratch fallback count

    # -- counters ----------------------------------------------------------
    def note_repair(self) -> None:
        self.repairs += 1

    def note_recompute(self) -> None:
        self.recomputes += 1

    # -- protocol ----------------------------------------------------------
    def rebuild(self, mirror: Mirror, version: int) -> None:
        """From-scratch (re)build; counted by the *caller* when it is a
        fallback (initial builds are free)."""
        self._rebuild(mirror)
        self.version = version

    def apply_insert(self, mirror: Mirror, rows: np.ndarray,
                     version: int) -> None:
        self._repair_insert(mirror, rows)
        self.version = version

    def apply_erase(self, mirror: Mirror, rows: np.ndarray,
                    version: int) -> None:
        self._repair_erase(mirror, rows)
        self.version = version

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "repairs": self.repairs,
            "recomputes": self.recomputes,
        }
