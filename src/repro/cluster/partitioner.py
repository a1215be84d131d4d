"""Balanced Hilbert-range partitioning of a point set into shards.

The partitioner assigns every point a Hilbert code (reusing
:mod:`repro.spatialsort.hilbert` with quantization bounds *frozen* at
build time, so a point's code — and therefore its shard — never depends
on which other points happen to be present) and cuts the sorted code
sequence into contiguous ranges of near-equal size.  Shard membership
is purely a function of the code value: shard ``i`` owns the codes in
``(thresholds[i-1], thresholds[i]]``, so routing a batch is one
``searchsorted`` over the threshold array.

Two invariants matter for exact query equivalence with a monolithic
tree:

* **Equal coordinates never straddle a boundary.**  Split positions
  advance past runs of equal codes, and the threshold *is* a code
  value, so duplicate points always land in the same shard (per-shard
  ``erase(coords)`` then deletes exactly what a monolithic erase
  would).
* **Routing is stable under mutation.**  The quantization box is frozen
  at construction; points inserted later — even outside the original
  bounding box — clamp onto its surface and route to the nearest edge
  shard, whose bounding box grows to cover them.

Rebalancing inserts new thresholds (see :meth:`split_value`): a
threshold drawn from a shard's own codes keeps the array sorted and
splits exactly that shard in two.

Coding is the costly step, so each point set is coded once: the build
set's codes stay on the partitioner (:attr:`build_codes`) for the index
to derive owners from, and the code-level methods (:meth:`owners`,
:meth:`split_code`) let a caller that already holds codes reuse them.
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..spatialsort.hilbert import hilbert_codes

__all__ = ["HilbertPartitioner"]


class HilbertPartitioner:
    """Hilbert-range partitioner with frozen quantization bounds.

    Parameters
    ----------
    points:
        (n, d) build set; defines the frozen quantization box and the
        initial balanced split thresholds.
    n_shards:
        Number of ranges to cut the curve into (>= 1).  Degenerate
        inputs (huge duplicate runs) may leave some ranges empty; they
        are retained so shard indices stay dense.
    bits:
        Per-dimension Hilbert resolution (default ``62 // d``).
    """

    def __init__(self, points, n_shards: int, bits: int | None = None):
        pts = as_array(points)
        if len(pts) == 0:
            raise ValueError("partitioner needs a non-empty build set")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        n, d = pts.shape
        self.dim = d
        self.bits = bits if bits is not None else max(1, 62 // d)
        self.lo = pts.min(axis=0).astype(np.float64)
        self.hi = pts.max(axis=0).astype(np.float64)
        #: Hilbert codes of the build set, in input order
        self.build_codes = self.codes(pts)

        sc = np.sort(self.build_codes)
        cuts: list[int] = []
        prev = np.uint64(0)
        for j in range(1, n_shards):
            pos = (j * n) // n_shards
            # advance past the equal-code run so duplicates stay together
            while 0 < pos < n and sc[pos] == sc[pos - 1]:
                pos += 1
            if pos <= 0 or pos >= n:
                # degenerate cut: duplicate the last threshold (empty range)
                cuts.append(int(prev))
                continue
            prev = max(prev, sc[pos - 1])
            cuts.append(int(prev))
        self.thresholds = np.array(cuts, dtype=np.uint64)

    @property
    def n_shards(self) -> int:
        return len(self.thresholds) + 1

    def codes(self, points) -> np.ndarray:
        """Hilbert codes under the frozen bounds/bits (mutation-stable)."""
        return hilbert_codes(points, bits=self.bits, bounds=(self.lo, self.hi))

    def owners(self, codes: np.ndarray) -> np.ndarray:
        """Owning shard index of each code (int64, in [0, n_shards))."""
        # shard i owns (thresholds[i-1], thresholds[i]]: the shard index
        # is the number of thresholds strictly below the code
        return np.searchsorted(self.thresholds, codes, side="left").astype(np.int64)

    def route(self, points) -> np.ndarray:
        """Owning shard index of each point (int64, in [0, n_shards))."""
        return self.owners(self.codes(points))

    def split_value(self, member_points) -> np.uint64 | None:
        """A threshold value splitting one shard's members near-evenly
        (:meth:`split_code` over the members' codes)."""
        return self.split_code(self.codes(member_points))

    def split_code(self, codes: np.ndarray) -> np.uint64 | None:
        """A threshold value splitting one shard's member codes near-evenly.

        Returns the code of the last point that stays on the left, or
        None when the members share a single code (unsplittable).
        """
        sc = np.sort(codes)
        n = len(sc)
        pos = n // 2
        while 0 < pos < n and sc[pos] == sc[pos - 1]:
            pos += 1
        if pos <= 0 or pos >= n:
            return None
        return sc[pos - 1]

    def insert_threshold(self, value: np.uint64, shard: int) -> None:
        """Split ``shard`` at code ``value`` (must come from its members)."""
        value = np.uint64(value)
        if shard < 0 or shard >= self.n_shards:
            raise ValueError(f"no shard {shard}")
        self.thresholds = np.insert(self.thresholds, shard, value)
        if not np.all(self.thresholds[:-1] <= self.thresholds[1:]):
            raise ValueError("threshold insertion broke the split ordering")
