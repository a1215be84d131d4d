"""One shard of a sharded spatial index: a batch-dynamic tree + bbox.

Each shard owns the points of one Hilbert range, stored in a
:class:`~repro.bdl.bdltree.BDLTree` (batch-dynamic, per the
closest-pair paper's motivation: shards absorb insert/erase batches
without rebuilding) under the *global* id space of the owning
:class:`~repro.cluster.index.ShardedIndex`.

The shard tracks a conservative bounding box of its live points: grown
on insert, left unchanged on erase (a superset box only costs pruning
opportunities, never correctness).  An empty shard's box is the
``(+inf, -inf)`` sentinel, which fails every intersection test and has
infinite mindist, so routers skip it for free.  Inside an index the
box arrays are rows of the index's shard table (see
:meth:`~repro.cluster.index.ShardedIndex._restack`), so every update
here is in place.
"""

from __future__ import annotations

import numpy as np

from ..bdl import BDLTree

__all__ = ["Shard"]


class Shard:
    """A Hilbert-range shard: BDL-tree, bounding box, size."""

    def __init__(self, dim: int, points=None, gids=None, *,
                 buffer_size: int | None = None, leaf_size: int = 16,
                 build_engine: str | None = None):
        self.dim = dim
        if buffer_size is None:
            # Auto-size the flush threshold to the build batch: with
            # X = n // 4 the bulk insert lands in a single static tree
            # of capacity 4X and at most 3 points stay in the
            # brute-force buffer, instead of the n % X (up to X - 1)
            # stragglers a fixed threshold leaves behind.  Later
            # mutation batches then amortize at n/4 as usual.
            n = 0 if points is None else len(points)
            buffer_size = max(32, n // 4)
        self.tree = BDLTree(dim, buffer_size=buffer_size, leaf_size=leaf_size,
                            build_engine=build_engine)
        self.lo = np.full(dim, np.inf)
        self.hi = np.full(dim, -np.inf)
        if points is not None and len(points):
            self.insert(points, gids)

    def size(self) -> int:
        return self.tree.size()

    def __len__(self) -> int:
        return self.tree.size()

    def insert(self, points: np.ndarray, gids: np.ndarray) -> None:
        """Insert a batch under fixed global ids; grows the bbox."""
        if len(points) == 0:
            return
        self.tree.insert(points, gids=gids)
        np.minimum(self.lo, points.min(axis=0), out=self.lo)
        np.maximum(self.hi, points.max(axis=0), out=self.hi)

    def erase(self, points: np.ndarray, out: list | None = None) -> int:
        """Erase a batch by coordinates; the bbox stays conservative.
        ``out`` receives the deleted points' global ids."""
        if len(points) == 0:
            return 0
        return self.tree.erase(points, out)

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """All live (coords, gids) of the shard."""
        return self.tree.gather_points()

    def refit_box(self) -> None:
        """Shrink the bbox to the live points (used after a split)."""
        pts, _ = self.gather()
        if len(pts):
            self.lo[:] = pts.min(axis=0)
            self.hi[:] = pts.max(axis=0)
        else:
            self.lo[:] = np.inf
            self.hi[:] = -np.inf
