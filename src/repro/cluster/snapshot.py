"""Shared-memory snapshots of per-shard query state.

The bridge between the sharded index and the ``processes`` scheduler
backend.  A shard's query state — its :class:`~repro.bdl.bdltree.BDLTree`
buffer arrays plus the flat vEB arrays of every live static tree — is
packed **once per tree version** into one
:class:`multiprocessing.shared_memory.SharedMemory` segment
(:func:`repro.kdtree.flat.pack_tree` does the per-tree layout).  Worker
processes attach by name and reconstruct a read-only, fully queryable
``BDLTree`` over zero-copy views (:func:`attach_snapshot`): no Python
node objects ever cross the process boundary, and a shard's snapshot is
re-packed only when its mutation ``version`` bumps.

Lifecycle
---------
* The parent's :class:`SnapshotManager` caches one live segment per
  shard slot, keyed by (shard identity, tree version).  A version bump
  or a rebalance (new ``Shard`` object in the slot) unlinks the old
  segment and packs a fresh one — on Linux, unlink-while-mapped is
  safe, so workers holding the old attachment finish their in-flight
  slabs untouched and re-attach on the next dispatch.
* Workers started by ``multiprocessing`` share the parent's
  ``resource_tracker`` under every start method (fork, spawn,
  forkserver), so a worker's attach registers the segment with the
  parent's own tracker.  Registration is idempotent and the parent's
  unlink unregisters it once; a worker must never unregister it
  itself, or the parent's unlink finds no entry and the tracker
  prints a ``KeyError``.
* Every manager registers in a process-wide weak set; scheduler
  shutdown (:func:`repro.parlay.scheduler.register_process_shutdown_hook`)
  and interpreter exit both trigger :func:`release_all_snapshots`, so
  no segment outlives the run — ``/dev/shm`` comes back empty.
"""

from __future__ import annotations

import atexit
import weakref
from multiprocessing import shared_memory

import numpy as np

from ..bdl import BDLTree
from ..kdtree.flat import _aligned, attach_tree, pack_tree, tree_nbytes
from ..parlay.scheduler import register_process_shutdown_hook

__all__ = [
    "SnapshotManager",
    "attach_snapshot",
    "pack_shard_tree",
    "release_all_snapshots",
]

_BUF_FIELDS = ("buf_pts", "buf_gids")


# ----------------------------------------------------------------------
# pack / attach
# ----------------------------------------------------------------------
def pack_shard_tree(tree: BDLTree) -> tuple[shared_memory.SharedMemory, dict]:
    """Pack a BDL-tree's query state into a fresh shared-memory segment.

    Returns ``(shm, spec)``: the parent-owned segment and a picklable
    spec sufficient for :func:`attach_snapshot` in any process.  Empty
    static-tree slots pack as ``None`` (queries skip them either way),
    so the segment holds exactly the bytes queries can touch.
    """
    live = [
        t if (t is not None and t.size() > 0) else None for t in tree.trees
    ]

    # pass 1: layout
    size = 0
    buf_rows: dict[str, tuple[str, tuple, int]] = {}
    for name in _BUF_FIELDS:
        arr = getattr(tree, name)
        size = _aligned(size)
        buf_rows[name] = (arr.dtype.str, tuple(arr.shape), size)
        size += arr.nbytes
    for t in live:
        if t is not None:
            size = tree_nbytes(t, size)

    shm = shared_memory.SharedMemory(create=True, size=max(int(size), 1))
    buf = shm.buf

    # pass 2: copy
    offset = 0
    for name in _BUF_FIELDS:
        dtype, shape, off = buf_rows[name]
        src = getattr(tree, name)
        np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)[...] = src
        offset = off + src.nbytes
    tree_specs: list[dict | None] = []
    for t in live:
        if t is None:
            tree_specs.append(None)
        else:
            tspec, offset = pack_tree(t, buf, offset)
            tree_specs.append(tspec)

    spec = {
        "shm": shm.name,
        "bdl": {
            "dim": tree.dim,
            "buffer_size": tree.X,
            "split": tree.split,
            "leaf_size": tree.leaf_size,
            "next_gid": tree.next_gid,
            "version": tree.version,
        },
        "buf": buf_rows,
        "trees": tree_specs,
    }
    return shm, spec


def attach_snapshot(spec: dict) -> tuple[shared_memory.SharedMemory, BDLTree]:
    """Attach a packed snapshot; returns ``(shm, read-only BDLTree)``.

    The caller owns the ``shm`` handle: close it (after dropping the
    tree) when done.  The segment stays registered with the resource
    tracker, which pool workers share with the parent that owns it.
    """
    shm = shared_memory.SharedMemory(name=spec["shm"])

    def view(row):
        dtype, shape, off = row
        a = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        a.flags.writeable = False
        return a

    b = spec["bdl"]
    tree = BDLTree._from_parts(
        dim=b["dim"],
        buffer_size=b["buffer_size"],
        split=b["split"],
        leaf_size=b["leaf_size"],
        next_gid=b["next_gid"],
        version=b["version"],
        buf_pts=view(spec["buf"]["buf_pts"]),
        buf_gids=view(spec["buf"]["buf_gids"]),
        trees=[
            None if t is None else attach_tree(t, shm.buf)
            for t in spec["trees"]
        ],
    )
    return shm, tree


# ----------------------------------------------------------------------
# parent-side cache
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("shard", "version", "shm", "spec")


def _unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SnapshotManager:
    """One live snapshot per shard slot, re-packed on version bump.

    ``spec_for(slot, shard)`` is the only hot entry point: it returns
    the cached picklable spec when the slot still holds the same shard
    at the same tree version, and otherwise unlinks the stale segment
    and packs a fresh one.  Identity is checked on the ``Shard`` object
    itself so rebalances (which replace shard objects in-place) force a
    re-snapshot even though slot numbers shift.
    """

    def __init__(self):
        self._entries: dict[int, _Entry] = {}
        _managers.add(self)

    def spec_for(self, slot: int, shard) -> dict:
        tree = shard.tree
        ent = self._entries.get(slot)
        if (
            ent is not None
            and ent.shard is shard
            and ent.version == tree.version
        ):
            return ent.spec
        if ent is not None:
            del self._entries[slot]
            _unlink(ent.shm)
        shm, spec = pack_shard_tree(tree)
        ent = _Entry()
        ent.shard = shard
        ent.version = tree.version
        ent.shm = shm
        ent.spec = spec
        self._entries[slot] = ent
        return spec

    def release_all(self) -> None:
        """Unlink every owned segment.  Safe to call repeatedly."""
        while self._entries:
            _, ent = self._entries.popitem()
            _unlink(ent.shm)

    def __len__(self) -> int:
        return len(self._entries)


#: Every live manager; release runs at scheduler shutdown and at exit.
_managers: "weakref.WeakSet[SnapshotManager]" = weakref.WeakSet()


def release_all_snapshots() -> None:
    """Unlink every segment owned by any live :class:`SnapshotManager`."""
    for m in list(_managers):
        m.release_all()


register_process_shutdown_hook(release_all_snapshots)
atexit.register(release_all_snapshots)
