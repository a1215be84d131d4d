"""Worker-process side of cluster scatter-gather.

:func:`run_slab` is the single declarative entry point the ``processes``
backend dispatches to (``"repro.cluster.procwork:run_slab"``): one
planned shard's slab of a knn / box / ball batch.  The payload carries
the shard's shared-memory snapshot spec plus the slab arguments; this
module keeps a per-process attachment cache keyed by shard slot, so a
worker pinned to a shard attaches its snapshot once and re-attaches
only when the segment name changes (i.e. the shard's version bumped or
a rebalance replaced it).

Everything here also runs correctly in the parent process — the
scheduler's inline fallback resolves the same function — because
attaching a snapshot is just opening the segment by name.
"""

from __future__ import annotations

from ..obs.span import span
from .snapshot import attach_snapshot

__all__ = ["close_attachments", "run_slab"]


class _Attachment:
    __slots__ = ("name", "shm", "tree")


#: shard slot -> live attachment (one per slot; stale ones evicted).
_cache: dict[int, _Attachment] = {}


def _release(ent: _Attachment) -> None:
    # the tree's arrays view the segment; drop them before closing, and
    # tolerate a still-exported buffer (the mapping dies with the process)
    ent.tree = None
    try:
        ent.shm.close()
    except BufferError:
        pass


def close_attachments() -> None:
    """Drop every cached attachment (worker shutdown path)."""
    while _cache:
        _, ent = _cache.popitem()
        _release(ent)


def _attached_tree(slot: int, spec: dict):
    ent = _cache.get(slot)
    if ent is not None and ent.name == spec["shm"]:
        return ent.tree
    if ent is not None:
        del _cache[slot]
        _release(ent)
    shm, tree = attach_snapshot(spec)
    ent = _Attachment()
    ent.name = spec["shm"]
    ent.shm = shm
    ent.tree = tree
    _cache[slot] = ent
    return tree


def run_slab(payload):
    """Execute one shard slab: ``(spec, slot, kind, label, args)``.

    ``kind`` selects the query; ``args`` are the slab-local arrays the
    parent cut out of the batch (picklable, small — the shard state
    itself travels through shared memory, not the queue):

    * ``"knn"``  — ``(queries, kk, bound_or_None)``
    * ``"box"``  — ``(los, his)``
    * ``"ball"`` — ``(centers, radii)``

    Charges and results are identical to the in-process slab: the
    attached tree runs the same engines over the same bytes, wrapped in
    the same ``cluster.<label>.shard`` span the inline path emits.
    """
    spec, slot, kind, label, args = payload
    tree = _attached_tree(int(slot), spec)
    with span(f"cluster.{label}.shard", cat="cluster",
              shard=int(slot), batch=len(args[0])):
        if kind == "knn":
            qs, kk, bound = args
            return tree.knn(qs, kk, exclude_self=False, bound=bound)
        if kind == "box":
            los, his = args
            return tree.range_query_box_batch(los, his)
        if kind == "ball":
            cs, rr = args
            return tree.range_query_ball_batch(cs, rr)
        raise ValueError(f"unknown slab kind {kind!r}")
