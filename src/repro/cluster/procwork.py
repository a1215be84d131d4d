"""The shard-slab body of cluster scatter-gather, on every backend.

:func:`query_slab` runs one planned shard's slab of a knn / box / ball
batch against a shard tree.  The router calls it inline on the
``sequential`` and ``threads`` backends; on ``processes`` it ships the
same slab description to a worker, where :func:`run_slab`
(``"repro.cluster.procwork:run_slab"``) attaches the shard's
shared-memory snapshot and calls :func:`query_slab` on it.  This module
keeps a per-process attachment cache keyed by shard slot, so a worker
pinned to a shard attaches its snapshot once and re-attaches only when
the segment name changes (i.e. the shard's version bumped or a
rebalance replaced it).

Everything here also runs correctly in the parent process — the
scheduler's inline fallback resolves the same function — because
attaching a snapshot is just opening the segment by name.
"""

from __future__ import annotations

from ..obs.span import span
from .snapshot import attach_snapshot

__all__ = ["close_attachments", "query_slab", "run_slab"]


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


def query_slab(tree, slot: int, kind: str, label: str, args, trace_ids):
    """Run one shard slab on ``tree`` inside a ``cluster.<label>.shard`` span.

    ``kind`` selects the query; ``args`` are the slab-local arrays cut
    out of the batch:

    * ``"knn"``  — ``(queries, kk, bound_or_None)``
    * ``"box"``  — ``(los, his)``, run by ``tree.range_query_box_batch``
    * ``"ball"`` — ``(centers, radii)``, by ``tree.range_query_ball_batch``

    ``trace_ids`` names the serving requests the slab computes for; the
    span carries them, so every backend's lanes name their requests.
    """
    kw = {"trace_ids": trace_ids} if trace_ids else {}
    with span(f"cluster.{label}.shard", cat="cluster",
              shard=slot, batch=len(args[0]), **kw):
        if kind == "knn":
            qs, kk, bound = args
            return tree.knn(qs, kk, exclude_self=False, bound=bound)
        if kind in ("box", "ball"):
            return getattr(tree, f"range_query_{kind}_batch")(*args)
        raise ValueError(f"unknown slab kind {kind!r}")


def run_slab(payload):
    """Worker entry: ``(spec, slot, kind, label, args, trace_ids)``.

    Attaches the shard's snapshot named by ``spec`` and runs
    :func:`query_slab` on it.  The shard state travels through shared
    memory, not the queue; the attached tree runs the same engines over
    the same bytes, so charges and results equal the inline slab's.
    """
    spec, slot, kind, label, args, trace_ids = payload
    return query_slab(_attached_tree(slot, spec), slot, kind, label, args,
                      trace_ids)
