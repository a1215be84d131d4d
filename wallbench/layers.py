"""Per-layer busy time, recorded from the benchmark's side of each call.

:class:`LayerClock` wraps the entry points of each serving layer with a
timer. Wrapped calls nest (the front end calls the service, which calls
the router, which calls the per-shard trees), so each frame's *self*
time — its duration minus the time of the wrapped calls it made — is
charged to its layer, and the layers' busy times add up to the time
spent inside the outermost wrapped calls.

Only used in traced runs: the end-to-end metrics come from untraced
runs, so the timers' own cost never reaches them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class LayerClock:
    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Time ``owner.attr`` as ``layer``; absent entry points are skipped."""
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            return
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with clock._lock:
                    clock.busy[layer] += dt - child
                    clock.calls[layer] += 1

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, fn))

    def _stack(self) -> list[float]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def install(clock: LayerClock) -> None:
    """Wrap the entry points of the five layers the request path crosses,
    and the two construction kernels under them."""
    from repro.bdl.bdltree import BDLTree
    from repro.cluster.index import ShardedIndex
    from repro.frontend.frontend import Frontend
    from repro.kdtree import batch
    from repro.kdtree import tree as kdtree_module
    from repro.kdtree.tree import KDTree
    from repro.serve.service import GeometryService
    from repro.views import hull2d as hull_view_module
    from repro.views.manager import ViewManager

    # the front end's work off the event loop: one tenant quantum
    clock.wrap(Frontend, "_execute_batch", "frontend")
    # coalescing, cache probe and fill, grouping into engine calls
    for attr in ("submit", "flush"):
        clock.wrap(GeometryService, attr, "service")
    # view repair after the index applied a mutation
    for attr in ("insert", "erase", "get", "resync"):
        clock.wrap(ViewManager, attr, "views")
    # shard planning, scatter and the canonical merge
    for attr in ("knn", "range_query_box_batch", "range_query_ball_batch",
                 "insert", "erase"):
        clock.wrap(ShardedIndex, attr, "router")
    # the batched engine inside each shard
    for attr in ("knn", "range_query_box_batch", "range_query_ball_batch",
                 "insert", "erase"):
        clock.wrap(BDLTree, attr, "kernel")
    # the batched engine on a static kd-tree
    clock.wrap(KDTree, "knn", "kernel")
    for attr in ("batched_range_query_batch", "batched_range_query_ball_batch"):
        clock.wrap(batch, attr, "kernel")
    # the array-at-a-time kd-tree build engine, as KDTree calls it (every
    # BDL tree of every shard is built by it)
    clock.wrap(kdtree_module, "build_batched", "build")
    # the Akl-Toussaint prefilter in front of hull view rebuilds
    clock.wrap(hull_view_module, "at_filter", "hull_filter")
