"""Reference kd-tree construction: the per-node recursion.

``KDTree`` builds every object-median tree level-at-a-time
(``repro.kdtree.build.build_batched``); the per-node recursion
``KDTree._build`` is the builder for spatial-median trees only.  On
object-median input the recursion is the oracle: the batched build
must reproduce its node arrays bitwise and its work/depth charges
exactly.

:func:`rebuild_recursive` is the one way the tests reach the recursion
on such input.  :func:`recursive_builds` installs it in place of the
batched build for every tree constructed in a block (BDL-tree and
sharded rebuilds included), so only the recursion's charges land on
the tracker.  Like any module-global patch it cannot reach
``processes``-backend pool workers.

:func:`per_tree_skeletons` keeps the batched build but hides the
construction's shared skeletons from it, so every tree computes its own
layout (the build gate's baseline for sharing).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.kdtree import build as _build
from repro.kdtree import tree as _tree

#: Node arrays a build writes, with the value ``KDTree.__init__``
#: allocates them with.
_NODE_FILL = {
    "split_dim": -1, "split_val": 0.0, "left": -1, "right": -1,
    "is_leaf": False, "used": False, "start": 0, "end": 0,
    "box_lo": 0.0, "box_hi": 0.0, "live": 0,
}

#: Every field two builds of the same input must agree on.
TREE_FIELDS = (*_NODE_FILL, "perm", "gids")


def rebuild_recursive(tree):
    """Reset ``tree``'s node arrays and rebuild it with ``KDTree._build``."""
    for name, fill in _NODE_FILL.items():
        getattr(tree, name).fill(fill)
    tree.perm[:] = np.arange(tree.n_points, dtype=np.int64)
    if tree.n_points > 0:
        tree._build()
    return tree


@contextmanager
def recursive_builds():
    """Build every object-median tree in the block by the recursion."""
    saved = _tree.build_batched
    _tree.build_batched = rebuild_recursive
    try:
        yield
    finally:
        _tree.build_batched = saved


@contextmanager
def per_tree_skeletons():
    """Build every object-median tree in the block from its own skeleton."""
    saved = _tree.build_batched

    def build(tree):
        shared = getattr(_build._construction, "skeletons", None)
        _build._construction.skeletons = None
        try:
            saved(tree)
        finally:
            _build._construction.skeletons = shared

    _tree.build_batched = build
    try:
        yield
    finally:
        _tree.build_batched = saved


def assert_same_tree(a, b, label: str = "") -> None:
    """Bitwise equality of every node array of two trees."""
    assert a.levels == b.levels, f"{label}: builds disagree on levels"
    for f in TREE_FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), (
            f"{label}: builds disagree on node field {f!r}"
        )
