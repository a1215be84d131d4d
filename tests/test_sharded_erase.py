"""The sharded write path against oracles.

* **Erase oracle** -- 8-row erase batches through ``ShardedIndex.erase``
  on shards whose BDL-trees hold several static trees, against a twin
  index whose trees erase through the all-numpy reference descent in
  ``tests/_erase_reference.py``: same node arrays per tree, counts,
  versions and work, depth within rtol 1e-12.
* **Shard table** -- after every insert, erase and split, the index's
  (S, d) box table and size column equal the shards' freshly stacked
  boxes and sizes, and each box equals a model of the box rule: the
  box a shard was built with, grown by every batch routed to it, left
  unchanged by erases, and exactly the members' bounding box after a
  split.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ShardedIndex
from repro.kdtree import KDTree
from repro.parlay import tracker

from ._erase_reference import reference_erase

_NODE_ARRAYS = ("left", "right", "live", "alive")


def _costed(fn, *args):
    tracker.reset()
    out = fn(*args)
    cost = tracker.total()
    tracker.reset()
    return out, cost


def _assert_same_index(a: ShardedIndex, b: ShardedIndex) -> None:
    assert a.version == b.version
    assert a.shard_sizes() == b.shard_sizes()
    for sa, sb in zip(a.shards, b.shards):
        ta, tb = sa.tree, sb.tree
        assert ta.version == tb.version
        assert np.array_equal(ta.buf_pts, tb.buf_pts)
        assert np.array_equal(ta.buf_gids, tb.buf_gids)
        assert len(ta.trees) == len(tb.trees)
        for x, y in zip(ta.trees, tb.trees):
            assert (x is None) == (y is None)
            if x is None:
                continue
            for name in _NODE_ARRAYS:
                assert np.array_equal(getattr(x, name), getattr(y, name)), name
            assert (x.root, x.n_alive, x.version) == (y.root, y.n_alive, y.version)


class TestShardedEraseMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eight_row_batches(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        # a coarse grid: duplicate coordinates and rows on split planes
        pts = rng.integers(0, 40, size=(3000, 2)).astype(np.float64)
        kw = dict(n_shards=6, buffer_size=24)
        lib, twin = ShardedIndex(pts, **kw), ShardedIndex(pts, **kw)
        assert any(
            sum(t is not None for t in s.tree.trees) > 1 for s in lib.shards
        ), "no shard holds several static trees"
        for rnd in range(40):
            if rnd % 5 == 4:
                # inserts flush buffers and rebuild trees on both sides
                batch = rng.integers(0, 40, size=(8, 2)).astype(np.float64)
                lib.insert(batch)
                twin.insert(batch)
                continue
            present = pts[rng.choice(len(pts), size=8)]
            absent = rng.uniform(0, 40, size=(8, 2))
            batch = np.where(rng.random((8, 1)) < 0.75, present, absent)
            got, cost = _costed(lib.erase, batch)
            with monkeypatch.context() as mp:
                mp.setattr(KDTree, "erase", lambda t, q, out=None: reference_erase(t, q))
                want, cref = _costed(twin.erase, batch)
            assert got == want, rnd
            assert cost.work == cref.work, rnd
            assert np.isclose(cost.depth, cref.depth, rtol=1e-12, atol=0.0), rnd
            _assert_same_index(lib, twin)
        assert lib.size() < len(pts)


# ----------------------------------------------------------------------
# the shard table
# ----------------------------------------------------------------------
_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_hot", "erase", "erase_absent"]),
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=14,
)


def _exact_box(shard):
    pts, _ = shard.gather()
    if len(pts) == 0:
        return np.full(shard.dim, np.inf), np.full(shard.dim, -np.inf)
    return pts.min(axis=0), pts.max(axis=0)


def _check_table(idx, model):
    lo, hi = idx._boxes()
    assert lo.shape == hi.shape == (idx.n_shards, idx.dim)
    assert np.array_equal(lo, np.stack([s.lo for s in idx.shards]))
    assert np.array_equal(hi, np.stack([s.hi for s in idx.shards]))
    assert idx._sizes.tolist() == [len(s.gather()[1]) for s in idx.shards]
    assert np.array_equal(idx._occupied(), idx._sizes > 0)
    for i, shard in enumerate(idx.shards):
        want = model.get(id(shard))
        if want is None:  # born in a split: the members' exact box
            want = _exact_box(shard)
        assert np.array_equal(lo[i], want[0]) and np.array_equal(hi[i], want[1])


def _run_table_property(seed, ops):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(300, 2))
    idx = ShardedIndex(pts, 4, buffer_size=16, rebalance_min=64, skew_threshold=1.5)
    # shard object id -> the box the model expects it to have; every
    # shard stays referenced so no id is reused within the run
    model = {id(s): _exact_box(s) for s in idx.shards}
    seen = list(idx.shards)
    live = pts.copy()
    _check_table(idx, model)
    for kind, m, op_seed in ops:
        r = np.random.default_rng(op_seed)
        before = {id(s): s for s in idx.shards}
        if kind.startswith("insert"):
            # hot inserts pile into one corner, so shards split
            span = 10.0 if kind == "insert_hot" else 100.0
            batch = r.uniform(0, span, size=(m, 2))
            owner = idx.part.route(batch)
            idx.insert(batch)
            live = np.vstack([live, batch])
            for s, shard in enumerate(before.values()):
                rows = batch[owner == s]
                if len(rows):
                    blo, bhi = model[id(shard)]
                    model[id(shard)] = (
                        np.minimum(blo, rows.min(axis=0)),
                        np.maximum(bhi, rows.max(axis=0)),
                    )
        else:
            if kind == "erase" and len(live):
                batch = live[r.choice(len(live), size=min(m, len(live)), replace=False)]
            else:
                batch = r.uniform(200, 300, size=(m, 2))
            idx.erase(batch)
            keep = ~(live[:, None, :] == batch[None, :, :]).all(axis=2).any(axis=1)
            live = live[keep]
        seen.extend(idx.shards)
        _check_table(idx, model)
        assert idx.size() == len(live)
        for shard in idx.shards:  # from here on the box rule applies
            model.setdefault(id(shard), _exact_box(shard))
    return idx


class TestShardTable:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**31 - 1), ops=_ops)
    def test_table_matches_shards(self, seed, ops):
        _run_table_property(seed, ops)

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**31 - 1), ops=_ops)
    def test_table_matches_shards_long(self, seed, ops):
        _run_table_property(seed, ops)

    def test_splits_are_exercised(self):
        ops = [("insert_hot", 40, i) for i in range(8)] + [("erase", 40, 9)]
        idx = _run_table_property(0, ops)
        assert idx.n_shards > 4
