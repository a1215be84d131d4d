"""Stream gate: incremental view maintenance vs recompute-from-scratch.

Replays one update-heavy synthetic trace (>= 30% insert/erase batches
interleaved with materialized-view reads) two ways and records both
into ``BENCH_stream.json``:

* **incremental** — a :class:`repro.views.ViewManager` over a BDLTree
  repairs the closest-pair, DBSCAN, and 2D-hull views in place after
  every mutation batch; view reads return the maintained answer;
* **recompute** — the same trace against a fresh BDLTree where every
  view read recomputes its answer from scratch over the gathered live
  points (:func:`repro.serve.run_unbatched` with a ``views=`` mapping).

Unconditional assertions (every scale):

* the trace is genuinely update-heavy: >= 30% of ops are mutations;
* **bitwise equality** — every view read's ``(answer, version)`` from
  the incremental side equals the recompute baseline exactly, at every
  version the trace observes;
* the incremental side actually repaired (each view's repair counter
  moved, and repairs dominate recompute fallbacks).

Wall-clock gate (full scale only, like the other perf gates):
incremental maintenance is at least ``MIN_SPEEDUP`` (5x) faster than
the recompute loop over the identical trace.

A second gate times the write path's kd-tree erase descent alone
(``test_erase_descent_ratio``, kind ``wall``): 1-row and 8-row erase
batches on a serving shard's tree (1,248 points), the library's
descent against the all-numpy reference descent kept in
``tests/_erase_reference.py``.  Node arrays, deleted counts and
charges must be identical at every scale; at full scale the library
must be at least ``MIN_ERASE_RATIO`` (2x) faster for each batch size.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.bdl import BDLTree
from repro.bench import bench_scale
from repro.kdtree import KDTree
from repro.kdtree.delete import erase as library_erase
from repro.parlay import tracker
from repro.serve import run_unbatched, synthetic_trace
from repro.views import ClosestPairView, DBSCANView, HullView, ViewManager

from conftest import bench_meta, run_once

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests._erase_reference import reference_erase  # noqa: E402

FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0

STREAM_N = bench_scale(6000)      # seed points in the dynamic index
STREAM_OPS = bench_scale(600)     # trace length (mutations + view reads)
MUTATION_FRAC = 0.4               # drawn rate; realized is asserted >= 0.3
MUTATION_BATCH = 8
N_BLOBS = 30                      # Gaussian blobs: bounded DBSCAN components
EPS, MIN_PTS = 1.0, 6             # = one blob sigma; dense cores inside blobs
MIN_SPEEDUP = 5.0
MIN_MUTATION_FRAC = 0.3           # "update-heavy" per the gate definition

ERASE_TREE_N = 1248               # a shard's tree in a 20K-point, 16-shard index
ERASE_CALLS = bench_scale(600)    # timed erase calls per batch size and side
ERASE_ROWS = (1, 8)
MIN_ERASE_RATIO = 2.0

_stream_records: dict = {}
_erase_records: dict = {}


def _points():
    # clustered data, the DBSCAN workload: uniform points at these
    # densities percolate into one giant eps-component, which makes any
    # core deletion a global re-cluster (the worst case for *every*
    # incremental DBSCAN, not a property of this one)
    rng = np.random.default_rng(11)
    centers = rng.uniform(10.0, 90.0, (N_BLOBS, 2))
    return (centers[rng.integers(N_BLOBS, size=STREAM_N)]
            + rng.normal(0.0, 1.0, (STREAM_N, 2)))


def _index(coords):
    tree = BDLTree(dim=coords.shape[1])
    tree.insert(coords)
    return tree


def _views(mgr):
    mgr.closest_pair()
    mgr.dbscan(eps=EPS, min_pts=MIN_PTS)
    mgr.hull2d()


_COMPUTES = {
    "closest_pair": ClosestPairView.compute,
    "dbscan": lambda pts, gids: DBSCANView.compute(
        pts, gids, eps=EPS, min_pts=MIN_PTS),
    "hull2d": HullView.compute,
}


def _run_incremental(coords, trace):
    mgr = ViewManager(_index(coords))
    _views(mgr)
    out = []
    t0 = time.perf_counter()
    for op in trace:
        if op["op"] == "insert":
            mgr.insert(np.asarray(op["pts"], dtype=np.float64))
            out.append(None)
        elif op["op"] == "erase":
            mgr.erase(np.asarray(op["pts"], dtype=np.float64))
            out.append(None)
        else:
            out.append(mgr.get(op["name"]))
    return time.perf_counter() - t0, out, mgr


def test_stream_incremental_vs_recompute(benchmark):
    coords = _points()
    trace = synthetic_trace(
        coords, STREAM_OPS,
        kinds=("view",),
        mutation_frac=MUTATION_FRAC,
        mutation_batch=MUTATION_BATCH,
        view_names=tuple(_COMPUTES),
        seed=3,
    )
    n_mut = sum(1 for op in trace if op["op"] in ("insert", "erase"))
    n_view = len(trace) - n_mut
    assert n_mut / len(trace) >= MIN_MUTATION_FRAC, (
        f"trace is not update-heavy: {n_mut}/{len(trace)} mutations"
    )
    assert n_view > 0

    t_inc, inc, mgr = _run_incremental(coords, trace)

    t0 = time.perf_counter()
    base = run_unbatched(_index(coords), trace, views=_COMPUTES)
    t_base = time.perf_counter() - t0

    # -- bitwise equality at every observed version, unconditionally
    mismatches = [
        i for i, (a, b) in enumerate(zip(inc, base))
        if trace[i]["op"] == "view" and a != b
    ]
    assert not mismatches, (
        f"{len(mismatches)} view answers diverged from recompute "
        f"(first at op {mismatches[0]}: {trace[mismatches[0]]['name']})"
    )

    # -- the incremental side really maintained, not silently rebuilt
    stats = mgr.stats()
    for name, st in stats.items():
        assert st["repairs"] > 0, f"{name}: no incremental repairs ran"
        assert st["repairs"] > st["recomputes"], (
            f"{name}: recompute fallbacks ({st['recomputes']}) dominate "
            f"repairs ({st['repairs']})"
        )

    speedup = t_base / t_inc if t_inc > 0 else float("inf")
    _stream_records.update({
        "kind": "wall",
        "n_ops": len(trace),
        "n_mutations": n_mut,
        "n_view_reads": n_view,
        "realized_mutation_frac": n_mut / len(trace),
        "incremental_s": t_inc,
        "recompute_s": t_base,
        "speedup": speedup,
        "answers_equal": True,
        "view_stats": stats,
        "speedup_gate_applied": FULL_SCALE,
    })

    if FULL_SCALE:
        assert speedup >= MIN_SPEEDUP, (
            f"incremental maintenance only {speedup:.2f}x faster than "
            f"recompute-from-scratch (gate {MIN_SPEEDUP}x)"
        )
    run_once(benchmark, lambda: None)


def _timed_erase(fn, tree, batch):
    tracker.reset()
    t0 = time.perf_counter()
    out = fn(tree, batch)
    dt = time.perf_counter() - t0
    cost = tracker.total()
    tracker.reset()
    return out, dt, cost


def _erase_pair(m: int, rng) -> dict:
    """Time ``ERASE_CALLS`` m-row erases on twin trees, library vs
    reference, alternating sides call by call; checks every call."""
    pts = rng.uniform(0.0, 100.0, (ERASE_TREE_N, 2))
    t_lib = t_ref = 0.0
    lib = ref = None
    for call in range(ERASE_CALLS):
        if lib is None or lib.size() < ERASE_TREE_N // 4:
            lib, ref = KDTree(pts.copy()), KDTree(pts.copy())
        present = pts[rng.choice(len(pts), size=m)]
        absent = rng.uniform(0.0, 100.0, (m, 2))
        batch = np.where(rng.random((m, 1)) < 0.75, present, absent)
        sides = [(library_erase, lib), (reference_erase, ref)]
        got = {fn: _timed_erase(fn, tree, batch)
               for fn, tree in (sides if call % 2 == 0 else sides[::-1])}
        (n_lib, dt_lib, c_lib), (n_ref, dt_ref, c_ref) = got[library_erase], got[reference_erase]
        t_lib += dt_lib
        t_ref += dt_ref
        assert n_lib == n_ref, (m, call)
        assert c_lib.work == c_ref.work, (m, call)
        assert np.isclose(c_lib.depth, c_ref.depth, rtol=1e-12, atol=0.0), (m, call)
        for arr in ("left", "right", "live", "alive"):
            assert np.array_equal(getattr(lib, arr), getattr(ref, arr)), (m, call, arr)
        assert (lib.root, lib.n_alive, lib.version) == (ref.root, ref.n_alive, ref.version)
    return {
        "kind": "wall",
        "rows_per_erase": m,
        "calls": ERASE_CALLS,
        "library_us_per_erase": t_lib / ERASE_CALLS * 1e6,
        "reference_us_per_erase": t_ref / ERASE_CALLS * 1e6,
        "ratio": t_ref / t_lib if t_lib > 0 else float("inf"),
    }


def test_erase_descent_ratio(benchmark):
    rng = np.random.default_rng(17)
    for m in ERASE_ROWS:
        rec = _erase_pair(m, rng)
        _erase_records[f"rows_{m}"] = rec
        print(f"\nerase {m}-row on {ERASE_TREE_N} points: library "
              f"{rec['library_us_per_erase']:.1f} us, reference "
              f"{rec['reference_us_per_erase']:.1f} us ({rec['ratio']:.2f}x)")
    _erase_records["gate_applied"] = FULL_SCALE
    if FULL_SCALE:
        for m in ERASE_ROWS:
            ratio = _erase_records[f"rows_{m}"]["ratio"]
            assert ratio >= MIN_ERASE_RATIO, (
                f"{m}-row erase descent only {ratio:.2f}x faster than the "
                f"reference (gate {MIN_ERASE_RATIO}x)"
            )
    run_once(benchmark, lambda: None)


def teardown_module(module):
    if not (_stream_records or _erase_records):
        return
    root = Path(__file__).resolve().parent.parent
    out = root / "BENCH_stream.json"
    payload = {
        "benchmark": "materialized views: incremental maintenance vs "
                     "recompute on an update-heavy mixed trace; kd-tree "
                     "erase descent vs the reference descent",
        "meta": bench_meta(),
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_mutation_frac": MIN_MUTATION_FRAC,
            "bitwise_equality": "unconditional",
            "repairs_dominate_fallbacks": "unconditional",
            "erase_descent": {
                "kind": "wall",
                "min_ratio": MIN_ERASE_RATIO,
                "identical_arrays_and_charges": "unconditional",
            },
        },
        "config": {
            "points": STREAM_N,
            "ops": STREAM_OPS,
            "mutation_frac": MUTATION_FRAC,
            "mutation_batch": MUTATION_BATCH,
            "views": list(_COMPUTES),
            "eps": EPS,
            "min_pts": MIN_PTS,
        },
        "results": _stream_records,
        "erase_descent": {
            "tree_points": ERASE_TREE_N,
            **_erase_records,
        },
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
