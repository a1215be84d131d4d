"""Construction regression gate: filter-first / array-at-a-time builds.

Build gate: constructs the headline kd-tree workloads (100k uniform
points in 2D and 7D) and a BDL-tree of the same size with the runtime
builder (level-at-a-time, ``repro.kdtree.build``) and with the
reference per-node recursion kept in ``tests/_build_reference.py``.
The runtime build must produce **bitwise-identical** node arrays and
**identical** work/depth charges — that contract is asserted
unconditionally, at every scale — and at full scale
(``REPRO_BENCH_SCALE >= 1``) must be at least 3x faster than the
reference, which is the point of having it.

Hull gate: runs 2D quickhull on 200k uniform (interior-heavy) points
with and without the Akl–Toussaint prefilter.  The filtered hull must
be a **bitwise-identical index sequence** unconditionally; unlike the
batched build the filter genuinely removes work (that is its job), so
instead of charge equality the gate requires the charged work to go
*down* and the wall-clock to improve by at least 2x at full scale.

Hilbert gate: codes 2D points with ``hilbert_codes`` and with the
per-bit reference loop kept in ``tests/_hilbert_reference.py``, at the
size of one routed insert batch (8 points) and of a sharded build
(20,000 points).  The codes must be **bitwise-identical**
unconditionally, and at full scale ``hilbert_codes`` must be at least
2x faster at both sizes.

Results land in ``BENCH_build.json`` at the repo root.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.bdl import BDLTree
from repro.bench import bench_scale
from repro.hull import quickhull2d_seq
from repro.kdtree import KDTree
from repro.parlay import tracker
from repro.spatialsort import hilbert_codes

from conftest import data, run_once

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests._build_reference import assert_same_tree, recursive_builds  # noqa: E402
from tests._hilbert_reference import reference_hilbert_codes  # noqa: E402

BUILD_N = bench_scale(100_000)
HULL_N = bench_scale(200_000)
HILBERT_NS = (8, bench_scale(20_000))
FULL_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0")) >= 1.0
MIN_BUILD_RATIO = 3.0
MIN_HULL_RATIO = 2.0
MIN_HILBERT_RATIO = 2.0
REPEATS = 3

_records: dict[str, dict] = {}


def _timed(fn):
    """Best-of-REPEATS wall clock plus the charges of the best run."""
    out, best, cost = None, float("inf"), None
    for _ in range(REPEATS):
        tracker.reset()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        c = tracker.reset()
        if dt < best:
            best, cost = dt, c
    return out, best, cost


def _build_gate(benchmark, ds_name: str):
    pts = data(f"{ds_name}-{BUILD_N}")
    with recursive_builds():
        tr, t_rec, c_rec = _timed(lambda: KDTree(pts))
    tb, t_bat, c_bat = _timed(lambda: KDTree(pts))

    # exactness and charge identity are unconditional: the batched
    # build is a wall-clock optimization only
    assert_same_tree(tr, tb, ds_name)
    assert c_rec.work == c_bat.work, (
        f"{ds_name}: work diverged {c_rec.work} != {c_bat.work}"
    )
    assert np.isclose(c_rec.depth, c_bat.depth, rtol=1e-9), (
        f"{ds_name}: depth diverged {c_rec.depth} != {c_bat.depth}"
    )

    ratio = t_rec / t_bat if t_bat > 0 else float("inf")
    _records[f"kdtree_{ds_name}"] = {
        "n": BUILD_N, "dims": pts.shape[1],
        "recursive_s": t_rec, "batched_s": t_bat, "speedup": ratio,
        "work": c_bat.work, "depth": c_bat.depth,
    }
    print(f"\nkd build {ds_name} n={BUILD_N}: recursive {t_rec:.3f}s, "
          f"batched {t_bat:.3f}s -> {ratio:.2f}x")
    if FULL_SCALE:
        assert ratio >= MIN_BUILD_RATIO, (
            f"batched build only {ratio:.2f}x faster on {ds_name} "
            f"(gate requires >= {MIN_BUILD_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def test_kdtree_build_2d_ratio(benchmark):
    _build_gate(benchmark, "2D-U")


def test_kdtree_build_7d_ratio(benchmark):
    _build_gate(benchmark, "7D-U")


def test_bdl_build_ratio(benchmark):
    """The log-structure's unit-conversion rebuilds ride the batched build."""
    pts = data(f"2D-U-{BUILD_N}")

    def build():
        b = BDLTree(pts.shape[1])
        b.insert(pts)
        return b

    with recursive_builds():
        br, t_rec, c_rec = _timed(build)
    bb, t_bat, c_bat = _timed(build)

    assert br.bitmask == bb.bitmask
    for ta, tbt in zip(br.trees, bb.trees):
        assert (ta is None) == (tbt is None)
        if ta is not None:
            assert_same_tree(ta, tbt, "bdl")
    assert c_rec.work == c_bat.work
    assert np.isclose(c_rec.depth, c_bat.depth, rtol=1e-9)

    ratio = t_rec / t_bat if t_bat > 0 else float("inf")
    _records["bdl_2D-U"] = {
        "n": BUILD_N, "dims": pts.shape[1],
        "recursive_s": t_rec, "batched_s": t_bat, "speedup": ratio,
        "work": c_bat.work, "depth": c_bat.depth,
    }
    print(f"\nbdl build n={BUILD_N}: recursive {t_rec:.3f}s, "
          f"batched {t_bat:.3f}s -> {ratio:.2f}x")
    if FULL_SCALE:
        assert ratio >= MIN_BUILD_RATIO, (
            f"batched BDL build only {ratio:.2f}x faster "
            f"(gate requires >= {MIN_BUILD_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def test_hull_filter_ratio(benchmark):
    """Akl–Toussaint filter-first quickhull on interior-heavy input."""
    pts = data(f"2D-U-{HULL_N}")
    hu, t_unf, c_unf = _timed(lambda: quickhull2d_seq(pts, prefilter=False))
    hf, t_fil, c_fil = _timed(lambda: quickhull2d_seq(pts, prefilter=True))

    # the filter must be invisible in the answer, at every scale
    assert np.array_equal(hu, hf), "filtered hull diverged from unfiltered"

    ratio = t_unf / t_fil if t_fil > 0 else float("inf")
    _records["hull2d_2D-U"] = {
        "n": HULL_N, "hull_vertices": int(len(hf)),
        "unfiltered_s": t_unf, "filtered_s": t_fil, "speedup": ratio,
        "work_unfiltered": c_unf.work, "work_filtered": c_fil.work,
    }
    print(f"\nhull2d n={HULL_N}: unfiltered {t_unf:.3f}s "
          f"(W={c_unf.work:.0f}), filtered {t_fil:.3f}s "
          f"(W={c_fil.work:.0f}) -> {ratio:.2f}x")
    if FULL_SCALE:
        # on uniform input the octagon rejects the vast majority of
        # points, so the charged work must drop, not just wall-clock
        assert c_fil.work < c_unf.work, (
            f"filter did not reduce work: {c_fil.work} >= {c_unf.work}"
        )
        assert ratio >= MIN_HULL_RATIO, (
            f"filtered hull only {ratio:.2f}x faster "
            f"(gate requires >= {MIN_HULL_RATIO}x at full scale)"
        )
    run_once(benchmark, lambda: None)


def _per_call(fn, n):
    """Best-of-REPEATS wall clock per call, over loops of ~0.1 s."""
    calls = max(1, 400_000 // max(n, 2_000))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def test_hilbert_codes_ratio(benchmark):
    """Routing-sized Hilbert coding vs the per-bit reference loop."""
    pts = data("2D-U-20000")
    bits = 62 // 2
    bounds = (pts.min(axis=0), pts.max(axis=0))
    for n in HILBERT_NS:
        sub = pts[:n]
        got = hilbert_codes(sub, bits=bits, bounds=bounds)
        want = reference_hilbert_codes(sub, bits, bounds)
        # the transform is a wall-clock optimization only
        assert np.array_equal(got, want), f"n={n}: codes diverged"

        t_ref = _per_call(lambda: reference_hilbert_codes(sub, bits, bounds), n)
        t_new = _per_call(lambda: hilbert_codes(sub, bits=bits, bounds=bounds), n)
        ratio = t_ref / t_new if t_new > 0 else float("inf")
        _records[f"hilbert_codes_2D_n{n}"] = {
            "kind": "wall", "n": n, "dims": 2, "bits": bits,
            "reference_s": t_ref, "hilbert_codes_s": t_new, "speedup": ratio,
        }
        print(f"\nhilbert_codes 2D n={n}: reference {t_ref * 1e3:.3f} ms, "
              f"hilbert_codes {t_new * 1e3:.3f} ms -> {ratio:.2f}x")
        if FULL_SCALE:
            assert ratio >= MIN_HILBERT_RATIO, (
                f"hilbert_codes only {ratio:.2f}x faster at n={n} "
                f"(gate requires >= {MIN_HILBERT_RATIO}x at full scale)"
            )
    run_once(benchmark, lambda: None)


def teardown_module(module):
    if not _records:
        return
    root = Path(__file__).resolve().parent.parent
    out = root / "BENCH_build.json"
    payload = {
        "benchmark": "construction: runtime batched build vs the reference "
                     "recursion, "
                     "Akl-Toussaint filter-first hull, Hilbert coding vs "
                     "the per-bit reference",
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        "gates": {
            "min_build_speedup": MIN_BUILD_RATIO,
            "min_hull_speedup": MIN_HULL_RATIO,
            "min_hilbert_speedup": MIN_HILBERT_RATIO,
            "identical_outputs": "unconditional",
            "identical_build_charges": "unconditional",
        },
        "runs": _records,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out}")
