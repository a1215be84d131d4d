"""Command-line interface: ``python -m repro <command>``.

Commands mirror ParGeo's executable tools: generate datasets, run an
algorithm over a point file, and report timings.

Examples::

    python -m repro generate 2D-U-100K -o pts.npy
    python -m repro hull pts.npy --method divide_conquer
    python -m repro seb pts.npy --method sampling
    python -m repro knn pts.npy -k 8 -o neighbors.csv
    python -m repro emst pts.npy -o mst.csv
    python -m repro graph pts.npy --kind gabriel -o edges.csv
    python -m repro serve-replay pts.npy --synthetic 2000 --compare
    python -m repro stream-bench pts.npy --mutation-frac 0.35 --views closest_pair,hull2d
    python -m repro profile --trace-out knn.trace.json knn pts.npy -k 8
"""

from __future__ import annotations

import argparse
import re
import sys
import time

import numpy as np


def _use_backend(args):
    """Context manager honoring a subcommand's ``--backend`` flag."""
    from contextlib import nullcontext

    backend = getattr(args, "backend", None)
    if not backend:
        return nullcontext()
    from .parlay.scheduler import use_backend

    return use_backend(backend)


def _load(path: str):
    """Load a point file, exiting 2 with a one-line message on bad input."""
    from .generators.io import load_points

    try:
        return load_points(path)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(2)
    except OSError as e:
        print(f"error: cannot read {path!r}: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(2)


def cmd_generate(args) -> int:
    from .generators import dataset
    from .generators.io import save_points

    pts = dataset(args.name, seed=args.seed)
    save_points(args.output, pts)
    print(f"wrote {pts} to {args.output}")
    return 0


def cmd_hull(args) -> int:
    from .hull import convex_hull

    pts = _load(args.input)
    t0 = time.perf_counter()
    h = convex_hull(pts, method=args.method)
    dt = time.perf_counter() - t0
    print(f"hull: {len(h)} vertices in {dt:.3f}s ({args.method})")
    if args.output:
        np.savetxt(args.output, h, fmt="%d")
    return 0


def cmd_seb(args) -> int:
    from .seb import smallest_enclosing_ball

    pts = _load(args.input)
    t0 = time.perf_counter()
    b = smallest_enclosing_ball(pts, method=args.method)
    dt = time.perf_counter() - t0
    print(f"ball: center={b.center.tolist()} radius={b.radius:.6g} in {dt:.3f}s")
    return 0


def cmd_knn(args) -> int:
    from .kdtree import KDTree

    pts = _load(args.input)
    with _use_backend(args):
        t0 = time.perf_counter()
        if args.shards > 0:
            from .cluster import ShardedIndex

            index = ShardedIndex(pts.coords, args.shards)
            d, i = index.knn(pts.coords, args.k, exclude_self=True)
            dt = time.perf_counter() - t0
            stats = index.pruning_stats()
            print(
                f"k-NN (k={args.k}) over {len(pts)} points in {dt:.3f}s "
                f"({index.n_shards} shards, "
                f"{stats['mean_touched_frac']:.1%} shards touched/query)"
            )
        else:
            tree = KDTree(pts, split=args.split)
            d, i = tree.knn(pts.coords, args.k, exclude_self=True)
            dt = time.perf_counter() - t0
            print(f"k-NN (k={args.k}) over {len(pts)} points in {dt:.3f}s")
    if args.output:
        np.savetxt(args.output, i, fmt="%d", delimiter=",")
    return 0


def cmd_emst(args) -> int:
    from .emst import emst

    pts = _load(args.input)
    t0 = time.perf_counter()
    e, w = emst(pts)
    dt = time.perf_counter() - t0
    print(f"emst: {len(e)} edges, total weight {w.sum():.6g} in {dt:.3f}s")
    if args.output:
        np.savetxt(args.output, np.column_stack([e, w]), delimiter=",")
    return 0


def cmd_graph(args) -> int:
    from .graphs import (
        beta_skeleton,
        delaunay_graph,
        emst_graph,
        gabriel_graph,
        knn_graph,
        wspd_spanner,
    )

    pts = _load(args.input)
    builders = {
        "knn": lambda p: knn_graph(p, args.k),
        "delaunay": delaunay_graph,
        "gabriel": gabriel_graph,
        "beta": lambda p: beta_skeleton(p, args.beta),
        "emst": emst_graph,
        "spanner": lambda p: wspd_spanner(p, s=args.separation),
    }
    t0 = time.perf_counter()
    g = builders[args.kind](pts.coords)
    dt = time.perf_counter() - t0
    print(f"{args.kind} graph: {g.m} edges over {g.n} points in {dt:.3f}s")
    if args.output:
        np.savetxt(args.output, np.column_stack([g.edges, g.weights]), delimiter=",")
    return 0


def cmd_cluster(args) -> int:
    from .clustering import dbscan

    pts = _load(args.input)
    t0 = time.perf_counter()
    labels = dbscan(pts, eps=args.eps, min_pts=args.min_pts)
    dt = time.perf_counter() - t0
    k = len(set(labels.tolist()) - {-1})
    noise = float((labels == -1).mean())
    print(f"dbscan: {k} clusters, {noise:.1%} noise in {dt:.3f}s")
    if args.output:
        np.savetxt(args.output, labels, fmt="%d")
    return 0


def _write_metrics(path: str, service) -> None:
    """Write the service's post-run metrics snapshot as JSON."""
    import json

    snap = service.snapshot()
    snap["registry"] = service.registry.snapshot()
    with open(path, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def cmd_serve_replay(args) -> int:
    from .bdl import BDLTree
    from .kdtree import KDTree
    from .serve import (
        GeometryService,
        TraceMismatch,
        load_trace,
        replay,
        run_unbatched,
        save_trace,
        synthetic_trace,
        validate_trace,
    )

    pts = _load(args.input)
    coords = pts.coords
    dynamic = args.dynamic or args.shards > 0
    view_names = _parse_views(args, coords)
    if (view_names or args.mutation_frac > 0) and not dynamic:
        print("serve-replay: --views / --mutation-frac need a dynamic index "
              "(--dynamic or --shards)", file=sys.stderr)
        return 2

    if args.trace:
        trace = load_trace(args.trace)
        try:
            validate_trace(trace, len(coords), coords.shape[1],
                           dynamic=dynamic)
        except TraceMismatch as exc:
            print(f"serve-replay: trace does not fit the loaded dataset: {exc}",
                  file=sys.stderr)
            return 2
    else:
        kinds = tuple(args.mix.split(","))
        if view_names and "view" not in kinds:
            kinds = kinds + ("view",)
        trace = synthetic_trace(
            coords,
            args.synthetic,
            kinds=kinds,
            k=args.k,
            repeat_frac=args.repeat_frac,
            mutation_frac=args.mutation_frac,
            mutation_batch=args.mutation_batch,
            view_names=view_names,
            seed=args.seed,
        )
    if args.save_trace:
        save_trace(args.save_trace, trace)
        print(f"wrote {len(trace)} requests to {args.save_trace}")

    def build_index():
        if args.shards > 0:
            from .cluster import ShardedIndex

            index = ShardedIndex(coords, args.shards)
        elif args.dynamic:
            index = BDLTree(dim=coords.shape[1])
            index.insert(coords)
        else:
            return KDTree(coords)
        if view_names:
            _attach_views(index, view_names, args)
        return index

    service = GeometryService(
        max_batch=args.max_batch, cache_capacity=args.cache,
    )
    service.register("data", build_index())
    report = replay(service, "data", trace)
    if args.shards > 0:
        kind = f"ShardedIndex[{args.shards}]"
    elif args.dynamic:
        kind = "BDLTree"
    else:
        kind = "KDTree"
    print(f"serve-replay: {len(coords)} points ({kind}), "
          f"{len(trace)} requests")
    print(report.summary())
    if args.metrics_out:
        _write_metrics(args.metrics_out, service)
        print(f"wrote metrics snapshot to {args.metrics_out}")
    if report.errors:
        print(
            f"serve-replay: {report.errors} request(s) failed; "
            f"first error: {report.first_error}",
            file=sys.stderr,
        )
        return 1

    if args.compare:
        index = build_index()  # fresh index: same state as the service
        t0 = time.perf_counter()
        run_unbatched(index, trace,
                      views={n: _views(args)[n][1] for n in view_names} or None)
        dt = time.perf_counter() - t0
        ratio = dt / report.seconds if report.seconds > 0 else float("inf")
        print(
            f"unbatched loop (one request per call): {dt:.3f}s "
            f"({len(trace) / dt:,.0f} req/s) -> service is {ratio:.2f}x faster"
        )
    return 0


def _views(args) -> dict:
    """View name -> (register it on a ViewManager, its from-scratch
    ``compute(pts, gids)``: the recompute baseline)."""
    from .views import ClosestPairView, DBSCANView, HullView, ViewManager

    return {
        "closest_pair": (ViewManager.closest_pair, ClosestPairView.compute),
        "dbscan": (
            lambda mgr: mgr.dbscan(eps=args.eps, min_pts=args.min_pts),
            lambda pts, gids: DBSCANView.compute(
                pts, gids, eps=args.eps, min_pts=args.min_pts
            ),
        ),
        "hull2d": (ViewManager.hull2d, HullView.compute),
    }


def _parse_views(args, coords) -> tuple[str, ...]:
    """Parse a ``--views`` flag into validated view names (may exit 2)."""
    raw = getattr(args, "views", None)
    if not raw:
        return ()
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    known = _views(args)
    for n in names:
        if n not in known:
            print(f"error: unknown view {n!r} (choose from "
                  f"{', '.join(known)})", file=sys.stderr)
            raise SystemExit(2)
    if "hull2d" in names and coords.shape[1] != 2:
        print("error: the hull2d view needs 2-dimensional points",
              file=sys.stderr)
        raise SystemExit(2)
    return names


def _attach_views(index, names, args):
    """Attach a ViewManager with the named views to a dynamic index."""
    from .views import ViewManager

    mgr = ViewManager(index)
    views = _views(args)
    for n in names:
        views[n][0](mgr)
    return mgr


def cmd_stream_bench(args) -> int:
    """Incremental view maintenance vs recompute-from-scratch, same trace."""
    from .bdl import BDLTree
    from .serve import run_unbatched, save_trace, synthetic_trace

    pts = _load(args.input)
    coords = pts.coords
    args.views = args.views or "closest_pair" + (
        ",hull2d" if coords.shape[1] == 2 else "")
    view_names = _parse_views(args, coords)
    if not 0.0 < args.mutation_frac <= 1.0:
        print("error: stream-bench needs --mutation-frac in (0, 1]",
              file=sys.stderr)
        return 2

    def build_index():
        if args.shards > 0:
            from .cluster import ShardedIndex

            return ShardedIndex(coords, args.shards)
        bdl = BDLTree(dim=coords.shape[1])
        bdl.insert(coords)
        return bdl

    trace = synthetic_trace(
        coords,
        args.requests,
        kinds=("view",),
        mutation_frac=args.mutation_frac,
        mutation_batch=args.mutation_batch,
        view_names=view_names,
        seed=args.seed,
    )
    if args.save_trace:
        save_trace(args.save_trace, trace)
    n_mut = sum(1 for op in trace if op["op"] in ("insert", "erase"))
    n_view = len(trace) - n_mut

    # incremental side: mutations repair the registered views in place
    mgr = _attach_views(build_index(), view_names, args)
    t0 = time.perf_counter()
    inc = []
    for op in trace:
        if op["op"] == "insert":
            mgr.insert(np.asarray(op["pts"], dtype=np.float64))
            inc.append(None)
        elif op["op"] == "erase":
            mgr.erase(np.asarray(op["pts"], dtype=np.float64))
            inc.append(None)
        else:
            inc.append(mgr.get(op["name"]))
    t_inc = time.perf_counter() - t0

    # baseline side: same trace, every view read recomputed from scratch
    base_index = build_index()
    t0 = time.perf_counter()
    base = run_unbatched(base_index, trace,
                         views={n: _views(args)[n][1] for n in view_names})
    t_base = time.perf_counter() - t0

    mismatches = sum(1 for a, b in zip(inc, base) if a != b)
    speedup = t_base / t_inc if t_inc > 0 else float("inf")
    kind = (f"ShardedIndex[{args.shards}]" if args.shards > 0 else "BDLTree")
    print(f"stream-bench: {len(coords)} points ({kind}), {len(trace)} ops "
          f"({n_mut} mutations / {n_view} view reads, "
          f"batch {args.mutation_batch})")
    print(f"views: {', '.join(view_names)}")
    print(f"incremental maintenance: {t_inc:.3f}s | recompute-from-scratch: "
          f"{t_base:.3f}s -> {speedup:.2f}x faster")
    for name, st in mgr.stats().items():
        print(f"  {name}: {st['repairs']} repairs, "
              f"{st['recomputes']} recompute fallbacks")
    if mismatches:
        print(f"error: {mismatches} view answer(s) diverged from the "
              f"recompute baseline", file=sys.stderr)
        return 1
    print(f"all {n_view} view answers bitwise-equal to the baseline")
    if args.json_out:
        import json

        rec = {
            "n_points": int(len(coords)),
            "dim": int(coords.shape[1]),
            "index": kind,
            "views": list(view_names),
            "n_ops": len(trace),
            "n_mutations": n_mut,
            "n_view_reads": n_view,
            "mutation_frac": args.mutation_frac,
            "mutation_batch": args.mutation_batch,
            "incremental_s": t_inc,
            "recompute_s": t_base,
            "speedup": speedup,
            "answers_equal": mismatches == 0,
            "view_stats": mgr.stats(),
        }
        with open(args.json_out, "w") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        print(f"wrote {args.json_out}")
    return 0


def cmd_cluster_bench(args) -> int:
    from .cluster import compare_cluster
    from .cluster.bench import compare_procs, summary, summary_procs

    pts = _load(args.input)
    if args.procs:
        ladder = tuple(int(p) for p in args.procs.split(","))
        rec = compare_procs(
            pts.coords,
            n_shards=args.shards,
            k=args.k,
            n_queries=args.queries,
            procs=ladder,
            seed=args.seed,
        )
        print(summary_procs(rec))
    else:
        with _use_backend(args):
            rec = compare_cluster(
                pts.coords,
                n_shards=args.shards,
                k=args.k,
                n_queries=args.queries,
                workers=args.workers,
                seed=args.seed,
            )
        print(summary(rec))
    if not (rec["knn_distances_equal"] and rec["ball_results_equal"]):
        print("error: sharded results diverged from the monolithic tree",
              file=sys.stderr)
        return 1
    if args.json_out:
        import json

        with open(args.json_out, "w") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        print(f"wrote {args.json_out}")
    return 0


def _build_load(args, coords):
    """The two-tenant front-end + open-loop loads ``load-bench``/``dash`` share."""
    from .cluster import ShardedIndex
    from .frontend import Frontend
    from .frontend.load import TenantLoad
    from .kdtree import KDTree
    from .serve import zipf_trace

    heavy_n = int(args.seconds * args.heavy_rate)
    light_n = int(args.seconds * args.light_rate)
    if heavy_n < 1 or light_n < 1:
        print("error: seconds * rate must give at least one request per tenant",
              file=sys.stderr)
        raise SystemExit(2)

    heavy_idx = ShardedIndex(coords, args.shards) if args.shards > 0 \
        else KDTree(coords)
    fe = Frontend(
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        degrade_at=args.degrade_at,
    )
    fe.register_tenant("heavy", heavy_idx, weight=1.0)
    fe.register_tenant("light", KDTree(coords), weight=args.light_weight)
    loads = [
        TenantLoad(
            "heavy",
            zipf_trace(coords, heavy_n, kinds=("knn",), k=args.k,
                       s=args.zipf_s, seed=args.seed),
            rate=args.heavy_rate, pattern=args.pattern,
            seed=args.seed + 1,
        ),
        TenantLoad(
            "light",
            zipf_trace(coords, light_n, kinds=("knn", "ball"), k=args.k,
                       s=args.zipf_s, seed=args.seed + 2),
            rate=args.light_rate, pattern="poisson", seed=args.seed + 3,
        ),
    ]
    return fe, loads, heavy_idx


def cmd_load_bench(args) -> int:
    import asyncio

    from .frontend.load import run_open_loop, verify_degraded

    pts = _load(args.input)
    coords = pts.coords
    fe, loads, heavy_idx = _build_load(args, coords)

    async def run():
        try:
            return await run_open_loop(fe, loads)
        finally:
            await fe.close()

    rec = None
    if args.trace_out:
        # span bundles only exist with a recorder installed; the flight
        # recorder attaches each retained request's batch subtree
        from .obs.span import SpanRecorder, disable_tracing, enable_tracing

        rec = SpanRecorder()
        enable_tracing(rec)
    try:
        report = asyncio.run(run())
    finally:
        if rec is not None:
            disable_tracing()
    print(f"load-bench: {len(coords)} points, "
          f"{'ShardedIndex[%d]' % args.shards if args.shards > 0 else 'KDTree'} "
          f"heavy tenant, {args.pattern} arrivals at "
          f"{args.heavy_rate:,.0f}/{args.light_rate:,.0f} req/s "
          f"for {args.seconds:.0f}s")
    print(report.summary())
    n_ver = verify_degraded(heavy_idx, report.degraded_samples)
    if n_ver:
        print(f"verified {n_ver} degraded answers against exact recompute")
    if args.json_out:
        report.save(args.json_out)
        print(f"wrote {args.json_out}")
    if args.trace_out:
        from .obs.rtrace import validate_request_trace, write_flight_trace

        retained = fe.flight.retained()
        problems = [
            (t.trace_id, p)
            for t in retained for p in validate_request_trace(t)
        ]
        # every exemplar in the exposition must name a retained trace
        ex_ids = re.findall(r'# \{trace_id="(\w+)"\}', fe.metrics_text())
        problems += [(tid, "exemplar names no retained trace")
                     for tid in ex_ids if fe.flight.lookup(tid) is None]
        print(f"{len(ex_ids)} exemplars in the metrics exposition")
        obj = write_flight_trace(args.trace_out, retained,
                                 name="repro load-bench")
        print(f"wrote {len(retained)} retained request traces "
              f"({obj['otherData']['spans']} spans) to {args.trace_out} "
              f"-- load in https://ui.perfetto.dev")
        if problems:
            for tid, p in problems[:10]:
                print(f"invalid trace {tid}: {p}", file=sys.stderr)
            print(f"error: {len(problems)} validation problem(s) in "
                  f"retained traces and exemplars", file=sys.stderr)
            return 1
    return 0


def cmd_dash(args) -> int:
    import asyncio

    from .frontend.load import run_open_loop
    from .obs.dash import render

    pts = _load(args.input)
    coords = pts.coords
    fe, loads, heavy_idx = _build_load(args, coords)
    clear = "" if args.no_clear else "\x1b[2J\x1b[H"

    mgr = None
    if args.views:
        if args.shards <= 0:
            print("error: dash --views needs a dynamic heavy tenant "
                  "(--shards > 0)", file=sys.stderr)
            return 2
        names = ("closest_pair",) + (
            ("hull2d",) if coords.shape[1] == 2 else ())
        mgr = _attach_views(heavy_idx, names, args)
    rng = np.random.default_rng(args.seed + 9)
    stash: list = []

    async def churn():
        # alternate jittered inserts with erases of what we inserted, so
        # the views column moves while the dataset stays near its size
        try:
            if stash and rng.random() < 0.5:
                await fe.erase("heavy", stash.pop(0))
            else:
                batch = (coords[rng.integers(len(coords), size=8)]
                         + rng.normal(0, 0.01, (8, coords.shape[1])))
                stash.append(batch)
                await fe.insert("heavy", batch)
        except Exception:
            pass  # dash keeps drawing even when mutations are shed

    async def run():
        task = asyncio.ensure_future(run_open_loop(fe, loads))
        try:
            while not task.done():
                if mgr is not None:
                    await churn()
                print(clear + render(fe), flush=True)
                await asyncio.sleep(args.interval)
            report = await task
            print(clear + render(fe), flush=True)
            print()
            print(report.summary())
        finally:
            await fe.close()

    asyncio.run(run())
    return 0


def cmd_profile(args) -> int:
    from .obs import summary, trace, write_chrome_trace
    from .obs.span import DEFAULT_MAX_SPANS
    from .parlay.workdepth import tracker

    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        print("error: profile needs a command to run, "
              "e.g. 'profile knn pts.npy -k 8'", file=sys.stderr)
        return 2
    if cmd[0] == "profile":
        print("error: profile cannot wrap itself", file=sys.stderr)
        return 2

    from .parlay.scheduler import get_scheduler

    inner = build_parser().parse_args(cmd)
    tracker.reset()
    with trace(f"cli.{cmd[0]}",
               max_spans=args.max_spans or DEFAULT_MAX_SPANS) as rec:
        rc = inner.fn(inner)
    sched = get_scheduler()
    print(f"\nactive backend: {sched.backend} ({sched.workers} workers)"
          + (f" [inner run used --backend {inner.backend}]"
             if getattr(inner, "backend", None) else ""))
    spans = rec.spans()
    obj = write_chrome_trace(args.trace_out, spans,
                             workers=args.workers, name=f"repro {cmd[0]}")
    print()
    print(summary(spans, top=args.top, workers=args.workers))
    print()
    dropped = f" ({rec.dropped} dropped)" if rec.dropped else ""
    print(f"wrote {len(obj['traceEvents'])} trace events "
          f"({len(spans)} spans{dropped}) to {args.trace_out} "
          f"-- load in https://ui.perfetto.dev")
    return rc


def _add_load_args(sp) -> None:
    """Arguments shaping the shared two-tenant open-loop load."""
    sp.add_argument("input", help="point file both tenants query")
    sp.add_argument("--seconds", type=float, default=5.0,
                    help="offered-load duration per tenant (default 5)")
    sp.add_argument("--heavy-rate", type=float, default=5000.0,
                    help="heavy tenant arrival rate, req/s (default 5000)")
    sp.add_argument("--light-rate", type=float, default=200.0,
                    help="light tenant arrival rate, req/s (default 200)")
    sp.add_argument("--light-weight", type=float, default=4.0,
                    help="fair-dispatch weight of the light tenant")
    sp.add_argument("--pattern", choices=("poisson", "bursty"),
                    default="poisson", help="heavy tenant arrival process")
    sp.add_argument("--zipf-s", type=float, default=1.2,
                    help="Zipf exponent of the hot-spot skew")
    sp.add_argument("-k", type=int, default=8, help="k for kNN requests")
    sp.add_argument("--shards", type=int, default=16, metavar="N",
                    help="heavy tenant's shard count (0 = plain KDTree, "
                    "which disables graceful degradation)")
    sp.add_argument("--queue-depth", type=int, default=512,
                    help="per-tenant queue bound / reject threshold")
    sp.add_argument("--degrade-at", type=int, default=None,
                    help="total depth that triggers approximate answers "
                    "(default: queue-depth / 2)")
    sp.add_argument("--max-batch", type=int, default=256)
    sp.add_argument("--seed", type=int, default=0)


def _add_backend_arg(sp) -> None:
    from .parlay.scheduler import BACKENDS

    sp.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="scheduler backend to run under (default: the ambient "
             "backend, REPRO_BACKEND or sequential)",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="create a synthetic dataset")
    g.add_argument("name", help="paper-style name, e.g. 2D-U-100K")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_generate)

    h = sub.add_parser("hull", help="convex hull (2d/3d)")
    h.add_argument("input")
    h.add_argument("--method", default="divide_conquer",
                   choices=["divide_conquer", "quickhull", "randinc", "pseudo"])
    h.add_argument("-o", "--output")
    h.set_defaults(fn=cmd_hull)

    s = sub.add_parser("seb", help="smallest enclosing ball")
    s.add_argument("input")
    s.add_argument("--method", default="sampling",
                   choices=["sampling", "orthant", "welzl", "welzl_mtf",
                            "welzl_mtf_pivot", "parallel_welzl"])
    s.set_defaults(fn=cmd_seb)

    k = sub.add_parser("knn", help="all-points k nearest neighbors")
    k.add_argument("input")
    k.add_argument("-k", type=int, default=5)
    k.add_argument("--split", default="object", choices=["object", "spatial"])
    k.add_argument("--shards", type=int, default=0, metavar="N",
                   help="serve from a Hilbert-sharded index with N shards "
                        "(0 = monolithic kd-tree)")
    k.add_argument("-o", "--output")
    _add_backend_arg(k)
    k.set_defaults(fn=cmd_knn)

    e = sub.add_parser("emst", help="Euclidean minimum spanning tree")
    e.add_argument("input")
    e.add_argument("-o", "--output")
    e.set_defaults(fn=cmd_emst)

    gr = sub.add_parser("graph", help="spatial graph generators")
    gr.add_argument("input")
    gr.add_argument("--kind", required=True,
                    choices=["knn", "delaunay", "gabriel", "beta", "emst", "spanner"])
    gr.add_argument("-k", type=int, default=5)
    gr.add_argument("--beta", type=float, default=1.5)
    gr.add_argument("--separation", type=float, default=8.0)
    gr.add_argument("-o", "--output")
    gr.set_defaults(fn=cmd_graph)

    c = sub.add_parser("cluster", help="DBSCAN clustering")
    c.add_argument("input")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--min-pts", type=int, default=8)
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_cluster)

    sr = sub.add_parser(
        "serve-replay",
        help="replay a request trace through the geometry query service",
        description="Replay a JSONL request trace (or a synthetic one) "
        "through repro.serve.GeometryService and report throughput, "
        "cache hit-rate, and batching behaviour.",
    )
    sr.add_argument("input", help="point file the queries run against")
    sr.add_argument("--trace", help="JSONL trace file (default: synthesize one)")
    sr.add_argument("--synthetic", type=int, default=2000, metavar="N",
                    help="requests to synthesize when no --trace is given")
    sr.add_argument("--mix", default="knn,ball,box",
                    help="comma-separated kinds for synthetic traces")
    sr.add_argument("-k", type=int, default=8, help="k for synthetic kNN requests")
    sr.add_argument("--repeat-frac", type=float, default=0.25,
                    help="fraction of synthetic requests repeating earlier ones")
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--save-trace", help="also write the replayed trace as JSONL")
    sr.add_argument("--mutation-frac", type=float, default=0.0,
                    help="fraction of synthetic ops that are insert/erase "
                         "batches (needs a dynamic index)")
    sr.add_argument("--mutation-batch", type=int, default=8,
                    help="points per synthetic mutation batch (default 8)")
    sr.add_argument("--views", metavar="NAMES",
                    help="comma-separated materialized views to register "
                         "and read (closest_pair,dbscan,hull2d); adds "
                         "'view' ops to synthetic traces")
    sr.add_argument("--eps", type=float, default=0.1,
                    help="eps for the dbscan view (default 0.1)")
    sr.add_argument("--min-pts", type=int, default=8,
                    help="min_pts for the dbscan view (default 8)")
    sr.add_argument("--dynamic", action="store_true",
                    help="serve from a BDLTree instead of a static KDTree")
    sr.add_argument("--shards", type=int, default=0, metavar="N",
                    help="serve from a Hilbert-sharded index with N shards "
                         "(scatter-gather routing; 0 = unsharded)")
    sr.add_argument("--max-batch", type=int, default=256,
                    help="most queries answered per service call (default 256)")
    sr.add_argument("--cache", type=int, default=8192,
                    help="result-cache capacity (entries)")
    sr.add_argument("--compare", action="store_true",
                    help="also time the one-request-at-a-time recursive loop")
    sr.add_argument("--metrics-out", metavar="PATH",
                    help="write the post-run service metrics snapshot as JSON")
    sr.set_defaults(fn=cmd_serve_replay)

    sb = sub.add_parser(
        "stream-bench",
        help="incremental view maintenance vs recompute on an update-heavy trace",
        description="Replay an update-heavy synthetic trace (insert/erase "
        "batches interleaved with materialized-view reads) twice: once "
        "with repro.views maintaining the views incrementally, once with "
        "every view read recomputed from scratch; verify the answers are "
        "bitwise-equal at every version and report the speedup.",
    )
    sb.add_argument("input", help="point file the stream runs against")
    sb.add_argument("--requests", type=int, default=2000, metavar="N",
                    help="ops to synthesize (default 2000)")
    sb.add_argument("--mutation-frac", type=float, default=0.35,
                    help="fraction of ops that are insert/erase batches "
                         "(default 0.35 — update-heavy)")
    sb.add_argument("--mutation-batch", type=int, default=8,
                    help="points per mutation batch (default 8)")
    sb.add_argument("--views", metavar="NAMES",
                    help="comma-separated views to maintain "
                         "(default: closest_pair, plus hull2d when 2D)")
    sb.add_argument("--eps", type=float, default=0.1,
                    help="eps for the dbscan view (default 0.1)")
    sb.add_argument("--min-pts", type=int, default=8,
                    help="min_pts for the dbscan view (default 8)")
    sb.add_argument("--shards", type=int, default=0, metavar="N",
                    help="maintain views over a Hilbert-sharded index "
                         "with N shards (0 = BDLTree)")
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--save-trace", help="also write the trace as JSONL")
    sb.add_argument("--json-out", metavar="PATH",
                    help="write the comparison record as JSON")
    sb.set_defaults(fn=cmd_stream_bench)

    cb = sub.add_parser(
        "cluster-bench",
        help="compare a Hilbert-sharded index against the monolithic kd-tree",
        description="Run the same kNN + ball-range workload against a "
        "monolithic kd-tree and a ShardedIndex, reporting wall-clock, "
        "work/depth charges, simulated T_p under the work-depth model, "
        "and the scatter-gather pruning rate.",
    )
    cb.add_argument("input", help="point file the workload runs against")
    cb.add_argument("--shards", type=int, default=16, metavar="N",
                    help="shard count for the sharded side (default 16)")
    cb.add_argument("-k", type=int, default=10, help="k for the kNN queries")
    cb.add_argument("--queries", type=int, default=2000, metavar="N",
                    help="number of kNN queries (plus N/2 ball queries)")
    cb.add_argument("--workers", type=float, default=36,
                    help="simulated cores for T_p (default: the paper's 36)")
    cb.add_argument("--seed", type=int, default=0)
    cb.add_argument("--procs", metavar="P1,P2,...",
                    help="instead: run the processes-backend ladder "
                    "(e.g. 1,2,4), reporting measured wall-clock speedup "
                    "next to the simulated T_p at each p")
    cb.add_argument("--json-out", metavar="PATH",
                    help="also write the comparison record as JSON")
    _add_backend_arg(cb)
    cb.set_defaults(fn=cmd_cluster_bench)

    lb = sub.add_parser(
        "load-bench",
        help="open-loop multi-tenant load test of the async front-end",
        description="Drive repro.frontend.Frontend with a saturating heavy "
        "tenant and a light tenant on open-loop (Poisson or bursty) Zipf "
        "traces; report per-tenant p50/p99/p999 latency, rejection rate, "
        "degraded-answer counts, and saturation throughput.",
    )
    _add_load_args(lb)
    lb.add_argument("--json-out", metavar="PATH",
                    help="write the full load report as JSON")
    lb.add_argument("--trace-out", metavar="PATH",
                    help="dump the flight recorder's retained request "
                    "traces (validated, as are the metrics' exemplars) as "
                    "a Perfetto-loadable timeline")
    lb.set_defaults(fn=cmd_load_bench)

    da = sub.add_parser(
        "dash",
        help="live text dashboard over a synthetic open-loop load",
        description="Drive the same two-tenant open-loop load as "
        "load-bench while redrawing a live dashboard: per-tenant "
        "queues, SLO burn rates, flight-recorder retention, and the "
        "slowest retained requests decomposed into phases.",
    )
    _add_load_args(da)
    da.add_argument("--interval", type=float, default=0.5,
                    help="seconds between dashboard redraws (default 0.5)")
    da.add_argument("--no-clear", action="store_true",
                    help="append frames instead of clearing the screen")
    da.add_argument("--views", action="store_true",
                    help="maintain materialized views on the heavy tenant "
                         "and churn mutations so the views column moves")
    da.set_defaults(fn=cmd_dash)

    pr = sub.add_parser(
        "profile",
        help="run any command under the span tracer and export its trace",
        description="Wrap another repro command (hull, knn, serve-replay, ...) "
        "in the span-tree tracer, write a Perfetto-loadable Chrome trace, "
        "and print a flame-style work/depth summary.",
    )
    pr.add_argument("--trace-out", default="trace.json", metavar="PATH",
                    help="Chrome trace-event JSON output (default: trace.json)")
    pr.add_argument("--workers", type=int, default=36,
                    help="simulated cores for the scheduled timeline")
    pr.add_argument("--top", type=int, default=12,
                    help="rows in the top-spans tables")
    pr.add_argument("--max-spans", type=int, default=None,
                    help="recorder capacity (spans beyond it are dropped)")
    pr.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="the command line to profile, e.g. 'knn pts.npy -k 8'")
    pr.set_defaults(fn=cmd_profile)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
