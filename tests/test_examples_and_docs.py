"""Smoke tests that the examples and documented API actually run.

These keep the deliverables honest: every example script must execute
end-to-end (scaled down via monkeypatched generators where needed), and
the README quickstart snippet must be valid code.
"""

import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def _run_example(name, monkeypatch):
    """Execute an example as __main__ with shrunken datasets."""
    import repro
    import repro.generators.synthetic as synth

    # shrink every generator so examples run in seconds
    originals = {
        "uniform": synth.uniform,
        "visual_var": synth.visual_var,
    }

    def small(fn, cap):
        def wrapper(n, d, seed=0, **kw):
            return fn(min(n, cap), d, seed=seed, **kw)

        return wrapper

    monkeypatch.setattr(repro, "uniform", small(originals["uniform"], 2000))
    monkeypatch.setattr(repro, "visual_var", small(originals["visual_var"], 1500))

    def tiny_dataset(name, seed=0):
        # rewrite the size suffix down
        parts = name.split("-")
        return synth.DATASET_KINDS[parts[1].upper()](1500, int(parts[0][0]), seed=seed)

    monkeypatch.setattr(repro, "dataset", tiny_dataset)
    import repro.generators as gen
    from repro.generators.scans import thai_statue as real_thai

    monkeypatch.setattr(
        gen, "thai_statue", lambda n=1000, seed=7: real_thai(min(n, 1500), seed=seed)
    )
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "spatial_graphs.py",
        "dynamic_points.py",
        "clustering_pipeline.py",
        "spatial_analytics.py",
    ],
)
def test_example_runs(script, monkeypatch, capsys):
    _run_example(script, monkeypatch)
    out = capsys.readouterr().out
    assert len(out) > 0


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        import repro

        pts = repro.dataset("2D-U-2K", seed=0)
        hull = repro.convex_hull(pts)
        ball = repro.smallest_enclosing_ball(pts)
        tree = repro.KDTree(pts)
        dists, ids = tree.knn(pts.coords[:10], k=5)
        inside = tree.range_query_box([0, 0], [50, 50])
        bdl = repro.BDLTree(dim=2)
        bdl.insert(pts.coords)
        bdl.erase(pts.coords[:100])
        edges, w = repro.emst(pts.coords[:500])
        labels = repro.dbscan(pts.coords, eps=2.0, min_pts=8)
        g = repro.gabriel_graph(pts.coords[:300]).to_networkx()
        assert len(hull) >= 3
        assert ball.radius > 0
        assert dists.shape == (10, 5)
        assert bdl.size() == len(pts) - 100
        assert len(edges) == 499
        assert len(labels) == len(pts)
        assert g.number_of_nodes() == 300

    def test_all_documented_exports_exist(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_submodule_all_exports_exist(self):
        import importlib

        for mod in (
            "repro.parlay",
            "repro.core",
            "repro.kdtree",
            "repro.bdl",
            "repro.hull",
            "repro.seb",
            "repro.wspd",
            "repro.emst",
            "repro.closestpair",
            "repro.delaunay",
            "repro.graphs",
            "repro.spatialsort",
            "repro.clustering",
            "repro.generators",
            "repro.bench",
            "repro.obs",
            "repro.serve",
            "repro.cluster",
        ):
            m = importlib.import_module(mod)
            for name in getattr(m, "__all__", []):
                assert hasattr(m, name), f"{mod}.{name} missing"

    def test_public_functions_have_docstrings(self):
        import repro

        undocumented = [
            name
            for name in repro.__all__
            if callable(getattr(repro, name)) and not getattr(repro, name).__doc__
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestCLIHelp:
    """The documented subcommands and flags exist in the parser."""

    def test_top_level_subcommands(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        for cmd in ("generate", "hull", "knn", "serve-replay",
                    "cluster-bench", "profile"):
            assert cmd in text, f"subcommand {cmd} missing from help"

    def test_shards_flag_on_knn_and_serve_replay(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        for cmd in ("knn", "serve-replay"):
            assert "--shards" in sub.choices[cmd].format_help(), cmd
        bench_help = sub.choices["cluster-bench"].format_help()
        for flag in ("--shards", "--workers", "--json-out"):
            assert flag in bench_help, flag


class TestDocsMatchCode:
    """The docs name no removed flag, subcommand or env var."""

    def test_readme_cli_lines_parse(self):
        import shlex

        from repro.cli import build_parser

        lines = [
            m.group(1)
            for m in re.finditer(
                r"^(?:\$ )?python -m repro (.+)$",
                (REPO / "README.md").read_text(),
                re.MULTILINE,
            )
        ]
        assert lines, "README.md shows no 'python -m repro' command"
        for line in lines:
            try:
                build_parser().parse_args(shlex.split(line))
            except SystemExit:
                pytest.fail(f"README command does not parse: {line!r}")

    def test_documented_env_vars_are_read(self):
        code = "\n".join(
            p.read_text()
            for root in ("src", "benchmarks")
            for p in (REPO / root).rglob("*.py")
        )
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            for name in set(re.findall(r"REPRO_[A-Z0-9_]+", (REPO / doc).read_text())):
                assert re.search(rf"[\"']{name}[\"']", code), (
                    f"{doc} names {name}, which no code reads"
                )
