"""Tests for hull measures, point-set I/O, and the CLI."""

import os

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import repro
from repro.generators import load_points, save_points
from repro.hull import (
    hull_area_2d,
    hull_surface_area_3d,
    hull_volume_3d,
    points_in_hull_2d,
    points_in_hull_3d,
    polygon_area,
    quickhull2d_seq,
)

from ._engines import forced_engine


class TestMeasures:
    def test_polygon_area_unit_square(self):
        sq = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        assert polygon_area(sq) == pytest.approx(1.0)
        assert polygon_area(sq[::-1]) == pytest.approx(-1.0)

    def test_hull_area_matches_qhull(self, rng):
        pts = rng.normal(size=(500, 2))
        assert hull_area_2d(pts) == pytest.approx(ConvexHull(pts).volume, rel=1e-9)

    def test_hull_volume_matches_qhull(self, rng):
        pts = rng.normal(size=(400, 3))
        ref = ConvexHull(pts)
        assert hull_volume_3d(pts) == pytest.approx(ref.volume, rel=1e-9)
        assert hull_surface_area_3d(pts) == pytest.approx(ref.area, rel=1e-9)

    def test_points_in_hull_2d(self, rng):
        pts = rng.uniform(0, 10, size=(200, 2))
        poly = pts[quickhull2d_seq(pts)]
        inside = points_in_hull_2d(poly, pts)
        assert inside.all()  # hull contains its own points
        outside = points_in_hull_2d(poly, np.array([[100.0, 100.0]]))
        assert not outside[0]

    def test_points_in_hull_3d(self, rng):
        pts = rng.uniform(0, 10, size=(150, 3))
        inside = points_in_hull_3d(pts, pts)
        assert inside.all()
        assert not points_in_hull_3d(pts, np.array([[99.0, 99, 99]]))[0]

    def test_degenerate_small(self):
        assert hull_area_2d(np.zeros((2, 2))) == 0.0


class TestIO:
    @pytest.mark.parametrize("ext", ["npy", "csv", "txt", "pbbs"])
    def test_roundtrip(self, ext, rng, tmp_path):
        pts = rng.normal(size=(50, 3))
        path = tmp_path / f"pts.{ext}"
        save_points(path, pts)
        back = load_points(path)
        assert np.allclose(back.coords, pts)

    def test_pbbs_header(self, rng, tmp_path):
        pts = rng.normal(size=(10, 2))
        path = tmp_path / "pts.pbbs"
        save_points(path, pts)
        first = path.read_text().splitlines()[0]
        assert first == "pbbs_sequencePoint2d"

    def test_single_row_text(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.5,2.5\n")
        ps = load_points(path)
        assert ps.coords.shape == (1, 2)

    def test_unknown_format_rejected(self, rng, tmp_path):
        with pytest.raises(ValueError):
            save_points(tmp_path / "pts.xyz", rng.normal(size=(3, 2)))

    def test_load_unknown_extension_names_supported_formats(self, tmp_path):
        path = tmp_path / "pts.parquet"
        path.write_text("not points")
        with pytest.raises(ValueError) as ei:
            load_points(path)
        msg = str(ei.value)
        assert ".parquet" in msg
        for ext in (".npy", ".csv", ".pbbs"):
            assert ext in msg


class TestCLI:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_generate_and_hull(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        assert self._run("generate", "2D-U-500", "-o", f) == 0
        assert self._run("hull", f, "--method", "quickhull") == 0
        out = capsys.readouterr().out
        assert "hull:" in out

    def test_seb_and_knn(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "3D-IS-400", "-o", f)
        assert self._run("seb", f, "--method", "sampling") == 0
        nn = str(tmp_path / "nn.csv")
        assert self._run("knn", f, "-k", "3", "-o", nn) == 0
        mat = np.loadtxt(nn, delimiter=",")
        assert mat.shape == (400, 3)

    def test_knn_engines_agree(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-U-300", "-o", f)
        batched = str(tmp_path / "nn_batched.csv")
        recursive = str(tmp_path / "nn_recursive.csv")
        # the size rule picks the engine; forcing each one in-process
        # must write the same file
        with forced_engine("batched"):
            assert self._run("knn", f, "-k", "4", "-o", batched) == 0
        with forced_engine("recursive"):
            assert self._run("knn", f, "-k", "4", "-o", recursive) == 0
        with pytest.raises(SystemExit):
            self._run("knn", f, "--engine", "batched")
        a = np.loadtxt(batched, delimiter=",")
        b = np.loadtxt(recursive, delimiter=",")
        assert a.shape == (300, 4)
        assert np.array_equal(a, b)

    def test_emst_and_graph(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-U-300", "-o", f)
        e = str(tmp_path / "mst.csv")
        assert self._run("emst", f, "-o", e) == 0
        mst = np.loadtxt(e, delimiter=",")
        assert len(mst) == 299
        assert self._run("graph", f, "--kind", "gabriel") == 0

    def test_cluster(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-V-400", "-o", f)
        labels = str(tmp_path / "labels.txt")
        assert self._run("cluster", f, "--eps", "1.0", "-o", labels) == 0
        lab = np.loadtxt(labels)
        assert len(lab) == 400

    def test_bad_input_exits_2_with_message(self, tmp_path, capsys):
        bad = tmp_path / "pts.parquet"
        bad.write_text("nope")
        for cmd in (["hull", str(bad)], ["knn", str(bad)], ["seb", str(bad)]):
            with pytest.raises(SystemExit) as ei:
                self._run(*cmd)
            assert ei.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and ".npy" in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            self._run("hull", str(tmp_path / "missing.npy"))
        assert ei.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_replay(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-U-500", "-o", f)
        trace = str(tmp_path / "trace.jsonl")
        assert self._run("serve-replay", f, "--synthetic", "60",
                         "--repeat-frac", "0.3", "--save-trace", trace,
                         "--compare") == 0
        out = capsys.readouterr().out
        assert "hit-rate" in out and "faster" in out
        # replaying the saved trace gives the same request count
        assert self._run("serve-replay", f, "--trace", trace, "--dynamic") == 0
        assert "60/60 requests" in capsys.readouterr().out

    def test_knn_sharded_matches_monolithic(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-U-400", "-o", f)
        mono = str(tmp_path / "nn_mono.csv")
        shard = str(tmp_path / "nn_shard.csv")
        assert self._run("knn", f, "-k", "4", "-o", mono) == 0
        assert self._run("knn", f, "-k", "4", "--shards", "8", "-o", shard) == 0
        out = capsys.readouterr().out
        assert "8 shards" in out and "shards touched/query" in out
        assert np.array_equal(
            np.loadtxt(mono, delimiter=","), np.loadtxt(shard, delimiter=",")
        )

    def test_serve_replay_sharded(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-V-400", "-o", f)
        assert self._run("serve-replay", f, "--synthetic", "40",
                         "--shards", "8") == 0
        out = capsys.readouterr().out
        assert "ShardedIndex[8]" in out and "40/40 requests" in out

    def test_cluster_bench(self, tmp_path, capsys):
        f = str(tmp_path / "p.npy")
        self._run("generate", "2D-V-600", "-o", f)
        rec = str(tmp_path / "bench.json")
        assert self._run("cluster-bench", f, "--shards", "8",
                         "--queries", "80", "--json-out", rec) == 0
        out = capsys.readouterr().out
        assert "cluster-bench:" in out and "scatter-gather" in out
        import json

        data = json.loads(open(rec).read())
        assert data["knn_distances_equal"] and data["ball_results_equal"]
        assert 0 < data["pruning"]["mean_touched_frac"] <= 1.0


class TestRNGGraph:
    def test_rng_is_beta2(self, rng):
        from repro.graphs import beta_skeleton, relative_neighborhood_graph

        pts = rng.uniform(0, 10, size=(150, 2))
        a = set(map(tuple, relative_neighborhood_graph(pts).edges.tolist()))
        b = set(map(tuple, beta_skeleton(pts, 2.0).edges.tolist()))
        assert a == b

    def test_rng_between_emst_and_gabriel(self, rng):
        from repro.graphs import emst_graph, gabriel_graph, relative_neighborhood_graph

        pts = rng.uniform(0, 10, size=(200, 2))
        e = set(map(tuple, emst_graph(pts).edges.tolist()))
        r = set(map(tuple, relative_neighborhood_graph(pts).edges.tolist()))
        g = set(map(tuple, gabriel_graph(pts).edges.tolist()))
        assert e <= r <= g
