"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph.generators import clique, disjoint_union, star
from repro.graph.io import write_directed, write_undirected
from repro.graph.directed import DirectedGraph


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "flickr_sim" in out
        assert "twitter_sim" in out

    def test_group_filter(self, capsys):
        assert main(["datasets", "--group", "table2"]) == 0
        out = capsys.readouterr().out
        assert "grqc_sim" in out
        assert "flickr_sim" not in out


class TestRunCommand:
    """Algorithms 1 and 2 on the core backend via ``densest``."""

    def test_run_on_dataset(self, capsys):
        code = main(
            ["densest", "--dataset", "as_sim", "--scale", "0.3", "--epsilon", "0.5",
             "--backend", "core"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend : core" in out
        assert "density" in out and "passes" in out

    def test_run_with_k(self, capsys):
        code = main(
            ["densest", "--dataset", "as_sim", "--scale", "0.3", "--k", "50",
             "--backend", "core"]
        )
        assert code == 0
        assert "k>=50" in capsys.readouterr().out

    def test_run_on_edge_list(self, tmp_path, capsys):
        g = disjoint_union([clique(5), star(20, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        code = main(
            ["densest", "--edge-list", str(path), "--epsilon", "0.1",
             "--backend", "core", "--show-nodes", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "density : 2.0" in out
        assert "nodes" in out

    def test_run_directed_dataset_errors(self, capsys):
        code = main(
            ["densest", "--dataset", "twitter_sim", "--scale", "0.1",
             "--backend", "core", "--k", "5"]
        )
        assert code == 2
        assert "directed" in capsys.readouterr().err

    def test_unknown_dataset_errors(self, capsys):
        code = main(["densest", "--dataset", "bogus"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestRemovedCommands:
    @pytest.mark.parametrize("command", ["run", "run-directed", "exact"])
    def test_legacy_subcommands_exit_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "as_sim"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_mr_fused_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["densest", "--dataset", "as_sim", "--backend", "mapreduce",
                  "--mr-fused"])
        assert exc.value.code == 2
        assert "--mr-fused" in capsys.readouterr().err


class TestBackendsCommand:
    def test_lists_registered_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("core", "streaming", "sketch", "mapreduce", "exact-lp"):
            assert name in out


class TestDensestCommand:
    def test_auto_backend_on_undirected_dataset(self, capsys):
        code = main(["densest", "--dataset", "as_sim", "--scale", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend : core" in out and "density" in out

    def test_explicit_mapreduce_backend(self, capsys):
        code = main(
            ["densest", "--dataset", "as_sim", "--scale", "0.3", "--backend", "mapreduce"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend : mapreduce" in out
        assert "MapReduce rounds" in out

    def test_backends_agree_on_edge_list(self, tmp_path, capsys):
        g = disjoint_union([clique(5), star(20, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        outputs = {}
        for backend in ("core", "streaming", "mapreduce"):
            code = main(
                ["densest", "--edge-list", str(path), "--backend", backend, "--epsilon", "0.1"]
            )
            assert code == 0
            out = capsys.readouterr().out
            outputs[backend] = [line for line in out.splitlines() if "density" in line]
        assert outputs["core"] == outputs["streaming"] == outputs["mapreduce"]
        assert "2.0000" in outputs["core"][0]

    def test_directed_dataset_runs_sweep(self, capsys):
        code = main(["densest", "--dataset", "twitter_sim", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|S|, |T|" in out and "ratio c" in out

    def test_k_selects_atleast_k_problem(self, capsys):
        code = main(["densest", "--dataset", "as_sim", "--scale", "0.3", "--k", "50"])
        assert code == 0
        assert "k>=50" in capsys.readouterr().out

    def test_unknown_backend_errors(self, capsys):
        code = main(["densest", "--dataset", "as_sim", "--scale", "0.3", "--backend", "bogus"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_capability_mismatch_errors(self, capsys):
        code = main(
            ["densest", "--dataset", "twitter_sim", "--scale", "0.1", "--backend", "exact-flow"]
        )
        assert code == 2
        assert "does not solve" in capsys.readouterr().err

    def test_k_on_directed_errors(self, capsys):
        code = main(["densest", "--dataset", "twitter_sim", "--scale", "0.1", "--k", "5"])
        assert code == 2
        assert "undirected" in capsys.readouterr().err


class TestRunDirectedCommand:
    """The Algorithm 3 ratio sweep on the core backend via ``densest``."""

    def test_run_directed(self, capsys):
        code = main(
            ["densest", "--dataset", "twitter_sim", "--scale", "0.1", "--epsilon", "1",
             "--backend", "core"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio c" in out and "|S|, |T|" in out

    def test_on_edge_list(self, tmp_path, capsys):
        g = DirectedGraph([(i, 9) for i in range(6)])
        path = tmp_path / "d.txt"
        write_directed(g, path)
        code = main(
            ["densest", "--edge-list", str(path), "--directed", "--backend", "core"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "density" in out and "ratio c" in out

    def test_undirected_dataset_errors(self, capsys):
        code = main(
            ["densest", "--dataset", "as_sim", "--scale", "0.3", "--ratio", "1"]
        )
        assert code == 2
        assert "directed inputs only" in capsys.readouterr().err


class TestExactCommand:
    """Exact rho* via the exact-lp and exact-flow backends."""

    def _exact_lines(self, path, backend, capsys):
        code = main(["densest", "--edge-list", str(path), "--backend", backend])
        assert code == 0
        out = capsys.readouterr().out
        assert f"backend : {backend} (exact)" in out
        return [
            line.strip() for line in out.splitlines()
            if "density" in line or "size" in line
        ]

    def test_both_solvers_agree(self, tmp_path, capsys):
        g = disjoint_union([clique(5), star(15, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        lp = self._exact_lines(path, "exact-lp", capsys)
        flow = self._exact_lines(path, "exact-flow", capsys)
        assert lp == flow
        assert "density : 2.0000" in lp

    def test_single_solver(self, tmp_path, capsys):
        g = clique(4)
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        lines = self._exact_lines(path, "exact-flow", capsys)
        assert "density : 1.5000" in lines
        assert "size    : 4" in lines


class TestEnumerateCommand:
    def test_enumerates(self, tmp_path, capsys):
        g = disjoint_union([clique(8), clique(6, offset=20)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        code = main(
            ["enumerate", "--edge-list", str(path), "--epsilon", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#1:" in out and "#2:" in out

    def test_directed_dataset_errors(self, capsys):
        code = main(["enumerate", "--dataset", "twitter_sim", "--scale", "0.1"])
        assert code == 2
        assert "is directed; use densest" in capsys.readouterr().err


class TestEdgeListFastPath:
    def test_engine_numpy_reads_csr_directly(self, tmp_path, capsys):
        g = disjoint_union([clique(5), star(20, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        code = main(
            ["densest", "--edge-list", str(path), "--engine", "numpy", "--epsilon", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "density : 2.0000" in out

    def test_core_csr_backend_on_edge_list(self, tmp_path, capsys):
        """The retired ``core-csr`` name still resolves, to ``core``."""
        g = disjoint_union([clique(6), star(10, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        code = main(
            ["densest", "--edge-list", str(path), "--backend", "core-csr", "--epsilon", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend : core\n" in out and "density : 2.5000" in out
        code = main(
            ["densest", "--edge-list", str(path), "--backend", "core-csr",
             "--engine", "native", "--epsilon", "0.1"]
        )
        assert code == 0
        assert "density : 2.5000" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["python", "native"])
    def test_mapreduce_engine_is_pinned(self, tmp_path, capsys, engine):
        g = disjoint_union([clique(6), star(10, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        code = main(
            ["densest", "--edge-list", str(path), "--backend", "mapreduce",
             "--engine", engine]
        )
        assert code == 2
        assert "pinned to the numpy engine" in capsys.readouterr().err
        code = main(
            ["densest", "--edge-list", str(path), "--backend", "mapreduce",
             "--engine", "numpy", "--epsilon", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend : mapreduce" in out and "density : 2.5000" in out

    def test_sketch_engine_is_pinned(self, tmp_path, capsys):
        g = disjoint_union([clique(6), star(10, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        code = main(
            ["densest", "--edge-list", str(path), "--backend", "sketch",
             "--engine", "python"]
        )
        assert code == 2
        assert "pinned to the numpy engine" in capsys.readouterr().err
        code = main(
            ["densest", "--edge-list", str(path), "--backend", "sketch",
             "--engine", "numpy", "--epsilon", "0.1"]
        )
        assert code == 0
        assert "backend : sketch" in capsys.readouterr().out


class TestShardCommand:
    def _edge_list(self, tmp_path):
        g = disjoint_union([clique(5), star(20, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        return path

    def test_shard_then_solve(self, tmp_path, capsys):
        path = self._edge_list(tmp_path)
        store_dir = tmp_path / "store"
        assert main(
            ["shard", "--edge-list", str(path), "--output", str(store_dir), "--shards", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "edges   : 29" in out and "shards  : 4" in out
        code = main(
            ["densest", "--shard-store", str(store_dir), "--epsilon", "0.1",
             "--backend", "streaming"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend : streaming" in out and "density : 2.0000" in out

    def test_shard_store_auto_dispatch(self, tmp_path, capsys):
        path = self._edge_list(tmp_path)
        store_dir = tmp_path / "store"
        assert main(["shard", "--edge-list", str(path), "--output", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["densest", "--shard-store", str(store_dir)]) == 0
        assert "backend : core\n" in capsys.readouterr().out

    def test_spill_dir_pipeline(self, tmp_path, capsys):
        path = self._edge_list(tmp_path)
        code = main(
            ["densest", "--edge-list", str(path), "--spill-dir",
             str(tmp_path / "spill"), "--epsilon", "0.1", "--backend", "streaming"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "density : 2.0000" in out
        # The conversion is reusable: the store is on disk afterwards.
        assert (tmp_path / "spill" / "manifest.json").exists()

    def test_missing_store_errors(self, tmp_path, capsys):
        code = main(["densest", "--shard-store", str(tmp_path / "nope")])
        assert code == 2
        assert "no shard store" in capsys.readouterr().err


class TestWorkersRoundTrip:
    def test_serial_vs_process_same_answer(self, tmp_path, capsys):
        g = disjoint_union([clique(6), star(30, offset=50)])
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        outputs = {}
        for workers in ("1", "2"):
            code = main(
                ["densest", "--edge-list", str(path), "--backend", "mapreduce",
                 "--engine", "numpy", "--epsilon", "0.1", "--workers", workers]
            )
            assert code == 0
            out = capsys.readouterr().out
            outputs[workers] = [
                line for line in out.splitlines()
                if "density" in line or "size" in line or "passes" in line
            ]
        assert outputs["1"] == outputs["2"]


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        code = main(["experiment", "table1", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[table1]" in out

    def test_lowerbound(self, capsys):
        code = main(["experiment", "lowerbound"])
        assert code == 0
        assert "[lowerbound]" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "bogus"])


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
