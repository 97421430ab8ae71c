"""Kernel tier ladder: the compiled engine, its fallback, and the
threaded shard-scan path.

Three contracts:

* The native tier returns *identical* node sets, pass counts, and
  integer trace fields — and float trace fields within reassociation
  noise — to the numpy tier for Algorithms 1–3 (the same convention
  as tests/test_kernels_parity.py).
* Requesting the native engine without a loadable C backend degrades
  to numpy with a :class:`RuntimeWarning` instead of raising; the
  answer is identical.
* ``scan_threads > 1`` on the streaming engines is bit-identical to the
  sequential scan, including the stream's edge/byte accounting.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.api import DensestSubgraph, ExecutionContext, solve
from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed, ratio_sweep
from repro.core.undirected import densest_subgraph
from repro.errors import ParameterError
from repro.graph.directed import DirectedGraph
from repro.graph.undirected import UndirectedGraph
from repro.kernels import (
    AUTO_SIZE_CUTOFF,
    ENGINES,
    NATIVE_SIZE_CUTOFF,
    auto_tier,
    native_backend,
    peel_functions,
    resolve_engine,
    tier_report,
)

EPSILONS = [0.0, 0.1, 0.5]
#: Dyadic weights sum exactly in any order, so cross-tier float trace
#: fields match to the last bit (the ABS slack covers subtractive
#: decrease-key updates in the incremental native tier).
WEIGHTS = [1.0, 0.5, 2.25, 3.0, 0.125]
ABS = 1e-9

#: The compiled tiers loadable in this environment: "native" whenever a
#: C toolchain compiled the kernels.
TIERS = ["native"] if native_backend() is not None else []


def random_undirected(seed, *, weighted):
    rng = random.Random(seed)
    n = rng.randint(2, 70)
    graph = UndirectedGraph()
    graph.add_nodes_from(range(n))
    for _ in range(rng.randint(1, 4 * n)):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v, rng.choice(WEIGHTS) if weighted else 1.0)
    return graph


def random_directed(seed, *, weighted):
    rng = random.Random(seed)
    n = rng.randint(2, 50)
    graph = DirectedGraph()
    graph.add_nodes_from(range(n))
    for _ in range(rng.randint(1, 5 * n)):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v, rng.choice(WEIGHTS) if weighted else 1.0)
    return graph


def assert_result_parity(a, b, directed=False):
    if directed:
        assert a.s_nodes == b.s_nodes
        assert a.t_nodes == b.t_nodes
    else:
        assert a.nodes == b.nodes
    assert a.passes == b.passes
    assert a.best_pass == b.best_pass
    assert a.density == pytest.approx(b.density, abs=ABS)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        for field in dataclasses.fields(ra):
            va, vb = getattr(ra, field.name), getattr(rb, field.name)
            if isinstance(va, float):
                assert va == pytest.approx(vb, abs=ABS), field.name
            else:
                assert va == vb, field.name


# ----------------------------------------------------------------------
# Cross-tier parity (numpy is the reference; python↔numpy is covered by
# test_kernels_parity.py)
# ----------------------------------------------------------------------
class TestTierParity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_algorithm1(self, tier, epsilon, weighted):
        for seed in range(10):
            graph = random_undirected(seed, weighted=weighted)
            ref = densest_subgraph(graph, epsilon, engine="numpy")
            out = densest_subgraph(graph, epsilon, engine=tier)
            assert_result_parity(ref, out)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_algorithm2(self, tier, epsilon, weighted):
        for seed in range(8):
            graph = random_undirected(seed + 100, weighted=weighted)
            k = random.Random(seed).randint(1, graph.num_nodes)
            ref = densest_subgraph_atleast_k(graph, k, epsilon, engine="numpy")
            out = densest_subgraph_atleast_k(graph, k, epsilon, engine=tier)
            assert_result_parity(ref, out)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("side_rule", ["size_ratio", "max_degree"])
    def test_algorithm3(self, tier, epsilon, side_rule):
        for seed in range(6):
            graph = random_directed(seed, weighted=True)
            ratio = random.Random(seed).choice([0.25, 1.0, 2.0])
            ref = densest_subgraph_directed(
                graph, ratio, epsilon, side_rule=side_rule, engine="numpy"
            )
            out = densest_subgraph_directed(
                graph, ratio, epsilon, side_rule=side_rule, engine=tier
            )
            assert_result_parity(ref, out, directed=True)

    @pytest.mark.parametrize("tier", TIERS)
    def test_ratio_sweep(self, tier):
        graph = random_directed(41, weighted=True)
        ref = ratio_sweep(graph, 0.3, ratios=[0.5, 1.0, 3.0], engine="numpy")
        out = ratio_sweep(graph, 0.3, ratios=[0.5, 1.0, 3.0], engine=tier)
        for a, b in zip(ref.by_ratio, out.by_ratio):
            assert a.ratio == b.ratio
            assert_result_parity(a, b, directed=True)
        assert_result_parity(ref.best, out.best, directed=True)

    @pytest.mark.parametrize("tier", TIERS)
    def test_max_passes_truncation(self, tier):
        graph = random_undirected(99, weighted=True)
        for cap in (1, 2, 3):
            ref = densest_subgraph(graph, 0.5, max_passes=cap, engine="numpy")
            out = densest_subgraph(graph, 0.5, max_passes=cap, engine=tier)
            assert_result_parity(ref, out)

    @pytest.mark.parametrize("tier", TIERS)
    def test_deep_peel_exceeds_initial_trace_capacity(self, tier):
        # ε=0 with k=1 and stop_below_k=False removes exactly one node
        # per pass on a path graph: pass count > the native tier's
        # initial trace buffer, exercising the overflow-retry protocol.
        n = 600
        graph = UndirectedGraph()
        graph.add_nodes_from(range(n))
        for i in range(n - 1):
            graph.add_edge(i, i + 1, 1.0)
        ref = densest_subgraph_atleast_k(
            graph, 1, 0.0, stop_below_k=False, engine="numpy"
        )
        out = densest_subgraph_atleast_k(
            graph, 1, 0.0, stop_below_k=False, engine=tier
        )
        assert ref.passes > 500
        assert_result_parity(ref, out)

    @pytest.mark.parametrize("tier", TIERS)
    def test_solve_front_door(self, tier):
        graph = random_undirected(21, weighted=True)
        problem = DensestSubgraph(graph, epsilon=0.2)
        ref = solve(problem, backend="core", engine="numpy")
        out = solve(problem, backend="core", engine=tier)
        assert ref.nodes == out.nodes
        assert ref.density == pytest.approx(out.density, abs=ABS)


# ----------------------------------------------------------------------
# Graceful degradation when the compiled backend is unavailable
# ----------------------------------------------------------------------
class TestCompiledFallback:
    def _force_off(self, monkeypatch):
        from repro.kernels import native

        monkeypatch.setenv("REPRO_NATIVE", "off")
        native.reset_backend_cache()

    def _restore(self):
        from repro.kernels import native

        native.reset_backend_cache()

    def test_no_backend_falls_back_to_numpy(self, monkeypatch):
        self._force_off(monkeypatch)
        try:
            with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
                assert resolve_engine("native") == "numpy"
        finally:
            self._restore()

    def test_peel_runs_on_fallback_tier(self, monkeypatch):
        graph = random_undirected(3, weighted=True)
        ref = densest_subgraph(graph, 0.5, engine="numpy")
        self._force_off(monkeypatch)
        try:
            with pytest.warns(RuntimeWarning):
                out = densest_subgraph(graph, 0.5, engine="native")
        finally:
            self._restore()
        assert_result_parity(ref, out)

    def test_native_wrappers_fall_back_to_numpy(self, monkeypatch):
        from repro.kernels import CSRDigraph, CSRGraph, native, peel

        undirected = CSRGraph.from_undirected(random_undirected(5, weighted=True))
        directed = CSRDigraph.from_directed(random_directed(5, weighted=True))

        def run_all(mod):
            return (
                mod.peel_undirected(undirected, 0.1),
                mod.peel_atleast_k(undirected, 3, 0.1),
                mod.peel_directed(directed, 0.5, 0.1),
            )

        refs = run_all(peel)
        self._force_off(monkeypatch)
        try:
            outs = run_all(native)
        finally:
            self._restore()
        for ref, out in zip(refs, outs):
            for field in ("best_indices", "best_s", "best_t"):
                if hasattr(ref, field):
                    assert np.array_equal(getattr(out, field), getattr(ref, field))
            assert out.best_density == ref.best_density
            assert out.passes == ref.passes
            assert out.trace == ref.trace

    def test_auto_skips_native_without_backend(self, monkeypatch):
        self._force_off(monkeypatch)
        try:
            assert auto_tier(NATIVE_SIZE_CUTOFF) == "numpy"
            assert auto_tier(1 << 24) == "numpy"
        finally:
            self._restore()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError, match="engine must be one of"):
            resolve_engine("cython")

    @pytest.mark.parametrize("engine", ["bucketq", "numba"])
    def test_removed_engine_rejected(self, engine):
        with pytest.raises(ParameterError, match="engine must be one of"):
            resolve_engine(engine)
        with pytest.raises(ParameterError, match="engine must be one of"):
            densest_subgraph(random_undirected(1, weighted=False), 0.5, engine=engine)

    @pytest.mark.parametrize("mode", ["on", "c"])
    def test_unknown_native_mode_rejected(self, monkeypatch, mode):
        from repro.kernels import native

        monkeypatch.setenv("REPRO_NATIVE", mode)
        native.reset_backend_cache()
        try:
            with pytest.raises(ParameterError, match=r"\('auto', 'off'\)"):
                native_backend()
        finally:
            self._restore()


# ----------------------------------------------------------------------
# Ladder and report
# ----------------------------------------------------------------------
class TestTierReport:
    def test_report_shape(self):
        report = tier_report()
        assert set(report) == {
            "python", "numpy", "native", "native_backend", "auto_ladder"
        }
        assert report["python"] is True
        assert report["numpy"] is True
        assert report["native"] == (native_backend() is not None)
        assert report["native_backend"] in (None, "c")
        assert report["auto_ladder"] == {
            "native_cutoff": NATIVE_SIZE_CUTOFF,
            "numpy_label_cutoff": AUTO_SIZE_CUTOFF,
        }

    def test_report_auto_pick(self):
        small = tier_report(num_nodes=10)
        assert small["auto_pick"] == "numpy"
        big = tier_report(num_nodes=NATIVE_SIZE_CUTOFF)
        assert big["auto_pick"] == auto_tier(NATIVE_SIZE_CUTOFF)

    def test_auto_ladder_by_size(self):
        assert auto_tier(10) == "numpy"
        assert auto_tier(NATIVE_SIZE_CUTOFF - 1) == "numpy"
        expected_big = "native" if native_backend() is not None else "numpy"
        assert auto_tier(NATIVE_SIZE_CUTOFF) == expected_big

    def test_engines_tuple_is_public_contract(self):
        assert ENGINES == ("auto", "python", "numpy", "native")

    def test_peel_functions_exposes_uniform_surface(self):
        for tier in ("numpy", "native"):
            mod = peel_functions(tier)
            for fn in (
                "peel_undirected",
                "peel_atleast_k",
                "peel_directed",
                "peel_directed_sweep",
            ):
                assert callable(getattr(mod, fn))

    def test_backends_verbose_cli(self, capsys):
        from repro.cli import main

        assert main(["backends", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "kernel tiers" in out
        section = out.split("kernel tiers")[1].split("engine=auto ladder")[0]
        listed = [line.split()[0] for line in section.splitlines()[1:] if line]
        assert listed == ["python", "numpy", "native"]

    def test_stats_reports_kernel_tiers(self, tmp_path):
        from repro.serve.app import DensestService
        from repro.serve.catalog import ResultCatalog

        service = DensestService(ResultCatalog(tmp_path / "catalog.sqlite"))
        try:
            payload = service.stats()
        finally:
            service.close()
        tiers = payload["kernel_tiers"]
        assert tiers is not None and tiers["numpy"] is True
        assert tiers["native"] == (native_backend() is not None)


# ----------------------------------------------------------------------
# Threaded shard scans
# ----------------------------------------------------------------------
def _write_store(tmp_path, *, directed, seed=7, n=400, m=6000, shards=5):
    from repro.store import ShardedEdgeStore

    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    w = np.ones(u.size, dtype=np.float64)
    return ShardedEdgeStore.write(
        str(tmp_path), (u, v, w), directed=directed, num_shards=shards, num_nodes=n
    )


class TestThreadedShardScans:
    @pytest.mark.parametrize("compaction", [None, True])
    def test_undirected_threaded_matches_sequential(self, tmp_path, compaction):
        from repro.streaming.engine import stream_densest_subgraph
        from repro.streaming.stream import ShardEdgeStream

        store = _write_store(tmp_path / "a", directed=False)
        s1 = ShardEdgeStream(store)
        s2 = ShardEdgeStream(store)
        seq = stream_densest_subgraph(s1, 0.3, compaction=compaction)
        par = stream_densest_subgraph(
            s2, 0.3, compaction=compaction, scan_threads=3
        )
        assert_result_parity(seq, par)
        assert s1.accounting.passes_made == s2.accounting.passes_made
        assert s1.accounting.edges_streamed == s2.accounting.edges_streamed
        assert s1.accounting.bytes_scanned == s2.accounting.bytes_scanned

    def test_atleast_k_threaded_matches_sequential(self, tmp_path):
        from repro.streaming.engine import stream_densest_subgraph_atleast_k
        from repro.streaming.stream import ShardEdgeStream

        store = _write_store(tmp_path / "a", directed=False)
        s1 = ShardEdgeStream(store)
        s2 = ShardEdgeStream(store)
        seq = stream_densest_subgraph_atleast_k(s1, 25, 0.3)
        par = stream_densest_subgraph_atleast_k(s2, 25, 0.3, scan_threads=2)
        assert_result_parity(seq, par)
        assert s1.accounting.edges_streamed == s2.accounting.edges_streamed

    def test_directed_threaded_matches_sequential(self, tmp_path):
        from repro.streaming.engine import stream_densest_subgraph_directed
        from repro.streaming.stream import ShardEdgeStream

        store = _write_store(tmp_path / "a", directed=True)
        s1 = ShardEdgeStream(store)
        s2 = ShardEdgeStream(store)
        seq = stream_densest_subgraph_directed(s1, 1.0, 0.3)
        par = stream_densest_subgraph_directed(s2, 1.0, 0.3, scan_threads=3)
        assert_result_parity(seq, par, directed=True)
        assert s1.accounting.edges_streamed == s2.accounting.edges_streamed
        assert s1.accounting.bytes_scanned == s2.accounting.bytes_scanned

    def test_sweep_threaded_matches_sequential(self, tmp_path):
        from repro.streaming.stream import ShardEdgeStream
        from repro.streaming.sweep import stream_ratio_sweep

        store = _write_store(tmp_path / "a", directed=True)
        s1 = ShardEdgeStream(store)
        s2 = ShardEdgeStream(store)
        seq = stream_ratio_sweep(s1, 0.5, ratios=[0.5, 1.0, 2.0])
        par = stream_ratio_sweep(s2, 0.5, ratios=[0.5, 1.0, 2.0], scan_threads=2)
        for a, b in zip(seq.by_ratio, par.by_ratio):
            assert_result_parity(a, b, directed=True)
        assert s1.accounting.edges_streamed == s2.accounting.edges_streamed

    def test_context_workers_enables_threads_via_solve(self, tmp_path):
        store = _write_store(tmp_path / "a", directed=False)
        problem = DensestSubgraph(store, epsilon=0.4)
        seq = solve(problem, backend="streaming")
        par = solve(
            problem, backend="streaming", context=ExecutionContext(workers=3)
        )
        assert seq.nodes == par.nodes
        assert seq.density == pytest.approx(par.density, abs=ABS)
        assert seq.cost.edges_streamed == par.cost.edges_streamed
        assert seq.cost.bytes_scanned == par.cost.bytes_scanned

    def test_non_shard_streams_ignore_scan_threads(self):
        from repro.streaming.engine import stream_densest_subgraph
        from repro.streaming.stream import MemoryEdgeStream

        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
        seq = stream_densest_subgraph(MemoryEdgeStream(edges), 0.5)
        par = stream_densest_subgraph(MemoryEdgeStream(edges), 0.5, scan_threads=4)
        assert_result_parity(seq, par)
