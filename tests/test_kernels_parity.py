"""Engine parity: the vectorized CSR kernels must reproduce the pure-
Python peeling loops exactly.

The contract (and what the ``core`` backend's ``engine=`` switch
relies on): identical node sets, identical pass counts and integer
trace fields, and float trace fields equal within a whisker of
float-reassociation noise — the two engines sum the same edge weights
in different orders.  Checked property-style over seeded random
graphs: weighted and unweighted, int- and string-labeled, across
ε ∈ {0, 0.1, 0.5}.
"""

import random

import pytest

from repro.api import DensestAtLeastK, DensestSubgraph, DirectedDensest, solve
from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed, ratio_sweep
from repro.core.undirected import densest_subgraph
from repro.errors import ParameterError
from repro.graph.directed import DirectedGraph
from repro.graph.undirected import UndirectedGraph
from repro.kernels import AUTO_SIZE_CUTOFF, CSRDigraph, CSRGraph, resolve_engine

EPSILONS = [0.0, 0.1, 0.5]
WEIGHTS = [1.0, 0.5, 2.25, 3.0, 0.125]

ABS = 1e-9


def random_undirected(seed, *, weighted, string_labels=False):
    rng = random.Random(seed)
    n = rng.randint(2, 70)
    label = (lambda i: f"n{i}") if string_labels else (lambda i: i)
    graph = UndirectedGraph()
    graph.add_nodes_from(label(i) for i in range(n))
    for _ in range(rng.randint(1, 4 * n)):
        u, v = rng.sample(range(n), 2)
        w = rng.choice(WEIGHTS) if weighted else 1.0
        graph.add_edge(label(u), label(v), w)
    return graph


def random_directed(seed, *, weighted, string_labels=False):
    rng = random.Random(seed)
    n = rng.randint(2, 50)
    label = (lambda i: f"n{i}") if string_labels else (lambda i: i)
    graph = DirectedGraph()
    graph.add_nodes_from(label(i) for i in range(n))
    for _ in range(rng.randint(1, 5 * n)):
        u, v = rng.sample(range(n), 2)
        w = rng.choice(WEIGHTS) if weighted else 1.0
        graph.add_edge(label(u), label(v), w)
    return graph


def assert_undirected_parity(py, np_):
    assert py.nodes == np_.nodes
    assert py.passes == np_.passes
    assert py.best_pass == np_.best_pass
    assert py.density == pytest.approx(np_.density, abs=ABS)
    assert len(py.trace) == len(np_.trace)
    for a, b in zip(py.trace, np_.trace):
        assert a.pass_index == b.pass_index
        assert a.nodes_before == b.nodes_before
        assert a.nodes_after == b.nodes_after
        assert a.removed == b.removed
        assert a.edges_before == pytest.approx(b.edges_before, abs=ABS)
        assert a.edges_after == pytest.approx(b.edges_after, abs=ABS)
        assert a.density_before == pytest.approx(b.density_before, abs=ABS)
        assert a.density_after == pytest.approx(b.density_after, abs=ABS)
        assert a.threshold == pytest.approx(b.threshold, abs=ABS)


def assert_directed_parity(py, np_):
    assert py.s_nodes == np_.s_nodes
    assert py.t_nodes == np_.t_nodes
    assert py.passes == np_.passes
    assert py.best_pass == np_.best_pass
    assert py.density == pytest.approx(np_.density, abs=ABS)
    assert len(py.trace) == len(np_.trace)
    for a, b in zip(py.trace, np_.trace):
        assert a.side == b.side
        assert (a.s_before, a.t_before, a.s_after, a.t_after) == (
            b.s_before,
            b.t_before,
            b.s_after,
            b.t_after,
        )
        assert a.removed == b.removed
        assert a.edges_before == pytest.approx(b.edges_before, abs=ABS)
        assert a.edges_after == pytest.approx(b.edges_after, abs=ABS)
        assert a.threshold == pytest.approx(b.threshold, abs=ABS)


class TestUndirectedParity:
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("string_labels", [False, True])
    def test_algorithm1(self, epsilon, weighted, string_labels):
        for seed in range(12):
            graph = random_undirected(
                seed, weighted=weighted, string_labels=string_labels
            )
            py = densest_subgraph(graph, epsilon, max_passes=400, engine="python")
            np_ = densest_subgraph(graph, epsilon, max_passes=400, engine="numpy")
            assert_undirected_parity(py, np_)

    def test_max_passes_truncation(self):
        graph = random_undirected(99, weighted=True)
        for cap in (1, 2, 3):
            py = densest_subgraph(graph, 0.5, max_passes=cap, engine="python")
            np_ = densest_subgraph(graph, 0.5, max_passes=cap, engine="numpy")
            assert_undirected_parity(py, np_)

    def test_csr_input_matches_graph_input(self):
        graph = random_undirected(5, weighted=True)
        csr = CSRGraph.from_undirected(graph)
        from_graph = densest_subgraph(graph, 0.3, engine="numpy")
        from_csr = densest_subgraph(csr, 0.3, engine="numpy")
        assert_undirected_parity(from_graph, from_csr)


class TestAtLeastKParity:
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_algorithm2(self, epsilon, weighted):
        for seed in range(10):
            graph = random_undirected(seed + 100, weighted=weighted)
            rng = random.Random(seed)
            k = rng.randint(1, graph.num_nodes)
            py = densest_subgraph_atleast_k(graph, k, epsilon, engine="python")
            np_ = densest_subgraph_atleast_k(graph, k, epsilon, engine="numpy")
            assert_undirected_parity(py, np_)

    @pytest.mark.parametrize("stop_below_k", [True, False])
    def test_stop_below_k_variants(self, stop_below_k):
        graph = random_undirected(7, weighted=True)
        py = densest_subgraph_atleast_k(
            graph, 3, 0.4, stop_below_k=stop_below_k, engine="python"
        )
        np_ = densest_subgraph_atleast_k(
            graph, 3, 0.4, stop_below_k=stop_below_k, engine="numpy"
        )
        assert_undirected_parity(py, np_)


class TestDirectedParity:
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("side_rule", ["size_ratio", "max_degree"])
    def test_algorithm3(self, epsilon, weighted, side_rule):
        for seed in range(8):
            graph = random_directed(seed, weighted=weighted)
            ratio = random.Random(seed).choice([0.25, 1.0, 2.0])
            py = densest_subgraph_directed(
                graph, ratio, epsilon, side_rule=side_rule, engine="python"
            )
            np_ = densest_subgraph_directed(
                graph, ratio, epsilon, side_rule=side_rule, engine="numpy"
            )
            assert_directed_parity(py, np_)

    def test_string_labels(self):
        graph = random_directed(3, weighted=True, string_labels=True)
        py = densest_subgraph_directed(graph, 1.0, 0.5, engine="python")
        np_ = densest_subgraph_directed(graph, 1.0, 0.5, engine="numpy")
        assert_directed_parity(py, np_)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_ratio_sweep_shares_one_csr(self, weighted):
        for seed in range(6):
            graph = random_directed(seed + 50, weighted=weighted)
            py = ratio_sweep(graph, 0.5, engine="python")
            np_ = ratio_sweep(graph, 0.5, engine="numpy")
            assert py.delta == np_.delta
            assert len(py.by_ratio) == len(np_.by_ratio)
            for a, b in zip(py.by_ratio, np_.by_ratio):
                assert a.ratio == b.ratio
                assert_directed_parity(a, b)
            assert_directed_parity(py.best, np_.best)

    def test_explicit_ratios(self):
        graph = random_directed(11, weighted=True)
        py = ratio_sweep(graph, 0.3, ratios=[0.5, 1.0, 3.0], engine="python")
        np_ = ratio_sweep(graph, 0.3, ratios=[0.5, 1.0, 3.0], engine="numpy")
        for a, b in zip(py.by_ratio, np_.by_ratio):
            assert_directed_parity(a, b)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        graph = UndirectedGraph([(0, 1)])
        with pytest.raises(ParameterError, match="engine"):
            densest_subgraph(graph, 0.5, engine="cython")

    def test_auto_picks_numpy_for_int_labels(self):
        assert resolve_engine("auto", UndirectedGraph([(0, 1)])) == "numpy"

    def test_auto_picks_python_for_small_string_graphs(self):
        assert resolve_engine("auto", UndirectedGraph([("a", "b")])) == "python"

    def test_auto_picks_numpy_above_size_cutoff(self):
        graph = UndirectedGraph()
        graph.add_nodes_from(f"s{i}" for i in range(AUTO_SIZE_CUTOFF))
        graph.add_edge("s0", "s1")
        assert resolve_engine("auto", graph) == "numpy"

    def test_auto_picks_numpy_for_csr_inputs(self):
        csr = CSRGraph.from_edge_arrays([0], [1])
        assert resolve_engine("auto", csr) == "numpy"

    def test_explicit_engines_pass_through(self):
        graph = UndirectedGraph([(0, 1)])
        assert resolve_engine("python", graph) == "python"
        assert resolve_engine("numpy", graph) == "numpy"

    def test_labels_beyond_int64_fall_back_to_python(self):
        # Ints that don't fit the vectorized index arrays must not be
        # routed to (or crash) the numpy fast paths.
        graph = UndirectedGraph([(2**70, 1), (1, 2)])
        assert resolve_engine("auto", graph) == "python"
        result = densest_subgraph(graph, 0.5)  # engine="auto"
        assert 2**70 in result.nodes or result.density > 0

    def test_stream_with_huge_int_labels(self):
        from repro.streaming.engine import stream_densest_subgraph
        from repro.streaming.stream import MemoryEdgeStream

        stream = MemoryEdgeStream([(2**70, 1, 1.0), (1, 2, 1.0)])
        result = stream_densest_subgraph(stream, 0.5)
        assert result.density > 0

    def test_graph_stream_snapshot_not_served_stale(self):
        # The vectorized pass view caches the graph's edge arrays; a
        # mutation between runs must invalidate the snapshot instead of
        # silently computing on the old edges.
        from repro.streaming.engine import stream_densest_subgraph
        from repro.streaming.stream import GraphEdgeStream

        graph = UndirectedGraph([(0, 1), (1, 2)])
        stream = GraphEdgeStream(graph)
        first = stream_densest_subgraph(stream, 0.5)
        assert first.density == pytest.approx(2 / 3)
        graph.add_edge(0, 2)
        second = stream_densest_subgraph(GraphEdgeStream(graph), 0.5)
        rerun = stream_densest_subgraph(stream, 0.5)
        assert rerun.density == pytest.approx(second.density) == pytest.approx(1.0)

    def test_snapshot_invalidated_even_when_totals_collide(self):
        # A mutation preserving (num_edges, total_weight) must still
        # invalidate the cached pass view (the signature is the graph's
        # mutation counter, not the totals).
        from repro.streaming.engine import stream_densest_subgraph
        from repro.streaming.stream import GraphEdgeStream

        graph = UndirectedGraph([(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
        graph.add_nodes_from(range(7))
        stream = GraphEdgeStream(graph)
        stream_densest_subgraph(stream, 0.5)  # populate the snapshot
        graph.remove_node(1)  # breaks the triangle
        graph.add_edge(4, 5)
        graph.add_edge(4, 6)
        graph.add_edge(5, 3)
        rerun = stream_densest_subgraph(stream, 0.5)
        # Reference over the same (stream-fixed) 7-node universe and
        # the graph's current edges.
        from repro.streaming.stream import MemoryEdgeStream

        reference = stream_densest_subgraph(
            MemoryEdgeStream(list(graph.weighted_edges()), nodes=range(7)), 0.5
        )
        assert rerun.nodes == reference.nodes
        assert rerun.density == pytest.approx(reference.density)


class TestSweepTieBreak:
    def test_pick_best_run_is_first_within_tolerance(self):
        from types import SimpleNamespace

        from repro.core.result import pick_best_run

        runs = [
            SimpleNamespace(density=0.5, ratio=0.25),
            SimpleNamespace(density=0.8164965809277265, ratio=1.0),
            SimpleNamespace(density=0.816496580927726, ratio=2.0),
        ]
        # The two near-identical densities differ by last-ulp noise
        # only; grid order must win so both engines agree.
        assert pick_best_run(runs).ratio == 1.0
        assert pick_best_run(list(reversed(runs))).ratio == 2.0

    def test_pick_best_run_clear_winner(self):
        from types import SimpleNamespace

        from repro.core.result import pick_best_run

        runs = [
            SimpleNamespace(density=0.1, ratio=0.5),
            SimpleNamespace(density=2.0, ratio=1.0),
            SimpleNamespace(density=1.9, ratio=2.0),
        ]
        assert pick_best_run(runs).ratio == 1.0


class TestBackendParity:
    """The engine switch seen through the solve() front door."""

    def _graph(self):
        return random_undirected(21, weighted=True)

    def test_core_engine_option(self):
        graph = self._graph()
        problem = DensestSubgraph(graph, epsilon=0.2)
        py = solve(problem, backend="core", engine="python")
        np_ = solve(problem, backend="core", engine="numpy")
        assert py.nodes == np_.nodes
        assert py.density == pytest.approx(np_.density, abs=ABS)

    def test_core_csr_backend_matches_core(self):
        """``core-csr`` is a retired name: it runs (and reports) ``core``."""
        graph = self._graph()
        problem = DensestSubgraph(graph, epsilon=0.2)
        core = solve(problem, backend="core", engine="python")
        csr = solve(problem, backend="core-csr", engine="native")
        assert csr.backend == "core"
        assert core.nodes == csr.nodes
        assert core.density == pytest.approx(csr.density, abs=ABS)

    def test_core_csr_is_a_lookup_alias(self):
        from repro.api import available_backends, backend_names, get_backend

        assert get_backend("core-csr") is get_backend("core")
        assert "core-csr" not in backend_names()
        assert "core-csr" not in available_backends(DensestSubgraph(self._graph()))

    def test_core_csr_accepts_snapshot_problems(self):
        graph = self._graph()
        snapshot = CSRGraph.from_undirected(graph)
        a = solve(DensestSubgraph(graph, epsilon=0.4), backend="core")
        b = solve(DensestSubgraph(snapshot, epsilon=0.4), backend="core")
        assert a.nodes == b.nodes
        assert a.density == pytest.approx(b.density, abs=ABS)

    def test_directed_snapshot_problem(self):
        graph = random_directed(33, weighted=True)
        snapshot = CSRDigraph.from_directed(graph)
        a = solve(DirectedDensest(graph, ratio=1.0, epsilon=0.5), backend="core")
        b = solve(
            DirectedDensest(snapshot, ratio=1.0, epsilon=0.5), backend="core"
        )
        assert a.s_nodes == b.s_nodes
        assert a.t_nodes == b.t_nodes

    def test_snapshot_problem_on_dict_backend_converts(self):
        graph = self._graph()
        snapshot = CSRGraph.from_undirected(graph)
        a = solve(DensestAtLeastK(graph, k=4, epsilon=0.5), backend="greedy")
        b = solve(DensestAtLeastK(snapshot, k=4, epsilon=0.5), backend="greedy")
        assert a.nodes == b.nodes

    def test_streaming_backend_accepts_snapshot(self):
        graph = self._graph()
        snapshot = CSRGraph.from_undirected(graph)
        a = solve(DensestSubgraph(graph, epsilon=0.5), backend="streaming")
        b = solve(DensestSubgraph(snapshot, epsilon=0.5), backend="streaming")
        assert a.nodes == b.nodes
