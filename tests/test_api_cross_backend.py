"""Cross-backend agreement: every registered backend, same problems.

The paper's §5 claim is that one algorithm runs unchanged under three
execution models; the registry encodes which backends promise *identical*
answers via ``Capabilities.semantics``.  These tests enumerate the
backends through :func:`repro.available_backends` — a backend added
tomorrow is automatically covered.
"""

import pytest

from repro.api import (
    DensestAtLeastK,
    DensestSubgraph,
    DirectedDensest,
    available_backends,
    get_backend,
    solve,
)
from repro.graph.directed import DirectedGraph
from repro.graph.generators import (
    circulant,
    clique,
    disjoint_union,
    gnm_random,
    star,
)
from repro.streaming.stream import GraphEdgeStream


def _by_semantics(problem, semantics):
    return [
        name
        for name in available_backends(problem)
        if get_backend(name).capabilities().semantics == semantics
    ]


UNDIRECTED_GRAPHS = [
    pytest.param(lambda: disjoint_union([clique(6), star(40, offset=100)]), id="clique+star"),
    pytest.param(lambda: gnm_random(60, 180, seed=1), id="gnm-seed1"),
    pytest.param(lambda: gnm_random(80, 160, seed=5), id="gnm-seed5"),
]

DIRECTED_GRAPHS = [
    pytest.param(
        lambda: DirectedGraph([(i, j) for i in range(5) for j in range(5) if i != j]),
        id="complete-5",
    ),
    pytest.param(
        lambda: DirectedGraph(
            [(i, (i * 7 + j) % 40) for i in range(40) for j in range(1, 4) if i != (i * 7 + j) % 40]
        ),
        id="shifted-40",
    ),
]


class TestUndirectedAgreement:
    @pytest.mark.parametrize("make_graph", UNDIRECTED_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_batch_peel_backends_identical(self, make_graph, epsilon):
        graph = make_graph()
        problem = DensestSubgraph(graph, epsilon=epsilon)
        backends = _by_semantics(problem, "batch-peel")
        assert {"core", "streaming", "mapreduce"} <= set(backends)
        reference = solve(problem, backend="core")
        for name in backends:
            solution = solve(problem, backend=name)
            assert solution.nodes == reference.nodes, name
            assert solution.density == pytest.approx(reference.density), name
            assert solution.cost.passes == reference.cost.passes, name

    @pytest.mark.parametrize("make_graph", UNDIRECTED_GRAPHS)
    def test_exact_backends_agree_on_density(self, make_graph):
        graph = make_graph()
        problem = DensestSubgraph(graph)
        backends = _by_semantics(problem, "exact")
        assert {"exact-lp", "exact-flow"} <= set(backends)
        densities = {name: solve(problem, backend=name).density for name in backends}
        values = list(densities.values())
        for value in values[1:]:
            assert value == pytest.approx(values[0], abs=1e-6)

    @pytest.mark.parametrize("make_graph", UNDIRECTED_GRAPHS)
    def test_approximation_guarantee_vs_exact(self, make_graph):
        graph = make_graph()
        epsilon = 0.5
        optimum = solve(DensestSubgraph(graph), backend="exact-flow").density
        problem = DensestSubgraph(graph, epsilon=epsilon)
        for name in available_backends(problem):
            caps = get_backend(name).capabilities()
            if caps.semantics == "sketch-peel":
                continue  # probabilistic; covered by Table 4 tests
            solution = solve(problem, backend=name)
            assert solution.density <= optimum + 1e-9, name
            assert solution.density >= optimum / (2 * (1 + epsilon)) - 1e-9, name

    @pytest.mark.parametrize("make_graph", UNDIRECTED_GRAPHS)
    def test_stream_input_matches_graph_input(self, make_graph):
        graph = make_graph()
        from_graph = solve(DensestSubgraph(graph, epsilon=0.5), backend="streaming")
        from_stream = solve(
            DensestSubgraph(GraphEdgeStream(graph), epsilon=0.5), backend="streaming"
        )
        assert from_stream.nodes == from_graph.nodes
        assert from_stream.density == pytest.approx(from_graph.density)


class TestAtLeastKAgreement:
    @pytest.mark.parametrize(
        "make_graph",
        # The ring is all ties: every pass's batch is decided by the
        # index tie-break alone.
        UNDIRECTED_GRAPHS + [pytest.param(lambda: circulant(50, 2), id="ring-50")],
    )
    @pytest.mark.parametrize("k", [5, 20])
    def test_batch_peel_backends_identical(self, make_graph, k):
        graph = make_graph()
        for epsilon in (0.0, 0.5):
            problem = DensestAtLeastK(graph, k=k, epsilon=epsilon)
            backends = _by_semantics(problem, "batch-peel")
            assert {"core", "streaming", "mapreduce"} <= set(backends)
            reference = solve(problem, backend="core")
            assert reference.size >= k
            for name in backends:
                solution = solve(problem, backend=name)
                label = (name, epsilon)
                assert solution.nodes == reference.nodes, label
                assert solution.density == reference.density, label
                assert solution.cost.passes == reference.cost.passes, label
                assert (
                    solution.densities_by_pass() == reference.densities_by_pass()
                ), label

    def test_greedy_dominated_by_bruteforce(self):
        graph = disjoint_union([clique(5), star(10, offset=50)])
        problem = DensestAtLeastK(graph, k=6)
        exact = solve(problem, backend="exact-bruteforce")
        greedy = solve(problem, backend="greedy")
        assert exact.exact and not greedy.exact
        assert greedy.size >= 6 and exact.size >= 6
        assert greedy.density <= exact.density + 1e-9


class TestDirectedAgreement:
    @pytest.mark.parametrize("make_graph", DIRECTED_GRAPHS)
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_fixed_ratio_batch_peel_identical(self, make_graph, ratio):
        graph = make_graph()
        problem = DirectedDensest(graph, ratio=ratio, epsilon=0.5)
        backends = _by_semantics(problem, "batch-peel")
        assert {"core", "streaming", "mapreduce"} <= set(backends)
        reference = solve(problem, backend="core")
        for name in backends:
            solution = solve(problem, backend=name)
            assert solution.s_nodes == reference.s_nodes, name
            assert solution.t_nodes == reference.t_nodes, name
            assert solution.density == pytest.approx(reference.density), name

    @pytest.mark.parametrize("make_graph", DIRECTED_GRAPHS)
    def test_sweep_batch_peel_identical(self, make_graph):
        graph = make_graph()
        problem = DirectedDensest(graph, epsilon=1.0, delta=2.0)
        backends = _by_semantics(problem, "batch-peel")
        reference = solve(problem, backend="core")
        for name in backends:
            solution = solve(problem, backend=name)
            assert solution.ratio == reference.ratio, name
            assert solution.s_nodes == reference.s_nodes, name
            assert solution.t_nodes == reference.t_nodes, name
            assert solution.density == pytest.approx(reference.density), name

    def test_exact_lp_upper_bounds_peels(self):
        graph = DirectedGraph(
            [(i, j) for i in range(5) for j in range(5) if i != j]
        )
        grid = (0.5, 1.0, 2.0)
        optimum = solve(
            DirectedDensest(graph, ratio_grid=grid), backend="exact-lp"
        ).density
        approx = solve(
            DirectedDensest(graph, ratio_grid=grid, epsilon=0.5), backend="core"
        ).density
        assert approx <= optimum + 1e-9


class TestSolutionShape:
    def test_certificate_matches_trace(self):
        graph = disjoint_union([clique(6), star(40, offset=100)])
        solution = solve(DensestSubgraph(graph, epsilon=0.5), backend="core")
        assert solution.certificate == solution.details.trace
        assert solution.densities_by_pass() == [
            r.density_after for r in solution.details.trace
        ]

    def test_mapreduce_cost_reports_rounds(self):
        graph = disjoint_union([clique(6), star(40, offset=100)])
        solution = solve(DensestSubgraph(graph, epsilon=0.5), backend="mapreduce")
        assert solution.cost.mapreduce_rounds == solution.details.total_rounds()
        assert solution.cost.mapreduce_rounds >= 3 * solution.cost.passes

    def test_streaming_cost_reports_passes(self):
        graph = disjoint_union([clique(6), star(40, offset=100)])
        solution = solve(DensestSubgraph(graph, epsilon=0.5), backend="streaming")
        assert solution.cost.stream_passes >= solution.cost.passes
        assert solution.cost.edges_streamed > 0

    def test_streaming_sweep_charges_accountant(self):
        from repro.streaming.memory import MemoryAccountant
        from repro.streaming.stream import DirectedGraphEdgeStream

        graph = DirectedGraph([(0, 1), (1, 2), (2, 0), (3, 0)])
        accountant = MemoryAccountant()
        solution = solve(
            DirectedDensest(DirectedGraphEdgeStream(graph), epsilon=1.0, delta=2.0),
            backend="streaming",
            accountant=accountant,
        )
        assert accountant.total_words > 0
        assert solution.cost.memory_words == int(accountant.total_words)

    def test_directed_solution_nodes_is_union(self):
        graph = DirectedGraph([(0, 1), (1, 2), (2, 0), (3, 0)])
        solution = solve(DirectedDensest(graph, ratio=1.0), backend="core")
        assert solution.nodes == solution.s_nodes | solution.t_nodes
