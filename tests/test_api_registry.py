"""Tests for the solver registry: lookup, dispatch, and error paths."""

import pytest

from repro.api import (
    Capabilities,
    DensestAtLeastK,
    DensestSubgraph,
    DirectedDensest,
    available_backends,
    backend_names,
    get_backend,
    register,
    select_backend,
    solve,
)
from repro.api import registry as registry_module
from repro.errors import EmptyGraphError, ParameterError, SolverError
from repro.graph.directed import DirectedGraph
from repro.graph.generators import clique, disjoint_union, gnm_random, star
from repro.graph.undirected import UndirectedGraph
from repro.streaming.stream import DirectedGraphEdgeStream, GraphEdgeStream


@pytest.fixture
def small_graph():
    return disjoint_union([clique(6), star(30, offset=100)])


@pytest.fixture
def small_digraph():
    return DirectedGraph([(i, j) for i in range(4) for j in range(4) if i != j])


class TestLookup:
    def test_all_builtin_backends_registered(self):
        assert set(backend_names()) >= {
            "core",
            "streaming",
            "sketch",
            "mapreduce",
            "exact-lp",
            "exact-flow",
            "greedy",
            "exact-bruteforce",
        }

    def test_get_backend_returns_named_solver(self):
        assert get_backend("core").name == "core"

    def test_unknown_backend_raises_solver_error(self, small_graph):
        with pytest.raises(SolverError, match="unknown backend 'bogus'"):
            solve(DensestSubgraph(small_graph), backend="bogus")

    def test_unknown_backend_message_lists_alternatives(self):
        with pytest.raises(SolverError, match="core"):
            get_backend("nope")


class TestCapabilityMismatch:
    def test_wrong_problem_kind_is_a_clear_error(self, small_digraph):
        with pytest.raises(SolverError, match="does not solve 'directed_densest'"):
            solve(DirectedDensest(small_digraph), backend="exact-flow")

    def test_wrong_input_mode_is_a_clear_error(self, small_graph):
        stream = GraphEdgeStream(small_graph)
        with pytest.raises(SolverError, match="does not accept 'stream'"):
            solve(DensestSubgraph(stream), backend="core")

    def test_non_problem_argument(self, small_graph):
        with pytest.raises(SolverError, match="Problem instance"):
            solve(small_graph)

    def test_unsupported_option_is_rejected(self, small_graph):
        with pytest.raises(SolverError, match="unsupported options"):
            solve(DensestSubgraph(small_graph), backend="core", bucketz=7)


class TestProblemValidation:
    def test_directed_graph_rejected_by_undirected_problem(self, small_digraph):
        with pytest.raises(ParameterError, match="use DirectedDensest"):
            DensestSubgraph(small_digraph)

    def test_undirected_graph_rejected_by_directed_problem(self, small_graph):
        with pytest.raises(ParameterError, match="use DensestSubgraph"):
            DirectedDensest(small_graph)

    def test_ratio_and_grid_are_mutually_exclusive(self, small_digraph):
        with pytest.raises(ParameterError, match="not both"):
            DirectedDensest(small_digraph, ratio=1.0, ratio_grid=(0.5, 2.0))

    def test_arbitrary_input_rejected(self):
        with pytest.raises(ParameterError, match="EdgeStream"):
            DensestSubgraph([("a", "b")])

    def test_directed_stream_rejected_by_undirected_problems(self, small_digraph):
        from repro.streaming.stream import DirectedGraphEdgeStream

        stream = DirectedGraphEdgeStream(small_digraph)
        with pytest.raises(ParameterError, match="use DirectedDensest"):
            DensestSubgraph(stream)
        with pytest.raises(ParameterError, match="use DirectedDensest"):
            DensestAtLeastK(stream, k=2)

    def test_undirected_stream_rejected_by_directed_problem(self, small_graph):
        with pytest.raises(ParameterError, match="use DensestSubgraph"):
            DirectedDensest(GraphEdgeStream(small_graph))

    def test_ratio_grid_normalized_sorted_deduped(self, small_digraph):
        problem = DirectedDensest(small_digraph, ratio_grid=(2.0, 0.5, 1.0, 1.0, 0.5))
        assert problem.ratio_grid == (0.5, 1.0, 2.0)
        assert problem.is_sweep


class TestAutoDispatch:
    def test_graph_input_prefers_core(self, small_graph):
        assert select_backend(DensestSubgraph(small_graph)).name == "core"
        assert solve(DensestSubgraph(small_graph)).backend == "core"

    def test_stream_input_prefers_streaming(self, small_graph):
        stream = GraphEdgeStream(small_graph)
        assert select_backend(DensestSubgraph(stream)).name == "streaming"

    def test_tight_budget_falls_back_to_sketch(self):
        # streaming needs ~3n words; the sketch's default shape is ~5k
        # words regardless of n, so a mid-sized budget rules out every
        # O(n)/O(m) backend but keeps the sketch.
        graph = gnm_random(4000, 8000, seed=3)
        problem = DensestSubgraph(graph)
        streaming_words = get_backend("streaming").estimated_memory_words(problem)
        sketch_words = get_backend("sketch").estimated_memory_words(problem)
        budget = (streaming_words + sketch_words) // 2
        assert select_backend(problem, memory_budget=budget).name == "sketch"

    def test_impossible_budget_is_a_clear_error(self, small_graph):
        with pytest.raises(SolverError, match="memory_budget"):
            select_backend(DensestSubgraph(small_graph), memory_budget=1)

    def test_available_backends_respects_budget(self, small_graph):
        problem = DensestSubgraph(small_graph)
        assert available_backends(problem, memory_budget=1) == []
        assert "core" in available_backends(problem)

    def test_directed_stream_dispatches_to_streaming(self, small_digraph):
        from repro.streaming.stream import DirectedGraphEdgeStream

        stream = DirectedGraphEdgeStream(small_digraph)
        solution = solve(DirectedDensest(stream, ratio=1.0))
        assert solution.backend == "streaming"
        assert solution.density > 0


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(SolverError, match="already registered"):

            @register
            class Impostor:
                name = "core"

                def capabilities(self):
                    return Capabilities(
                        problems=frozenset({"densest_subgraph"}),
                        input_modes=frozenset({"graph"}),
                    )

                def solve(self, problem, **options):
                    raise NotImplementedError

                def estimated_memory_words(self, problem):
                    return None

    def test_missing_name_rejected(self):
        with pytest.raises(SolverError, match="must define a string `name`"):

            @register
            class Nameless:
                def capabilities(self):
                    return Capabilities(
                        problems=frozenset({"densest_subgraph"}),
                        input_modes=frozenset({"graph"}),
                    )

                def solve(self, problem, **options):
                    raise NotImplementedError

                def estimated_memory_words(self, problem):
                    return None

    def test_incomplete_protocol_rejected_at_registration(self):
        with pytest.raises(SolverError, match="estimated_memory_words"):

            @register
            class NoEstimate:
                name = "no-estimate-backend"

                def capabilities(self):
                    return Capabilities(
                        problems=frozenset({"densest_subgraph"}),
                        input_modes=frozenset({"graph"}),
                    )

                def solve(self, problem, **options):
                    raise NotImplementedError

    def test_unknown_problem_kind_rejected_at_registration(self):
        with pytest.raises(SolverError, match="unknown problem kinds"):

            @register
            class BadKinds:
                name = "bad-kinds-backend"

                def capabilities(self):
                    return Capabilities(
                        problems=frozenset({"halting_problem"}),
                        input_modes=frozenset({"graph"}),
                    )

                def solve(self, problem, **options):
                    raise NotImplementedError

                def estimated_memory_words(self, problem):
                    return None

    def test_custom_backend_round_trip(self, small_graph):
        @register
        class ConstantSolver:
            name = "test-constant"

            def capabilities(self):
                return Capabilities(
                    problems=frozenset({"densest_subgraph"}),
                    input_modes=frozenset({"graph"}),
                    semantics="test",
                )

            def solve(self, problem, **options):
                from repro.api import Solution

                return Solution(
                    nodes=frozenset(),
                    density=0.0,
                    backend=self.name,
                    problem_kind=problem.kind,
                )

            def estimated_memory_words(self, problem):
                return 1

        try:
            problem = DensestSubgraph(small_graph)
            assert "test-constant" in available_backends(problem)
            assert solve(problem, backend="test-constant").backend == "test-constant"
        finally:
            registry_module._REGISTRY.pop("test-constant", None)


class TestEmptyInput:
    _PROBLEMS = {
        "densest_subgraph": lambda inp: DensestSubgraph(inp),
        "densest_at_least_k": lambda inp: DensestAtLeastK(inp, k=1),
        "directed_densest": lambda inp: DirectedDensest(inp),
    }

    @pytest.mark.parametrize("backend", ["auto", *backend_names()])
    def test_zero_nodes_raise_empty_graph_error(self, backend):
        caps = get_backend("core" if backend == "auto" else backend).capabilities()
        for kind in sorted(caps.problems):
            if kind == "directed_densest":
                graph, stream_cls = DirectedGraph(), DirectedGraphEdgeStream
            else:
                graph, stream_cls = UndirectedGraph(), GraphEdgeStream
            inputs = [graph]
            if "stream" in caps.input_modes:
                inputs.append(stream_cls(graph))
            for inp in inputs:
                with pytest.raises(EmptyGraphError):
                    solve(self._PROBLEMS[kind](inp), backend=backend)


class TestBruteForceGuard:
    def test_bruteforce_refuses_large_graphs(self):
        graph = gnm_random(30, 60, seed=0)
        with pytest.raises(ParameterError, match="exponential"):
            solve(DensestAtLeastK(graph, k=3), backend="exact-bruteforce")
