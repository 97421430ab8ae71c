"""Property-based tests (hypothesis) for the core invariants.

These are the paper's theorems checked on arbitrary random inputs:

* Lemma 3 / 12: approximation guarantees against the exact optimum;
* Lemma 4 / 13: per-pass progress and pass bounds;
* structural invariants of the graph types and the Count-Sketch.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.exact.goldberg import goldberg_densest_subgraph
from repro.exact.peeling import charikar_peeling
from repro.graph.cores import core_decomposition, d_core
from repro.graph.directed import DirectedGraph
from repro.graph.undirected import UndirectedGraph
from repro.streaming.countsketch import CountSketch
from repro.streaming.engine import stream_densest_subgraph
from repro.streaming.stream import GraphEdgeStream

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def undirected_graphs(draw, max_nodes=16, min_edges=1, max_edges=40):
    """Small arbitrary simple undirected graphs with >= 1 edge."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=min_edges,
            max_size=min(max_edges, len(possible)),
            unique=True,
        )
    )
    graph = UndirectedGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


@st.composite
def weighted_graphs(draw, max_nodes=12, max_edges=30):
    """Small weighted undirected graphs."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(max_edges, len(possible)),
            unique=True,
        )
    )
    graph = UndirectedGraph()
    graph.add_nodes_from(range(n))
    for u, v in pairs:
        weight = draw(
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
        )
        graph.add_edge(u, v, weight)
    return graph


@st.composite
def directed_graphs(draw, max_nodes=12, max_edges=36):
    """Small arbitrary simple directed graphs with >= 1 edge."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(max_edges, len(possible)),
            unique=True,
        )
    )
    graph = DirectedGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


EPSILONS = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0])


# ----------------------------------------------------------------------
# Algorithm 1 invariants
# ----------------------------------------------------------------------
class TestAlgorithm1Properties:
    @given(graph=undirected_graphs(), epsilon=EPSILONS)
    @settings(max_examples=60, deadline=None)
    def test_lemma3_approximation(self, graph, epsilon):
        _, rho_star = goldberg_densest_subgraph(graph)
        result = densest_subgraph(graph, epsilon)
        assert result.density >= rho_star / (2 * (1 + epsilon)) - 1e-9
        assert result.density <= rho_star + 1e-9

    @given(graph=undirected_graphs(), epsilon=EPSILONS)
    @settings(max_examples=60, deadline=None)
    def test_reported_density_is_real(self, graph, epsilon):
        result = densest_subgraph(graph, epsilon)
        assert graph.density(result.nodes) == math.nan or graph.density(
            result.nodes
        ) == result.density or abs(graph.density(result.nodes) - result.density) < 1e-9

    @given(graph=st.one_of(undirected_graphs(), weighted_graphs()), epsilon=EPSILONS)
    @settings(max_examples=40, deadline=None)
    def test_progress_and_termination(self, graph, epsilon):
        result = densest_subgraph(graph, epsilon)
        assert all(r.removed >= 1 for r in result.trace)
        assert result.trace[-1].nodes_after == 0
        assert result.passes <= graph.num_nodes

    @given(graph=undirected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_lemma4_removal_fraction(self, graph):
        epsilon = 0.5
        result = densest_subgraph(graph, epsilon)
        for record in result.trace:
            assert record.removal_fraction > epsilon / (1 + epsilon) - 1e-12

    @given(graph=weighted_graphs(), epsilon=EPSILONS)
    @settings(max_examples=40, deadline=None)
    def test_weighted_guarantee(self, graph, epsilon):
        _, rho_star = goldberg_densest_subgraph(graph)
        result = densest_subgraph(graph, epsilon)
        assert result.density >= rho_star / (2 * (1 + epsilon)) - 1e-6

    @given(graph=undirected_graphs(), epsilon=EPSILONS)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_streaming_equivalence(self, graph, epsilon):
        ref = densest_subgraph(graph, epsilon)
        streamed = stream_densest_subgraph(GraphEdgeStream(graph), epsilon)
        assert streamed.nodes == ref.nodes
        assert abs(streamed.density - ref.density) < 1e-9
        assert streamed.passes == ref.passes


# ----------------------------------------------------------------------
# Charikar peeling invariants
# ----------------------------------------------------------------------
class TestPeelingProperties:
    @given(graph=undirected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_two_approximation(self, graph):
        _, rho_star = goldberg_densest_subgraph(graph)
        _, rho = charikar_peeling(graph)
        assert rho >= rho_star / 2 - 1e-9
        assert rho <= rho_star + 1e-9

    @given(graph=weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_weighted_two_approximation(self, graph):
        _, rho_star = goldberg_densest_subgraph(graph)
        _, rho = charikar_peeling(graph)
        assert rho >= rho_star / 2 - 1e-6


# ----------------------------------------------------------------------
# Algorithm 2 invariants
# ----------------------------------------------------------------------
class TestAlgorithm2Properties:
    @given(graph=undirected_graphs(max_nodes=14), epsilon=EPSILONS, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_size_constraint_and_sanity(self, graph, epsilon, data):
        k = data.draw(st.integers(min_value=1, max_value=graph.num_nodes))
        result = densest_subgraph_atleast_k(graph, k, epsilon)
        assert result.size >= k
        assert abs(graph.density(result.nodes) - result.density) < 1e-9

    @given(graph=undirected_graphs(max_nodes=14))
    @settings(max_examples=30, deadline=None)
    def test_theorem9_against_optimum(self, graph):
        # rho_{>=k} <= rho*; Theorem 9 guarantees >= rho_{>=k}/(3+3eps).
        # We can only verify against rho* when the optimal set is large
        # enough, which gives the sound (never-false-positive) check:
        nodes_star, rho_star = goldberg_densest_subgraph(graph)
        epsilon = 0.5
        k = len(nodes_star)
        result = densest_subgraph_atleast_k(graph, k, epsilon)
        # With k = |S*| the constrained optimum equals rho*, so the
        # (3+3eps) bound applies directly.
        assert result.density >= rho_star / (3 * (1 + epsilon)) - 1e-9


# ----------------------------------------------------------------------
# Algorithm 3 invariants
# ----------------------------------------------------------------------
class TestAlgorithm3Properties:
    @given(graph=directed_graphs(), epsilon=EPSILONS)
    @settings(max_examples=40, deadline=None)
    def test_density_real_and_progress(self, graph, epsilon):
        result = densest_subgraph_directed(graph, ratio=1.0, epsilon=epsilon)
        assert abs(
            graph.density(result.s_nodes, result.t_nodes) - result.density
        ) < 1e-9
        assert all(r.removed >= 1 for r in result.trace)

    @given(graph=directed_graphs(), epsilon=EPSILONS, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_termination_bound(self, graph, epsilon, data):
        ratio = data.draw(st.sampled_from([0.25, 1.0, 4.0]))
        result = densest_subgraph_directed(graph, ratio=ratio, epsilon=epsilon)
        assert result.passes <= 2 * graph.num_nodes


# ----------------------------------------------------------------------
# Core decomposition invariants
# ----------------------------------------------------------------------
class TestCoreProperties:
    @given(graph=undirected_graphs(max_nodes=14))
    @settings(max_examples=50, deadline=None)
    def test_core_numbers_bounded_by_degree(self, graph):
        cores = core_decomposition(graph)
        for node, core in cores.items():
            assert 0 <= core <= graph.degree(node)

    @given(graph=undirected_graphs(max_nodes=14), d=st.integers(0, 6))
    @settings(max_examples=50, deadline=None)
    def test_d_core_induced_degrees(self, graph, d):
        core = d_core(graph, d)
        for u in core:
            induced = sum(1 for v in graph.neighbors(u) if v in core)
            assert induced >= d

    @given(graph=undirected_graphs(max_nodes=14))
    @settings(max_examples=30, deadline=None)
    def test_cores_nested(self, graph):
        # d-cores are nested: C_{d+1} subset of C_d.
        for d in range(0, 5):
            assert d_core(graph, d + 1) <= d_core(graph, d)


# ----------------------------------------------------------------------
# Count-Sketch invariants
# ----------------------------------------------------------------------
class TestCountSketchProperties:
    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 50), st.floats(0.5, 5.0, allow_nan=False)),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_unbiased_on_singletons(self, updates, seed):
        # With one table per bucket domain and no colliding items, the
        # estimate is exact; in general the estimate of a *summed* item
        # is its true count plus collision noise bounded by total mass.
        sketch = CountSketch(tables=5, buckets=512, seed=seed)
        truth: dict = {}
        total = 0.0
        for item, delta in updates:
            sketch.add(item, delta)
            truth[item] = truth.get(item, 0.0) + delta
            total += delta
        for item, count in truth.items():
            assert abs(sketch.estimate(item) - count) <= total + 1e-9

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_clear_resets(self, seed):
        sketch = CountSketch(tables=3, buckets=32, seed=seed)
        sketch.add(1, 5.0)
        sketch.clear()
        assert sketch.estimate(1) == 0.0


# ----------------------------------------------------------------------
# Graph structure invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(graph=undirected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_handshake_lemma(self, graph):
        assert sum(graph.degree(u) for u in graph.nodes()) == 2 * graph.num_edges

    @given(graph=undirected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_density_of_v_is_ratio(self, graph):
        assert graph.density() == graph.total_weight / graph.num_nodes

    @given(graph=directed_graphs())
    @settings(max_examples=50, deadline=None)
    def test_in_out_degree_sums_match(self, graph):
        total_out = sum(graph.out_degree(u) for u in graph.nodes())
        total_in = sum(graph.in_degree(u) for u in graph.nodes())
        assert total_out == total_in == graph.num_edges

    @given(graph=undirected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_subgraph_density_consistency(self, graph):
        nodes = [u for u in graph.nodes() if u % 2 == 0]
        if not nodes:
            return
        sub = graph.subgraph(nodes)
        assert sub.density() == graph.density(nodes)
