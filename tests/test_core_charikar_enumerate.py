"""Unit tests for repro.core.charikar and repro.core.enumerate_."""

import pytest

from repro.core.charikar import greedy_densest_subgraph
from repro.core.enumerate_ import enumerate_dense_subgraphs
from repro.core.undirected import densest_subgraph
from repro.errors import EmptyGraphError, ParameterError
from repro.graph.generators import clique, disjoint_union, gnm_random, star
from repro.graph.undirected import UndirectedGraph


class TestGreedyWrapper:
    def test_matches_peeling(self, clique_plus_star):
        result = greedy_densest_subgraph(clique_plus_star)
        assert result.nodes == frozenset(range(5))
        assert result.density == pytest.approx(2.0)

    def test_passes_is_n(self, random_medium):
        result = greedy_densest_subgraph(random_medium)
        assert result.passes == random_medium.num_nodes

    def test_trace_recorded_on_request(self, clique_plus_star):
        with_trace = greedy_densest_subgraph(clique_plus_star, record_trace=True)
        without = greedy_densest_subgraph(clique_plus_star)
        assert len(with_trace.trace) == clique_plus_star.num_nodes
        assert without.trace == ()
        assert with_trace.density == without.density

    def test_trace_consistency(self, random_medium):
        result = greedy_densest_subgraph(random_medium, record_trace=True)
        for i, record in enumerate(result.trace):
            assert record.removed == 1
            if i > 0:
                assert record.nodes_before == result.trace[i - 1].nodes_after

    def test_weighted_trace_reaches_answer(self):
        # A light K5 and a heavy 3-leaf star: the weighted greedy peels
        # the clique first, so the trace must follow that order and its
        # best pass must carry the answer's density exactly.
        g = UndirectedGraph()
        for u in range(5):
            for v in range(u + 1, 5):
                g.add_edge(u, v, 0.1)
        for leaf in (101, 102, 103):
            g.add_edge(100, leaf, 50.0)
        result = greedy_densest_subgraph(g, record_trace=True)
        assert result.nodes == frozenset({100, 101, 102, 103})
        assert result.density == 37.5
        assert result.best_pass == 5
        assert result.trace[result.best_pass - 1].density_after == result.density
        assert result.trace[-1].nodes_after == 0

    def test_edgeless(self):
        g = UndirectedGraph()
        g.add_nodes_from(range(3))
        result = greedy_densest_subgraph(g)
        assert result.density == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyGraphError):
            greedy_densest_subgraph(UndirectedGraph())

    def test_greedy_at_least_as_good_as_batched(self):
        # The one-node-at-a-time greedy sees a superset of the batched
        # algorithm's candidate sets on these graphs, and empirically
        # should never be much worse.
        for seed in range(3):
            g = gnm_random(60, 200, seed=seed)
            greedy = greedy_densest_subgraph(g)
            batched = densest_subgraph(g, 1.0)
            assert greedy.density >= batched.density / (2 + 2) * 2 - 1e-9


class TestEnumerate:
    def test_disjoint_cliques_in_order(self):
        # Densities 3.5, 2.5, 1.5 are separated enough that each run's
        # threshold strips the smaller cliques away cleanly.
        g = disjoint_union(
            [clique(8), clique(6, offset=20), clique(4, offset=40)]
        )
        results = list(enumerate_dense_subgraphs(g, epsilon=0.05))
        assert [r.size for r in results] == [8, 6, 4]
        densities = [r.density for r in results]
        assert densities == sorted(densities, reverse=True)

    def test_node_disjoint(self):
        g = disjoint_union([clique(6), clique(5, offset=20)])
        results = list(enumerate_dense_subgraphs(g, epsilon=0.1))
        seen = set()
        for r in results:
            assert not (seen & set(r.nodes))
            seen |= set(r.nodes)

    def test_max_subgraphs(self):
        g = disjoint_union([clique(8), clique(6, offset=10), clique(4, offset=20)])
        results = list(enumerate_dense_subgraphs(g, 0.05, max_subgraphs=2))
        assert len(results) == 2
        assert [r.size for r in results] == [8, 6]

    def test_min_density_cutoff(self):
        g = disjoint_union([clique(8), star(30, offset=100)])
        results = list(enumerate_dense_subgraphs(g, 0.1, min_density=1.5))
        assert len(results) == 1
        assert results[0].density > 1.5

    def test_input_not_mutated(self, two_cliques):
        before = two_cliques.num_edges
        list(enumerate_dense_subgraphs(two_cliques, 0.5))
        assert two_cliques.num_edges == before

    def test_parameter_validation(self, two_cliques):
        with pytest.raises(ParameterError):
            list(enumerate_dense_subgraphs(two_cliques, 0.5, max_subgraphs=0))
        with pytest.raises(ParameterError):
            list(enumerate_dense_subgraphs(two_cliques, 0.5, min_size=0))
        with pytest.raises(ParameterError):
            list(enumerate_dense_subgraphs(two_cliques, -1.0))
