"""Unit tests for repro.graph.undirected."""

import math

import pytest

from repro.errors import EmptyGraphError, GraphError
from repro.graph.undirected import UndirectedGraph


class TestConstruction:
    def test_empty(self):
        g = UndirectedGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.total_weight == 0.0

    def test_from_pairs(self):
        g = UndirectedGraph([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_weighted_triples(self):
        g = UndirectedGraph([(0, 1, 2.5), (1, 2, 0.5)])
        assert g.total_weight == 3.0

    def test_mixed_tuple_lengths(self):
        g = UndirectedGraph([(0, 1), (1, 2, 3.0)])
        assert g.edge_weight(1, 2) == 3.0
        assert g.edge_weight(0, 1) == 1.0

    def test_bad_tuple_length_raises(self):
        with pytest.raises(GraphError):
            UndirectedGraph([(0, 1, 2, 3)])


class TestMutation:
    def test_add_node_idempotent(self):
        g = UndirectedGraph()
        g.add_node("x")
        g.add_node("x")
        assert g.num_nodes == 1

    def test_add_edge_creates_endpoints(self):
        g = UndirectedGraph()
        g.add_edge(0, 1)
        assert 0 in g and 1 in g

    def test_self_loop_rejected(self):
        g = UndirectedGraph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_nonpositive_weight_rejected(self):
        g = UndirectedGraph()
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        # A NaN weight used to slip past ``weight <= 0`` and hang the
        # peel of solve(DensestSubgraph(g)); an inf one gave density inf.
        from repro.api import DensestSubgraph, solve

        g = UndirectedGraph()
        with pytest.raises(GraphError, match="finite"):
            g.add_edge(0, 1, weight)
        g.add_edge(1, 2)
        assert g.total_weight == 1.0
        assert solve(DensestSubgraph(g)).density == 0.5

    def test_parallel_edges_accumulate_weight(self):
        g = UndirectedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 2.0)
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 3.0
        assert g.total_weight == 3.0

    def test_remove_node(self):
        g = UndirectedGraph([(0, 1), (1, 2), (0, 2)])
        g.remove_node(1)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 1)

    def test_remove_node_updates_weight(self):
        g = UndirectedGraph([(0, 1, 5.0), (1, 2, 3.0)])
        g.remove_node(1)
        assert g.total_weight == 0.0

    def test_remove_missing_node_raises(self):
        g = UndirectedGraph([(0, 1)])
        with pytest.raises(GraphError):
            g.remove_node(99)

    def test_remove_nodes_from(self):
        g = UndirectedGraph([(0, 1), (1, 2), (2, 3)])
        g.remove_nodes_from([0, 3])
        assert set(g.nodes()) == {1, 2}
        assert g.num_edges == 1


class TestQueries:
    def test_degree(self, triangle):
        assert all(triangle.degree(u) == 2 for u in triangle.nodes())

    def test_degree_missing_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.degree(42)

    def test_weighted_degree(self):
        g = UndirectedGraph([(0, 1, 2.0), (0, 2, 3.5)])
        assert g.weighted_degree(0) == 5.5

    def test_neighbors(self, triangle):
        assert set(triangle.neighbors(0)) == {1, 2}

    def test_edges_reported_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 3

    def test_weighted_edges_roundtrip(self):
        g = UndirectedGraph([(0, 1, 2.0), (1, 2, 3.0)])
        total = sum(w for _, _, w in g.weighted_edges())
        assert total == g.total_weight

    def test_edge_weight_missing_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.edge_weight(0, 99)

    def test_is_weighted(self):
        assert not UndirectedGraph([(0, 1)]).is_weighted()
        assert UndirectedGraph([(0, 1, 2.0)]).is_weighted()

    def test_len_iter_contains(self, triangle):
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]
        assert 1 in triangle and 9 not in triangle

    def test_degree_sequence_sorted(self):
        g = UndirectedGraph([(0, 1), (0, 2), (0, 3)])
        assert g.degree_sequence() == [3, 1, 1, 1]

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == 2.0
        assert UndirectedGraph().average_degree() == 0.0


class TestDensity:
    def test_whole_graph(self, triangle):
        assert triangle.density() == 1.0

    def test_empty_graph_density_zero(self):
        assert UndirectedGraph().density() == 0.0

    def test_subset(self, clique_plus_star):
        assert clique_plus_star.density(range(5)) == 2.0

    def test_empty_subset(self, triangle):
        assert triangle.density([]) == 0.0

    def test_weighted_density(self, weighted_pair):
        assert weighted_pair.density(["a", "b"]) == 5.0

    def test_induced_edge_count(self, clique_plus_star):
        assert clique_plus_star.induced_edge_count(range(5)) == 10
        assert clique_plus_star.induced_edge_count([0, 100]) == 0

    def test_induced_unknown_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.induced_edge_weight([0, 77])


class TestSubgraphCopy:
    def test_subgraph(self, clique_plus_star):
        sub = clique_plus_star.subgraph(range(5))
        assert sub.num_nodes == 5
        assert sub.num_edges == 10

    def test_subgraph_keeps_weights(self, weighted_pair):
        sub = weighted_pair.subgraph(["a", "b"])
        assert sub.edge_weight("a", "b") == 10.0

    def test_subgraph_unknown_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph([0, 42])

    def test_subgraph_isolated_nodes_kept(self):
        g = UndirectedGraph([(0, 1)])
        g.add_node(5)
        sub = g.subgraph([0, 5])
        assert sub.num_nodes == 2
        assert sub.num_edges == 0

    def test_copy_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_node(0)
        assert triangle.num_nodes == 3
        assert clone.num_nodes == 2

    def test_copy_preserves_weights(self, weighted_pair):
        clone = weighted_pair.copy()
        assert clone.total_weight == weighted_pair.total_weight


class TestRequireNonempty:
    def test_raises_without_edges(self):
        g = UndirectedGraph()
        g.add_node(0)
        with pytest.raises(EmptyGraphError):
            g.require_nonempty()

    def test_passes_with_edge(self, triangle):
        triangle.require_nonempty()
