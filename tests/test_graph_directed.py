"""Unit tests for repro.graph.directed."""

import math

import pytest

from repro.errors import EmptyGraphError, GraphError
from repro.graph.directed import DirectedGraph


class TestConstruction:
    def test_empty(self):
        g = DirectedGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_direction_matters(self):
        g = DirectedGraph([(0, 1)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_antiparallel_edges_distinct(self):
        g = DirectedGraph([(0, 1), (1, 0)])
        assert g.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DirectedGraph([(1, 1)])

    def test_bad_tuple_raises(self):
        with pytest.raises(GraphError):
            DirectedGraph([(0,)])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0])
    def test_non_positive_or_non_finite_weight_rejected(self, weight):
        g = DirectedGraph()
        with pytest.raises(GraphError, match="finite"):
            g.add_edge(0, 1, weight)
        assert g.num_edges == 0

    def test_parallel_accumulate(self):
        g = DirectedGraph([(0, 1, 2.0), (0, 1, 3.0)])
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 5.0


class TestDegrees:
    def test_in_out(self):
        g = DirectedGraph([(0, 1), (0, 2), (2, 0)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 1
        assert g.in_degree(1) == 1
        assert g.out_degree(1) == 0

    def test_weighted_degrees(self):
        g = DirectedGraph([(0, 1, 2.0), (0, 2, 3.0), (2, 0, 1.0)])
        assert g.weighted_out_degree(0) == 5.0
        assert g.weighted_in_degree(0) == 1.0

    def test_missing_node_raises(self):
        g = DirectedGraph([(0, 1)])
        for fn in (g.out_degree, g.in_degree, g.weighted_out_degree, g.weighted_in_degree):
            with pytest.raises(GraphError):
                fn(99)

    def test_successors_predecessors(self):
        g = DirectedGraph([(0, 1), (0, 2), (3, 0)])
        assert set(g.successors(0)) == {1, 2}
        assert set(g.predecessors(0)) == {3}


class TestRemoval:
    def test_remove_node_cleans_both_sides(self):
        g = DirectedGraph([(0, 1), (1, 2), (2, 0)])
        g.remove_node(1)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(2, 0)

    def test_remove_updates_weight(self):
        g = DirectedGraph([(0, 1, 4.0), (1, 2, 6.0)])
        g.remove_node(1)
        assert g.total_weight == 0.0

    def test_remove_missing_raises(self):
        with pytest.raises(GraphError):
            DirectedGraph([(0, 1)]).remove_node(7)


class TestDensity:
    def test_full_density(self, directed_cycle):
        assert directed_cycle.density() == 1.0

    def test_bowtie_best_pair(self, directed_bowtie):
        rho = directed_bowtie.density([0, 1, 2], [10, 11])
        assert rho == pytest.approx(6 / math.sqrt(6))

    def test_asymmetric_sets(self):
        g = DirectedGraph([(0, 10), (1, 10), (2, 10)])
        assert g.density([0, 1, 2], [10]) == pytest.approx(3 / math.sqrt(3))

    def test_empty_side_is_zero(self, directed_cycle):
        assert directed_cycle.density([], [0, 1]) == 0.0
        assert directed_cycle.density([0], []) == 0.0

    def test_edge_count_between(self, directed_bowtie):
        assert directed_bowtie.edge_count_between([0, 1, 2], [10, 11]) == 6
        assert directed_bowtie.edge_count_between([10, 11], [0, 1, 2]) == 0

    def test_edge_weight_between_unknown_raises(self, directed_cycle):
        with pytest.raises(GraphError):
            directed_cycle.edge_weight_between([77], [0])

    def test_overlapping_s_t(self):
        # S and T need not be disjoint (Definition 2).
        g = DirectedGraph([(0, 1), (1, 0)])
        assert g.density([0, 1], [0, 1]) == pytest.approx(1.0)


class TestTransforms:
    def test_subgraph(self, directed_bowtie):
        sub = directed_bowtie.subgraph([0, 1, 10])
        assert sub.num_edges == 2
        assert sub.has_edge(0, 10) and sub.has_edge(1, 10)

    def test_subgraph_unknown_raises(self, directed_cycle):
        with pytest.raises(GraphError):
            directed_cycle.subgraph([0, 999])

    def test_copy_independent(self, directed_cycle):
        clone = directed_cycle.copy()
        clone.remove_node(0)
        assert directed_cycle.num_nodes == 5

    def test_reverse(self):
        g = DirectedGraph([(0, 1, 2.0)])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert not r.has_edge(0, 1)
        assert r.edge_weight(1, 0) == 2.0

    def test_reverse_involution(self, directed_bowtie):
        twice = directed_bowtie.reverse().reverse()
        assert sorted(twice.edges()) == sorted(directed_bowtie.edges())

    def test_to_undirected_merges_antiparallel(self):
        g = DirectedGraph([(0, 1, 2.0), (1, 0, 3.0)])
        u = g.to_undirected()
        assert u.num_edges == 1
        assert u.edge_weight(0, 1) == 5.0

    def test_require_nonempty(self):
        g = DirectedGraph()
        g.add_node(0)
        with pytest.raises(EmptyGraphError):
            g.require_nonempty()
