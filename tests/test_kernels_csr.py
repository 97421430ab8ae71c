"""CSR builder round-trip tests: every construction path must agree
with the dict-of-dict graph classes on nodes, edges, weights, degrees,
and totals — including the awkward cases (isolated nodes, parallel
edge collapse under both duplicate policies, self-loop lines, string
labels, empty graphs)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.directed import DirectedGraph
from repro.graph.generators import clique, disjoint_union, gnm_random, star
from repro.graph.undirected import UndirectedGraph
from repro.kernels import CSRDigraph, CSRGraph
from repro.streaming.stream import (
    DirectedGraphEdgeStream,
    GraphEdgeStream,
    MemoryEdgeStream,
)


def assert_csr_matches_graph(csr: CSRGraph, graph: UndirectedGraph) -> None:
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_edges == graph.num_edges
    assert csr.total_weight == pytest.approx(graph.total_weight)
    assert set(csr.labels) == set(graph.nodes())
    for i, node in enumerate(csr.labels):
        assert csr.degrees[i] == pytest.approx(graph.weighted_degree(node))
        row = slice(csr.indptr[i], csr.indptr[i + 1])
        nbrs = {csr.labels[j]: w for j, w in zip(csr.indices[row], csr.weights[row])}
        assert set(nbrs) == set(graph.neighbors(node))
        for v, w in nbrs.items():
            assert w == pytest.approx(graph.edge_weight(node, v))


def assert_dcsr_matches_graph(csr: CSRDigraph, graph: DirectedGraph) -> None:
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_edges == graph.num_edges
    assert csr.total_weight == pytest.approx(graph.total_weight)
    assert set(csr.labels) == set(graph.nodes())
    for i, node in enumerate(csr.labels):
        assert csr.out_degrees[i] == pytest.approx(graph.weighted_out_degree(node))
        assert csr.in_degrees[i] == pytest.approx(graph.weighted_in_degree(node))
        out_row = slice(csr.out_indptr[i], csr.out_indptr[i + 1])
        succ = {csr.labels[j] for j in csr.out_indices[out_row]}
        assert succ == set(graph.successors(node))
        in_row = slice(csr.in_indptr[i], csr.in_indptr[i + 1])
        pred = {csr.labels[j] for j in csr.in_indices[in_row]}
        assert pred == set(graph.predecessors(node))


class TestFromUndirected:
    def test_roundtrip_random_graph(self):
        graph = gnm_random(60, 180, seed=3)
        csr = CSRGraph.from_undirected(graph)
        assert_csr_matches_graph(csr, graph)
        back = csr.to_undirected()
        assert back.num_nodes == graph.num_nodes
        assert back.num_edges == graph.num_edges
        assert set(back.nodes()) == set(graph.nodes())
        for u, v, w in graph.weighted_edges():
            assert back.edge_weight(u, v) == pytest.approx(w)

    def test_weighted_graph(self):
        graph = UndirectedGraph([(0, 1, 2.5), (1, 2, 0.25), (0, 2, 1.0)])
        csr = CSRGraph.from_undirected(graph)
        assert_csr_matches_graph(csr, graph)
        assert csr.total_weight == pytest.approx(3.75)

    def test_isolated_nodes_survive(self):
        graph = UndirectedGraph([(0, 1)])
        graph.add_node(99)
        csr = CSRGraph.from_undirected(graph)
        assert csr.num_nodes == 3
        assert 99 in csr.labels
        i = csr.labels.index(99)
        assert csr.indptr[i] == csr.indptr[i + 1]
        assert csr.degrees[i] == 0.0

    def test_string_labels_fall_back_to_generic_path(self):
        graph = UndirectedGraph([("a", "b", 2.0), ("b", "c", 1.5)])
        csr = CSRGraph.from_undirected(graph)
        assert_csr_matches_graph(csr, graph)
        assert set(csr.to_labels(range(csr.num_nodes))) == {"a", "b", "c"}

    def test_empty_graph(self):
        csr = CSRGraph.from_undirected(UndirectedGraph())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0
        assert csr.total_weight == 0.0

    def test_dtypes(self):
        csr = CSRGraph.from_undirected(clique(5))
        assert csr.indptr.dtype == np.int32
        assert csr.indices.dtype == np.int32
        assert csr.weights.dtype == np.float64


class TestFromEdgeArrays:
    def test_basic_triangle(self):
        csr = CSRGraph.from_edge_arrays([0, 1, 0], [1, 2, 2])
        assert csr.num_nodes == 3
        assert csr.num_edges == 3
        assert csr.total_weight == pytest.approx(3.0)
        assert list(csr.degrees) == [2.0, 2.0, 2.0]

    def test_parallel_edges_sum(self):
        csr = CSRGraph.from_edge_arrays(
            [0, 1, 0], [1, 0, 1], [1.0, 2.0, 0.5], duplicates="sum"
        )
        # (0,1), (1,0), (0,1) all collapse onto one undirected edge.
        assert csr.num_edges == 1
        assert csr.total_weight == pytest.approx(3.5)

    def test_parallel_edges_first(self):
        csr = CSRGraph.from_edge_arrays(
            [0, 1, 0], [1, 0, 1], [1.0, 2.0, 0.5], duplicates="first"
        )
        assert csr.num_edges == 1
        assert csr.total_weight == pytest.approx(1.0)

    def test_first_policy_matches_snap_reader_semantics(self, tmp_path):
        from repro.graph.io import read_edge_arrays, read_undirected

        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n1 0\n1 2 2.5\n2 2\n1 2 9.0\n")
        graph = read_undirected(path)
        src, dst, w = read_edge_arrays(path)
        csr = CSRGraph.from_edge_arrays(src, dst, w, duplicates="first")
        assert_csr_matches_graph(csr, graph)

    def test_self_loops_dropped(self):
        # A loop line neither creates an edge nor (matching the SNAP
        # readers) introduces the node, unless nodes= names it.
        csr = CSRGraph.from_edge_arrays([0, 1, 2], [0, 2, 1])
        assert csr.num_edges == 1
        assert 0 not in csr.labels
        kept = CSRGraph.from_edge_arrays([0, 1, 2], [0, 2, 1], nodes=[0, 1, 2])
        assert kept.num_edges == 1
        assert kept.degrees[kept.labels.index(0)] == 0.0

    def test_num_nodes_allows_isolated_tail(self):
        csr = CSRGraph.from_edge_arrays([0], [1], num_nodes=5)
        assert csr.num_nodes == 5
        assert csr.labels == [0, 1, 2, 3, 4]
        assert csr.num_edges == 1

    def test_num_nodes_range_checked(self):
        with pytest.raises(GraphError, match=r"\[0, 2\)"):
            CSRGraph.from_edge_arrays([0], [5], num_nodes=2)

    def test_num_nodes_rejects_float_ids(self):
        with pytest.raises(GraphError, match="integer id arrays"):
            CSRGraph.from_edge_arrays(
                np.array([0.5]), np.array([1.5]), num_nodes=3
            )

    def test_empty_nodes_universe_with_edges_rejected(self):
        with pytest.raises(GraphError, match="not in nodes"):
            CSRGraph.from_edge_arrays([1], [2], nodes=[])

    def test_explicit_nodes_define_index_order(self):
        csr = CSRGraph.from_edge_arrays(
            [10, 30], [30, 20], nodes=[30, 20, 10, 40]
        )
        assert csr.labels == [30, 20, 10, 40]
        assert csr.num_nodes == 4
        i40 = csr.labels.index(40)
        assert csr.degrees[i40] == 0.0
        i30 = csr.labels.index(30)
        assert csr.degrees[i30] == pytest.approx(2.0)

    def test_unknown_endpoint_rejected_with_explicit_nodes(self):
        with pytest.raises(GraphError, match="not in nodes"):
            CSRGraph.from_edge_arrays([1], [7], nodes=[1, 2, 3])

    def test_string_ids_factorize(self):
        csr = CSRGraph.from_edge_arrays(
            np.array(["a", "b"]), np.array(["b", "c"]), [2.0, 3.0]
        )
        assert sorted(csr.labels) == ["a", "b", "c"]
        assert csr.total_weight == pytest.approx(5.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            CSRGraph.from_edge_arrays([0], [1], [0.0])

    @pytest.mark.parametrize("builder", [CSRGraph, CSRDigraph])
    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, builder, weight):
        with pytest.raises(GraphError, match="finite"):
            builder.from_edge_arrays([0, 1], [1, 2], [1.0, weight])

    def test_bad_duplicates_policy(self):
        with pytest.raises(GraphError, match="duplicates"):
            CSRGraph.from_edge_arrays([0], [1], duplicates="max")

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphError, match="equal length"):
            CSRGraph.from_edge_arrays([0, 1], [1])
        with pytest.raises(GraphError, match="match the edge arrays"):
            CSRGraph.from_edge_arrays([0, 1], [1, 2], [1.0])


class TestFromEdgeStream:
    def test_stream_roundtrip(self):
        graph = disjoint_union([clique(4), star(6, offset=100)])
        csr = CSRGraph.from_edge_stream(GraphEdgeStream(graph))
        assert_csr_matches_graph(csr, graph)

    def test_stream_accumulates_duplicates_like_add_edge(self):
        stream = MemoryEdgeStream([(0, 1, 1.0), (1, 0, 2.0)])
        csr = CSRGraph.from_edge_stream(stream)
        assert csr.num_edges == 1
        assert csr.total_weight == pytest.approx(3.0)

    def test_stream_uses_one_pass_plus_discovery(self):
        stream = MemoryEdgeStream([(0, 1), (1, 2)])
        CSRGraph.from_edge_stream(stream)
        assert stream.passes_made == 2  # discovery + edge pass


class TestCSRDigraph:
    def test_roundtrip_random_digraph(self):
        rng = np.random.default_rng(7)
        graph = DirectedGraph()
        graph.add_nodes_from(range(40))
        for _ in range(150):
            u, v = rng.choice(40, size=2, replace=False)
            graph.add_edge(int(u), int(v), float(rng.integers(1, 4)))
        csr = CSRDigraph.from_directed(graph)
        assert_dcsr_matches_graph(csr, graph)
        back = csr.to_directed()
        assert back.num_edges == graph.num_edges
        for u, v, w in graph.weighted_edges():
            assert back.edge_weight(u, v) == pytest.approx(w)

    def test_orientation_preserved_from_arrays(self):
        csr = CSRDigraph.from_edge_arrays([0, 1], [1, 2], [1.0, 4.0])
        assert csr.num_edges == 2  # (0,1) and (1,2) stay directed
        assert csr.out_degrees[0] == pytest.approx(1.0)
        assert csr.in_degrees[0] == 0.0
        assert csr.in_degrees[2] == pytest.approx(4.0)

    def test_antiparallel_edges_not_collapsed(self):
        csr = CSRDigraph.from_edge_arrays([0, 1], [1, 0])
        assert csr.num_edges == 2

    def test_parallel_directed_edges_sum_and_first(self):
        summed = CSRDigraph.from_edge_arrays([0, 0], [1, 1], [1.0, 2.0])
        assert summed.num_edges == 1
        assert summed.total_weight == pytest.approx(3.0)
        first = CSRDigraph.from_edge_arrays(
            [0, 0], [1, 1], [1.0, 2.0], duplicates="first"
        )
        assert first.total_weight == pytest.approx(1.0)

    def test_stream_roundtrip(self):
        graph = DirectedGraph([(i, (i + 1) % 5, 1.0 + i) for i in range(5)])
        csr = CSRDigraph.from_edge_stream(DirectedGraphEdgeStream(graph))
        assert_dcsr_matches_graph(csr, graph)


class TestGraphProtocol:
    def test_weighted_edges_iterates_each_edge_once(self):
        graph = gnm_random(20, 40, seed=1)
        csr = CSRGraph.from_undirected(graph)
        seen = {}
        for u, v, w in csr.weighted_edges():
            key = (min(u, v), max(u, v))
            assert key not in seen
            seen[key] = w
        assert len(seen) == graph.num_edges

    def test_nodes_iterates_labels(self):
        csr = CSRGraph.from_undirected(clique(4))
        assert sorted(csr.nodes()) == [0, 1, 2, 3]
