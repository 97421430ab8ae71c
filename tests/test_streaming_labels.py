"""Label independence of the semi-streaming engines.

Every engine maps each chunk of edges to dense indices before any
arithmetic — a sorted-array lookup for int64 labels, a dict for any
other hashable — so a relabelled stream must give the same run: the
same node set (mapped back), the same density float, the same trace.
"""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.graph.generators import gnm_random
from repro.streaming.engine import (
    stream_densest_subgraph,
    stream_densest_subgraph_atleast_k,
    stream_densest_subgraph_directed,
)
from repro.streaming.sketch_engine import sketch_densest_subgraph
from repro.streaming.stream import MemoryEdgeStream

N = 300

RELABEL = {
    "str": lambda i: f"v{i}",
    "tuple": lambda i: ("v", i),
    "huge-int": lambda i: 2**70 + i,
}

ENGINES = {
    "densest": lambda s: stream_densest_subgraph(s, 0.3),
    "atleast-k": lambda s: stream_densest_subgraph_atleast_k(s, 2, 0.3),
    "directed": lambda s: stream_densest_subgraph_directed(s, 1.0, 0.3),
    "sketch": lambda s: sketch_densest_subgraph(s, 0.3, buckets=64, seed=5),
}


def _int_edges(weights):
    graph = gnm_random(N, 1500, seed=13)
    edges = [(u, v) for u, v, _ in graph.weighted_edges()]
    if weights == "unit":
        w = [1.0] * len(edges)
    else:  # non-dyadic: float sums depend on accumulation order
        w = np.random.default_rng(3).uniform(0.1, 3.0, len(edges)).tolist()
    return [(u, v, x) for (u, v), x in zip(edges, w)]


def _node_sets(result):
    if hasattr(result, "s_nodes"):
        return result.s_nodes, result.t_nodes
    return (result.nodes,)


@pytest.mark.parametrize("weights", ["unit", "non-dyadic"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("labels", sorted(RELABEL))
def test_relabelled_run_is_identical(labels, engine, weights):
    edges = _int_edges(weights)
    f = RELABEL[labels]
    int_run = ENGINES[engine](MemoryEdgeStream(edges, nodes=range(N)))
    relabelled = ENGINES[engine](
        MemoryEdgeStream(
            [(f(u), f(v), w) for u, v, w in edges], nodes=[f(i) for i in range(N)]
        )
    )
    for got, want in zip(_node_sets(relabelled), _node_sets(int_run)):
        assert got == {f(i) for i in want}
    assert relabelled.density == int_run.density
    assert relabelled.trace == int_run.trace
    assert relabelled.passes == int_run.passes


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "nodes, edges",
    [([0, 1, 2], [(0, 1), (1, 99)]), (["a", "b", "c"], [("a", "b"), ("b", "z")])],
    ids=["int", "str"],
)
def test_unknown_endpoint_is_a_stream_error(engine, nodes, edges):
    with pytest.raises(StreamError, match="outside the node universe"):
        ENGINES[engine](MemoryEdgeStream(edges, nodes=nodes))


def test_permuted_int_universe_maps_labels():
    # The universe {0..n-1} in a non-identity order must still map each
    # label to its own position, not treat labels as dense indices.
    nodes = [4, 3, 2, 1, 0]
    stream = MemoryEdgeStream([(0, 1), (1, 2), (2, 0), (3, 4)], nodes=nodes)
    assert stream_densest_subgraph(stream, 0.0).nodes == {0, 1, 2}
