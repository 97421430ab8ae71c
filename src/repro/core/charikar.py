"""Charikar's greedy baseline, wrapped in the core result type.

Charikar (2000) removes the single minimum-degree node per step and
returns the densest intermediate subgraph — a 2-approximation.  The
paper's Algorithm 1 is the batched relaxation of exactly this greedy;
having both behind the same result type makes the quality-vs-passes
ablation (`benchmarks/test_ablation_batch_vs_greedy.py`) a one-liner.

Note on "passes": the greedy needs one pass over the edges per removal
when run in a streaming fashion, so its pass count equals the number of
nodes — the O(n) cost the paper is designed to avoid.  The trace here
records one :class:`PassRecord` per removal step.
"""

from __future__ import annotations

from typing import Hashable, List

from ..errors import EmptyGraphError
from ..exact.peeling import charikar_order, charikar_peeling, suffix_weights
from ..graph.undirected import UndirectedGraph
from .result import DensestSubgraphResult
from .trace import PassRecord

Node = Hashable


def greedy_densest_subgraph(
    graph: UndirectedGraph, *, record_trace: bool = False
) -> DensestSubgraphResult:
    """Charikar's exact greedy peeling as a :class:`DensestSubgraphResult`.

    Parameters
    ----------
    graph:
        Undirected (optionally weighted) graph with at least one node.
    record_trace:
        When True, record a :class:`PassRecord` per removal step (O(n)
        records); default False keeps the result light.

    Examples
    --------
    >>> from repro.graph.generators import clique, star, disjoint_union
    >>> g = disjoint_union([clique(6), star(50, offset=100)])
    >>> result = greedy_densest_subgraph(g)
    >>> result.density
    2.5
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("graph has no nodes")
    if graph.num_edges == 0:
        return DensestSubgraphResult(
            nodes=frozenset(graph.nodes()),
            density=0.0,
            passes=0,
            epsilon=0.0,
            best_pass=0,
            trace=(),
        )
    nodes, density = charikar_peeling(graph)
    n = graph.num_nodes
    trace: tuple = ()
    best_pass = n - len(nodes)
    if record_trace:
        trace = tuple(_greedy_trace(graph))
    return DensestSubgraphResult(
        nodes=frozenset(nodes),
        density=density,
        passes=n,
        epsilon=0.0,
        best_pass=best_pass,
        trace=trace,
    )


def _greedy_trace(graph: UndirectedGraph) -> List[PassRecord]:
    """Per-removal trace of the greedy peel, replaying the same order
    and suffix weights :func:`charikar_peeling` picks its answer from,
    so ``trace[best_pass - 1].density_after`` is the answer's density."""
    order = charikar_order(graph)
    weights = suffix_weights(graph, order)
    n = len(order)
    return [
        PassRecord(
            pass_index=step,
            nodes_before=n - step + 1,
            edges_before=weights[step - 1],
            density_before=weights[step - 1] / (n - step + 1),
            threshold=weights[step - 1] - weights[step],
            removed=1,
            nodes_after=n - step,
            edges_after=weights[step],
            density_after=weights[step] / (n - step) if step < n else 0.0,
        )
        for step in range(1, n + 1)
    ]
