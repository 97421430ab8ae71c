"""Internal compact array representations used by the peeling loops.

The public graph classes are dict-of-dict structures convenient for
construction and mutation.  The peeling algorithms instead want flat
index-based adjacency so the per-pass scans are tight loops over lists;
these helpers build that representation once per run.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph

Node = Hashable


def drop_killed(alive_nodes: List[int], to_remove: Sequence[int]) -> List[int]:
    """The maintained alive list minus ``to_remove`` (order preserved).

    Shared by the peeling loops that keep an explicit membership list
    so threshold scans cost O(|S|) rather than O(n).
    """
    if not to_remove:
        return alive_nodes
    if len(to_remove) == len(alive_nodes):
        return []
    removed = set(to_remove)
    return [i for i in alive_nodes if i not in removed]


class CompactUndirected:
    """Index-based adjacency snapshot of an undirected graph.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the original node of index i.
    neighbors:
        ``neighbors[i]`` is a list of neighbor indices.
    weights:
        ``weights[i][k]`` is the weight of the edge to ``neighbors[i][k]``.
    total_weight:
        Sum of all edge weights (each edge once).
    num_edges:
        Number of edges (each edge once).
    """

    __slots__ = ("labels", "neighbors", "weights", "total_weight", "num_edges")

    def __init__(self, graph: UndirectedGraph) -> None:
        self.labels: List[Node] = list(graph.nodes())
        index = {node: i for i, node in enumerate(self.labels)}
        self.neighbors: List[List[int]] = [[] for _ in self.labels]
        self.weights: List[List[float]] = [[] for _ in self.labels]
        for u, v, w in graph.weighted_edges():
            ui, vi = index[u], index[v]
            self.neighbors[ui].append(vi)
            self.weights[ui].append(w)
            self.neighbors[vi].append(ui)
            self.weights[vi].append(w)
        self.total_weight: float = graph.total_weight
        self.num_edges: int = graph.num_edges

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.labels)

    def initial_degrees(self) -> List[float]:
        """Weighted degree of every node."""
        return [sum(ws) for ws in self.weights]

    def to_labels(self, indices: Sequence[int]) -> List[Node]:
        """Map indices back to original node labels."""
        return [self.labels[i] for i in indices]


class CompactDirected:
    """Index-based adjacency snapshot of a directed graph."""

    __slots__ = ("labels", "out_neighbors", "out_weights", "in_neighbors", "in_weights", "total_weight")

    def __init__(self, graph: DirectedGraph) -> None:
        self.labels: List[Node] = list(graph.nodes())
        index = {node: i for i, node in enumerate(self.labels)}
        n = len(self.labels)
        self.out_neighbors: List[List[int]] = [[] for _ in range(n)]
        self.out_weights: List[List[float]] = [[] for _ in range(n)]
        self.in_neighbors: List[List[int]] = [[] for _ in range(n)]
        self.in_weights: List[List[float]] = [[] for _ in range(n)]
        for u, v, w in graph.weighted_edges():
            ui, vi = index[u], index[v]
            self.out_neighbors[ui].append(vi)
            self.out_weights[ui].append(w)
            self.in_neighbors[vi].append(ui)
            self.in_weights[vi].append(w)
        self.total_weight: float = graph.total_weight

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.labels)

    def to_labels(self, indices: Sequence[int]) -> List[Node]:
        """Map indices back to original node labels."""
        return [self.labels[i] for i in indices]
