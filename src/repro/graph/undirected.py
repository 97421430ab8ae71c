"""Weighted undirected graphs.

The graph stores an adjacency map ``{node: {neighbor: weight}}``.  Nodes
can be any hashable objects.  Self-loops are rejected (the paper's
density definition counts edges between *pairs* of nodes) and parallel
edges collapse onto a single weighted edge.

Density follows Definition 1 of the paper: for a node set S,
``rho(S) = w(E(S)) / |S|`` where ``w(E(S))`` is the total weight of
edges with both endpoints in S (each undirected edge counted once).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from .._validation import check_edge_weights
from ..errors import EmptyGraphError, GraphError

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, float]


class UndirectedGraph:
    """A weighted, simple, undirected graph.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples used
        to populate the graph.

    Examples
    --------
    >>> g = UndirectedGraph([(0, 1), (1, 2), (0, 2)])
    >>> g.num_nodes, g.num_edges
    (3, 3)
    >>> g.density()
    1.0
    """

    __slots__ = ("_adj", "_num_edges", "_total_weight", "_mutations")

    def __init__(self, edges: Optional[Iterable] = None) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        self._num_edges: int = 0
        self._total_weight: float = 0.0
        # Monotone edit counter; snapshot caches (e.g. the stream
        # views' vectorized pass arrays) key on it for invalidation.
        self._mutations: int = 0
        if edges is not None:
            self.add_edges_from(edges)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add an isolated node (no-op if it already exists)."""
        if node not in self._adj:
            self._adj[node] = {}

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Add many nodes at once."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the edge ``(u, v)``, creating endpoints as needed.

        Adding an edge that already exists *accumulates* its weight; this
        makes streaming a multigraph edge list equivalent to streaming
        the collapsed weighted graph.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loop) or ``weight`` is not a positive
            finite number.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u!r})")
        check_edge_weights(weight, GraphError)
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            self._adj[u][v] += weight
            self._adj[v][u] += weight
        else:
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._num_edges += 1
        self._total_weight += weight
        self._mutations += 1

    def add_edges_from(self, edges: Iterable) -> None:
        """Add ``(u, v)`` or ``(u, v, weight)`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                self.add_edge(u, v)
            elif len(edge) == 3:
                u, v, w = edge
                self.add_edge(u, v, w)
            else:
                raise GraphError(f"edges must be 2- or 3-tuples, got {edge!r}")

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges.

        Raises
        ------
        GraphError
            If the node is not present.
        """
        try:
            neighbors = self._adj.pop(node)
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None
        for neighbor, weight in neighbors.items():
            del self._adj[neighbor][node]
            self._num_edges -= 1
            self._total_weight -= weight
        self._mutations += 1

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Remove many nodes (all must exist)."""
        for node in list(nodes):
            self.remove_node(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of distinct edges (parallel edges collapsed)."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (each edge counted once)."""
        return self._total_weight

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes."""
        return iter(self._adj)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return True if the edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once with ``u <= v`` ordering
        by first-seen insertion (exact tie order unspecified)."""
        seen: Set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def weighted_edges(self) -> Iterator[WeightedEdge]:
        """Iterate over ``(u, v, weight)`` triples, each edge once."""
        seen: Set[Node] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        try:
            return iter(self._adj[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def degree(self, node: Node) -> int:
        """Number of distinct neighbors of ``node``."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def weighted_degree(self, node: Node) -> float:
        """Total weight of edges incident to ``node``."""
        try:
            return sum(self._adj[node].values())
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``(u, v)``.

        Raises
        ------
        GraphError
            If the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        return self._adj[u][v]

    def is_weighted(self) -> bool:
        """True if any edge weight differs from 1."""
        return any(w != 1.0 for _, _, w in self.weighted_edges())

    # ------------------------------------------------------------------
    # Density / induced subgraphs
    # ------------------------------------------------------------------
    def induced_edge_weight(self, nodes: Iterable[Node]) -> float:
        """Total weight of edges with both endpoints in ``nodes``."""
        node_set = set(nodes)
        total = 0.0
        # Iterate over the smaller side for speed.
        for u in node_set:
            nbrs = self._adj.get(u)
            if nbrs is None:
                raise GraphError(f"node {u!r} not in graph")
            for v, w in nbrs.items():
                if v in node_set:
                    total += w
        return total / 2.0

    def induced_edge_count(self, nodes: Iterable[Node]) -> int:
        """Number of edges with both endpoints in ``nodes``."""
        node_set = set(nodes)
        count = 0
        for u in node_set:
            nbrs = self._adj.get(u)
            if nbrs is None:
                raise GraphError(f"node {u!r} not in graph")
            for v in nbrs:
                if v in node_set:
                    count += 1
        return count // 2

    def density(self, nodes: Optional[Iterable[Node]] = None) -> float:
        """Density ``rho(S) = w(E(S)) / |S|`` (Definition 1).

        With ``nodes=None``, computes the density of the whole graph.
        The density of the empty set is defined to be 0.
        """
        if nodes is None:
            if not self._adj:
                return 0.0
            return self._total_weight / len(self._adj)
        node_set = set(nodes)
        if not node_set:
            return 0.0
        return self.induced_edge_weight(node_set) / len(node_set)

    def subgraph(self, nodes: Iterable[Node]) -> "UndirectedGraph":
        """Materialize the induced subgraph on ``nodes``."""
        node_set = set(nodes)
        sub = UndirectedGraph()
        for node in node_set:
            if node not in self._adj:
                raise GraphError(f"node {node!r} not in graph")
            sub.add_node(node)
        seen: Set[Node] = set()
        for u in node_set:
            for v, w in self._adj[u].items():
                if v in node_set and v not in seen:
                    sub.add_edge(u, v, w)
            seen.add(u)
        return sub

    def copy(self) -> "UndirectedGraph":
        """Deep copy of the graph."""
        clone = UndirectedGraph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        clone._mutations = 0
        return clone

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def degree_sequence(self) -> list:
        """Degrees in non-increasing order."""
        return sorted((len(nbrs) for nbrs in self._adj.values()), reverse=True)

    def average_degree(self) -> float:
        """Average (unweighted) degree; 0 for the empty graph."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyGraphError` unless the graph has an edge."""
        if self._num_edges == 0:
            raise EmptyGraphError("graph has no edges")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UndirectedGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, total_weight={self.total_weight:g})"
        )
