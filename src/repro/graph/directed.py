"""Weighted directed graphs.

Stores separate out- and in-adjacency maps so both out-degree and
in-degree queries are O(1) in the number of neighbors — Algorithm 3 of
the paper needs fast access to both sides.

Density follows Definition 2 (Kannan–Vinay): for node sets S and T (not
necessarily disjoint), ``rho(S, T) = w(E(S, T)) / sqrt(|S| * |T|)``
where ``E(S, T)`` is the set of edges going from S to T.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from .._validation import check_edge_weights
from ..errors import EmptyGraphError, GraphError

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, float]


class DirectedGraph:
    """A weighted, simple, directed graph.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples;
        ``(u, v)`` means an edge *from* ``u`` *to* ``v``.

    Examples
    --------
    >>> g = DirectedGraph([(0, 1), (1, 0), (0, 2)])
    >>> g.out_degree(0), g.in_degree(0)
    (2, 1)
    """

    __slots__ = ("_out", "_in", "_num_edges", "_total_weight", "_mutations")

    def __init__(self, edges: Optional[Iterable] = None) -> None:
        self._out: Dict[Node, Dict[Node, float]] = {}
        self._in: Dict[Node, Dict[Node, float]] = {}
        self._num_edges: int = 0
        self._total_weight: float = 0.0
        # Monotone edit counter; snapshot caches key on it (see
        # UndirectedGraph).
        self._mutations: int = 0
        if edges is not None:
            self.add_edges_from(edges)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add an isolated node (no-op if present)."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Add many nodes at once."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the directed edge ``u -> v``; repeated adds accumulate weight.

        Self-loops are allowed in directed graphs (a node may follow
        itself in principle) but are rejected here for parity with the
        paper's simple-graph setting.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u!r})")
        check_edge_weights(weight, GraphError)
        self.add_node(u)
        self.add_node(v)
        if v in self._out[u]:
            self._out[u][v] += weight
            self._in[v][u] += weight
        else:
            self._out[u][v] = weight
            self._in[v][u] = weight
            self._num_edges += 1
        self._total_weight += weight
        self._mutations += 1

    def add_edges_from(self, edges: Iterable) -> None:
        """Add ``(u, v)`` or ``(u, v, weight)`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            elif len(edge) == 3:
                self.add_edge(edge[0], edge[1], edge[2])
            else:
                raise GraphError(f"edges must be 2- or 3-tuples, got {edge!r}")

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident (in and out) edges."""
        if node not in self._out:
            raise GraphError(f"node {node!r} not in graph")
        for v, w in self._out.pop(node).items():
            del self._in[v][node]
            self._num_edges -= 1
            self._total_weight -= w
        for u, w in self._in.pop(node).items():
            del self._out[u][node]
            self._num_edges -= 1
            self._total_weight -= w
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
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return self._total_weight

    def __len__(self) -> int:
        return len(self._out)

    def __contains__(self, node: Node) -> bool:
        return node in self._out

    def __iter__(self) -> Iterator[Node]:
        return iter(self._out)

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes."""
        return iter(self._out)

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if the directed edge ``u -> v`` exists."""
        return u in self._out and v in self._out[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over directed edges ``(u, v)``."""
        for u, nbrs in self._out.items():
            for v in nbrs:
                yield (u, v)

    def weighted_edges(self) -> Iterator[WeightedEdge]:
        """Iterate over ``(u, v, weight)`` triples."""
        for u, nbrs in self._out.items():
            for v, w in nbrs.items():
                yield (u, v, w)

    def successors(self, node: Node) -> Iterator[Node]:
        """Iterate over out-neighbors of ``node``."""
        try:
            return iter(self._out[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Iterate over in-neighbors of ``node``."""
        try:
            return iter(self._in[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def out_degree(self, node: Node) -> int:
        """Number of out-neighbors."""
        try:
            return len(self._out[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def in_degree(self, node: Node) -> int:
        """Number of in-neighbors."""
        try:
            return len(self._in[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def weighted_out_degree(self, node: Node) -> float:
        """Total weight of out-edges."""
        try:
            return sum(self._out[node].values())
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def weighted_in_degree(self, node: Node) -> float:
        """Total weight of in-edges."""
        try:
            return sum(self._in[node].values())
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of directed edge ``u -> v`` (raises if absent)."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r} -> {v!r}) not in graph")
        return self._out[u][v]

    # ------------------------------------------------------------------
    # Density / induced structures
    # ------------------------------------------------------------------
    def edge_weight_between(self, sources: Iterable[Node], targets: Iterable[Node]) -> float:
        """Total weight of edges from ``sources`` to ``targets`` (w(E(S,T)))."""
        s_set = set(sources)
        t_set = set(targets)
        total = 0.0
        for u in s_set:
            nbrs = self._out.get(u)
            if nbrs is None:
                raise GraphError(f"node {u!r} not in graph")
            for v, w in nbrs.items():
                if v in t_set:
                    total += w
        return total

    def edge_count_between(self, sources: Iterable[Node], targets: Iterable[Node]) -> int:
        """Number of edges from ``sources`` to ``targets`` (|E(S,T)|)."""
        s_set = set(sources)
        t_set = set(targets)
        count = 0
        for u in s_set:
            nbrs = self._out.get(u)
            if nbrs is None:
                raise GraphError(f"node {u!r} not in graph")
            for v in nbrs:
                if v in t_set:
                    count += 1
        return count

    def density(
        self,
        sources: Optional[Iterable[Node]] = None,
        targets: Optional[Iterable[Node]] = None,
    ) -> float:
        """Directed density ``rho(S, T)`` (Definition 2).

        With both arguments omitted, uses S = T = V.  The density of an
        empty S or T is defined to be 0.
        """
        s_set = set(self._out) if sources is None else set(sources)
        t_set = set(self._out) if targets is None else set(targets)
        if not s_set or not t_set:
            return 0.0
        return self.edge_weight_between(s_set, t_set) / math.sqrt(len(s_set) * len(t_set))

    def subgraph(self, nodes: Iterable[Node]) -> "DirectedGraph":
        """Materialize the induced subgraph on ``nodes``."""
        node_set = set(nodes)
        sub = DirectedGraph()
        for node in node_set:
            if node not in self._out:
                raise GraphError(f"node {node!r} not in graph")
            sub.add_node(node)
        for u in node_set:
            for v, w in self._out[u].items():
                if v in node_set:
                    sub.add_edge(u, v, w)
        return sub

    def copy(self) -> "DirectedGraph":
        """Deep copy of the graph."""
        clone = DirectedGraph()
        clone._out = {u: dict(nbrs) for u, nbrs in self._out.items()}
        clone._in = {u: dict(nbrs) for u, nbrs in self._in.items()}
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        clone._mutations = 0
        return clone

    def to_undirected(self) -> "UndirectedGraph":
        """Collapse edge directions (weights of antiparallel edges add)."""
        from .undirected import UndirectedGraph

        g = UndirectedGraph()
        g.add_nodes_from(self.nodes())
        for u, v, w in self.weighted_edges():
            g.add_edge(u, v, w)
        return g

    def reverse(self) -> "DirectedGraph":
        """Graph with every edge direction flipped."""
        clone = DirectedGraph()
        clone._out = {u: dict(nbrs) for u, nbrs in self._in.items()}
        clone._in = {u: dict(nbrs) for u, nbrs in self._out.items()}
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        clone._mutations = 0
        return clone

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyGraphError` unless the graph has an edge."""
        if self._num_edges == 0:
            raise EmptyGraphError("graph has no edges")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DirectedGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, total_weight={self.total_weight:g})"
        )


# Imported late to avoid a cycle at module import time.
from .undirected import UndirectedGraph  # noqa: E402
