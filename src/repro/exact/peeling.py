"""Charikar's greedy peeling — the classical 2-approximation baselines.

These are the algorithms the paper starts from: remove the single worst
node per step (instead of a whole batch per pass), keeping the best
intermediate subgraph.

* :func:`charikar_peeling` — undirected, exact min-degree peeling.
  Guaranteed ρ(S̃) ≥ ρ*/2; O((n + m) log n) with a lazy heap, or
  O(n + m) for unweighted graphs via bucket peeling.
* :func:`charikar_directed_peeling` — the directed analog at a fixed
  ratio c (2-approximation over sets with that ratio).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Set, Tuple

from .._validation import check_positive_float
from ..graph.cores import peeling_order
from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph

Node = Hashable


def charikar_peeling(graph: UndirectedGraph) -> Tuple[Set[Node], float]:
    """Charikar's greedy 2-approximation for undirected graphs.

    Repeatedly removes a minimum-(weighted-)degree node; returns the
    densest suffix of the removal order.

    Examples
    --------
    >>> from repro.graph.generators import clique, star, disjoint_union
    >>> g = disjoint_union([clique(4), star(20, offset=100)])
    >>> nodes, rho = charikar_peeling(g)
    >>> sorted(nodes), rho
    ([0, 1, 2, 3], 1.5)
    """
    graph.require_nonempty()
    return _best_suffix(graph, charikar_order(graph))


def charikar_order(graph: UndirectedGraph) -> List[Node]:
    """The greedy removal order :func:`charikar_peeling` takes its
    suffixes from: min weighted degree on weighted graphs, the
    Matula–Beck bucket order on unweighted ones."""
    if graph.is_weighted():
        return _weighted_peeling_order(graph)
    return peeling_order(graph)


def suffix_weights(graph: UndirectedGraph, order: List[Node]) -> List[float]:
    """``weights[i]`` is the edge weight inside ``order[i:]`` (so
    ``weights[len(order)]`` is 0.0), summed back to front in O(n + m).

    Every consumer of a greedy order reads its suffix weights from
    here, so a trace of the order and the answer picked from it agree
    to the last bit.
    """
    weights = [0.0] * (len(order) + 1)
    present: Set[Node] = set()
    for i in range(len(order) - 1, -1, -1):
        node = order[i]
        weight_inside = weights[i + 1]
        for nbr in graph.neighbors(node):
            if nbr in present:
                weight_inside += graph.edge_weight(node, nbr)
        present.add(node)
        weights[i] = weight_inside
    return weights


def _weighted_peeling_order(graph: UndirectedGraph) -> List[Node]:
    """Min-weighted-degree removal order via a lazy-deletion heap."""
    wdeg: Dict[Node, float] = {u: graph.weighted_degree(u) for u in graph.nodes()}
    heap: List[Tuple[float, int, Node]] = []
    counter = 0
    for node, d in wdeg.items():
        heap.append((d, counter, node))
        counter += 1
    heapq.heapify(heap)
    removed: Set[Node] = set()
    order: List[Node] = []
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in removed or wdeg[node] != d:
            continue  # stale entry
        removed.add(node)
        order.append(node)
        for nbr in graph.neighbors(node):
            if nbr in removed:
                continue
            wdeg[nbr] -= graph.edge_weight(node, nbr)
            counter += 1
            heapq.heappush(heap, (wdeg[nbr], counter, nbr))
    return order


def _best_suffix(graph: UndirectedGraph, order: List[Node]) -> Tuple[Set[Node], float]:
    """Densest suffix of a removal order, computed back-to-front in O(n + m)."""
    weights = suffix_weights(graph, order)
    n = len(order)
    best_density = 0.0
    best_start = n
    for i in range(n - 1, -1, -1):
        density = weights[i] / (n - i)
        if density > best_density:
            best_density = density
            best_start = i
    return set(order[best_start:]), best_density


def charikar_directed_peeling(
    graph: DirectedGraph, ratio: float
) -> Tuple[Set[Node], Set[Node], float]:
    """Greedy one-node-at-a-time peeling for directed graphs at ratio c.

    Maintains S and T (both starting at V); each step removes the
    minimum-outdegree node from S when |S|/|T| >= c, else the minimum-
    indegree node from T, tracking the best ρ(S, T) pair seen.  This is
    the ε→0 single-node variant of the paper's Algorithm 3.
    """
    graph.require_nonempty()
    check_positive_float(ratio, "ratio")
    s_set: Set[Node] = set(graph.nodes())
    t_set: Set[Node] = set(graph.nodes())
    # out_to_t[i] = |E(i, T)|, in_from_s[j] = |E(S, j)| maintained incrementally.
    out_to_t: Dict[Node, float] = {
        u: graph.weighted_out_degree(u) for u in graph.nodes()
    }
    in_from_s: Dict[Node, float] = {
        u: graph.weighted_in_degree(u) for u in graph.nodes()
    }
    edge_total = graph.total_weight

    best_s: Set[Node] = set(s_set)
    best_t: Set[Node] = set(t_set)
    best_rho = edge_total / math.sqrt(len(s_set) * len(t_set))

    while s_set and t_set:
        if len(s_set) / len(t_set) >= ratio:
            node = min(s_set, key=lambda u: (out_to_t[u], _sort_key(u)))
            s_set.discard(node)
            for v, w in _out_items(graph, node):
                if v in t_set:
                    in_from_s[v] -= w
                    edge_total -= w
        else:
            node = min(t_set, key=lambda u: (in_from_s[u], _sort_key(u)))
            t_set.discard(node)
            for u, w in _in_items(graph, node):
                if u in s_set:
                    out_to_t[u] -= w
                    edge_total -= w
        if s_set and t_set:
            rho = edge_total / math.sqrt(len(s_set) * len(t_set))
            if rho > best_rho:
                best_rho = rho
                best_s = set(s_set)
                best_t = set(t_set)
    return best_s, best_t, best_rho


def _sort_key(node: Node) -> str:
    """Deterministic tie-break independent of hash order."""
    return repr(node)


def _out_items(graph: DirectedGraph, node: Node):
    """(successor, weight) pairs of a node."""
    return ((v, graph.edge_weight(node, v)) for v in graph.successors(node))


def _in_items(graph: DirectedGraph, node: Node):
    """(predecessor, weight) pairs of a node."""
    return ((u, graph.edge_weight(u, node)) for u in graph.predecessors(node))
