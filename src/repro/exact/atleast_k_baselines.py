"""Baselines for the at-least-k densest subgraph problem.

The paper's Algorithm 2 is compared conceptually against the earlier
sequential algorithms it cites: Andersen–Chellapilla [3] and
Khuller–Saha [26], both built on greedy peeling.  We implement the
peel-suffix baseline those algorithms share:

* :func:`greedy_suffix_atleast_k` — run the exact min-degree peel and
  return the densest *suffix* of the removal order with at least k
  nodes.  This is the Andersen–Chellapilla "densest-core style" greedy;
  it achieves a 3-approximation for ρ*_{≥k} (their Theorem 1 bound) and
  requires O(n) peeling steps — i.e. O(n) streaming passes, which is
  exactly the cost the paper's Algorithm 2 removes.
* :func:`brute_force_atleast_k` — exact ρ*_{≥k} by enumerating node
  subsets; exponential, only for cross-checking on tiny graphs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Set, Tuple

from .._validation import check_positive_int
from ..errors import ParameterError
from ..graph.undirected import UndirectedGraph
from .peeling import charikar_order, suffix_weights

Node = Hashable


def greedy_suffix_atleast_k(
    graph: UndirectedGraph, k: int
) -> Tuple[Set[Node], float]:
    """Densest suffix of the greedy peel with at least k nodes.

    The classical sequential baseline for the size-constrained problem
    (Andersen–Chellapilla style): peel min-degree nodes one at a time
    and keep the best suffix among those of size >= k.

    Raises
    ------
    ParameterError
        If k exceeds the number of nodes.
    """
    check_positive_int(k, "k")
    if k > graph.num_nodes:
        raise ParameterError(
            f"k={k} exceeds the graph's {graph.num_nodes} nodes; no feasible set"
        )
    graph.require_nonempty()
    order = charikar_order(graph)
    weights = suffix_weights(graph, order)

    best_density = -1.0
    best_start = 0
    n = len(order)
    for i in range(n - k, -1, -1):
        density = weights[i] / (n - i)
        if density > best_density:
            best_density = density
            best_start = i
    return set(order[best_start:]), best_density


def brute_force_atleast_k(
    graph: UndirectedGraph, k: int
) -> Tuple[Set[Node], float]:
    """Exact ρ*_{≥k} by subset enumeration (exponential; tiny graphs only).

    Enumerates subsets of size exactly k and above.  Because adding a
    node can only help when its induced degree exceeds the current
    density, the optimum over sizes >= k is attained at some size in
    [k, n]; we enumerate them all.

    Raises
    ------
    ParameterError
        If the graph has more than 16 nodes (guard against accidental
        exponential blowups) or k is infeasible.
    """
    check_positive_int(k, "k")
    n = graph.num_nodes
    if k > n:
        raise ParameterError(f"k={k} exceeds the graph's {n} nodes")
    if n > 16:
        raise ParameterError(
            f"brute force is exponential; refusing n={n} > 16 nodes"
        )
    nodes = list(graph.nodes())
    best: Tuple[Set[Node], float] = (set(), -1.0)
    for size in range(k, n + 1):
        for subset in combinations(nodes, size):
            density = graph.density(subset)
            if density > best[1]:
                best = (set(subset), density)
    return best
