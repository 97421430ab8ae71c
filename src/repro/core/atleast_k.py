"""Algorithm 2 — (3+3ε)-approximation for subgraphs of size at least k.

The size-constrained problem (find the densest subgraph with at least k
nodes) is NP-hard; Algorithm 2 modifies Algorithm 1 to remove only the
ε/(1+ε)·|S| *lowest-degree* members of the threshold set Ã(S) each
pass, which guarantees that some intermediate set lands within a
(1+ε) factor of size k.  Theorem 9 proves the (3+3ε) factor, and
Lemma 10 shows the bound improves to (2+2ε) whenever the optimum
itself has more than k nodes.  By Lemma 11 the pass count is
O(log_{1+ε} n/k) since peeling can stop once |S| < k.

Like Algorithm 1, the loop runs on either the interpreted Python
engine or the vectorized CSR kernel
(:func:`repro.kernels.peel.peel_atleast_k`); see the ``engine``
parameter.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional

from .._tolerances import peel_cutoff
from .._validation import check_epsilon, check_positive_int
from ..errors import EmptyGraphError, ParameterError
from ..graph.undirected import UndirectedGraph
from ..kernels import resolve_engine
from ._compact import CompactUndirected, drop_killed
from .result import DensestSubgraphResult
from .trace import PassRecord
from .undirected import _as_csr, _as_dict_graph

Node = Hashable


def densest_subgraph_atleast_k(
    graph: UndirectedGraph,
    k: int,
    epsilon: float = 0.5,
    *,
    stop_below_k: bool = True,
    engine: str = "auto",
) -> DensestSubgraphResult:
    """Run Algorithm 2 on ``graph`` with size lower bound ``k``.

    Parameters
    ----------
    graph:
        Undirected (optionally weighted) graph, or a
        :class:`~repro.kernels.csr.CSRGraph` snapshot.
    k:
        Minimum size of the returned subgraph; must satisfy
        ``1 <= k <= graph.num_nodes``.
    epsilon:
        Slack parameter ε > 0 controlling the removal batch size
        ε/(1+ε)·|S| (rounded down, but at least one node per pass so the
        loop always progresses).  ε = 0 degenerates to removing one node
        per pass (exact greedy peeling restricted to Ã(S)).
    stop_below_k:
        If True (default), stop peeling once |S| < k — no later set can
        qualify, which is what gives the O(log_{1+ε} n/k) pass bound of
        Lemma 11.  Set False to observe the full trajectory.
    engine:
        ``"auto"`` (default), ``"python"``, or ``"numpy"``; both
        engines return identical results.

    Returns
    -------
    DensestSubgraphResult
        The densest intermediate set with |S| ≥ k.  Note: ``nodes`` is
        the *initial* node set V if no smaller qualifying set improved
        on it (V always satisfies the size constraint).

    Raises
    ------
    ParameterError
        If ``k`` exceeds the number of nodes (no feasible answer).
    """
    epsilon = check_epsilon(epsilon)
    check_positive_int(k, "k")
    if graph.num_nodes == 0:
        raise EmptyGraphError("graph has no nodes")
    if k > graph.num_nodes:
        raise ParameterError(
            f"k={k} exceeds the graph's {graph.num_nodes} nodes; no feasible set"
        )

    resolved = resolve_engine(engine, graph)
    if resolved != "python":
        from ..kernels import peel_functions

        csr = _as_csr(graph)
        out = peel_functions(resolved).peel_atleast_k(
            csr, k, epsilon, stop_below_k=stop_below_k
        )
        return DensestSubgraphResult(
            nodes=frozenset(csr.to_labels(out.best_indices)),
            density=out.best_density,
            passes=out.passes,
            epsilon=epsilon,
            best_pass=out.best_pass,
            trace=out.trace,
        )

    compact = CompactUndirected(_as_dict_graph(graph))
    n = compact.num_nodes
    alive = [True] * n
    alive_nodes = list(range(n))
    degrees = compact.initial_degrees()
    remaining_nodes = n
    remaining_weight = compact.total_weight
    remaining_edges = compact.num_edges

    best_nodes = list(range(n))
    best_density = remaining_weight / remaining_nodes
    best_pass = 0

    trace: List[PassRecord] = []
    pass_index = 0
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)

    while remaining_nodes > 0:
        if stop_below_k and remaining_nodes < k:
            break
        pass_index += 1
        density = remaining_weight / remaining_nodes
        threshold = factor * density
        # Ã(S) ← {i ∈ S : deg_S(i) ≤ 2(1+ε)·ρ(S)} — scan the alive list,
        # not range(n), so late passes cost O(|S|).  Every member of an
        # edgeless S is a candidate (see peel_cutoff).
        cutoff = peel_cutoff(threshold, remaining_edges)
        candidates = [i for i in alive_nodes if degrees[i] <= cutoff]
        # A(S) ⊆ Ã(S) with |A(S)| = ε/(1+ε)·|S|: keep the lowest-degree
        # candidates.  Rounding: at most floor(ε/(1+ε)·|S|) per Theorem 9's
        # size argument, but at least 1 so the loop always progresses.
        batch_size = max(1, math.floor(batch_fraction * remaining_nodes))
        batch_size = min(batch_size, len(candidates))
        candidates.sort(key=lambda i: degrees[i])
        to_remove = candidates[:batch_size]
        alive_nodes = drop_killed(alive_nodes, to_remove)

        nodes_before = remaining_nodes
        weight_before = remaining_weight
        for i in to_remove:
            alive[i] = False
            remaining_nodes -= 1
            nbrs = compact.neighbors[i]
            wts = compact.weights[i]
            for idx in range(len(nbrs)):
                j = nbrs[idx]
                if alive[j]:
                    degrees[j] -= wts[idx]
                    remaining_weight -= wts[idx]
                    remaining_edges -= 1
        if remaining_edges == 0:
            remaining_weight = 0.0

        density_after = (
            remaining_weight / remaining_nodes if remaining_nodes > 0 else 0.0
        )
        trace.append(
            PassRecord(
                pass_index=pass_index,
                nodes_before=nodes_before,
                edges_before=weight_before,
                density_before=density,
                threshold=threshold,
                removed=len(to_remove),
                nodes_after=remaining_nodes,
                edges_after=remaining_weight,
                density_after=density_after,
            )
        )
        # if |S| ≥ k and ρ(S) > ρ(S̃): S̃ ← S (paper lines 6-7).
        if remaining_nodes >= k and density_after > best_density:
            best_density = density_after
            best_nodes = list(alive_nodes)
            best_pass = pass_index

    return DensestSubgraphResult(
        nodes=frozenset(compact.to_labels(best_nodes)),
        density=best_density,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
