"""Algorithm 2 — (3+3ε)-approximation for subgraphs of size at least k.

The size-constrained problem (find the densest subgraph with at least k
nodes) is NP-hard; Algorithm 2 modifies Algorithm 1 to remove only the
ε/(1+ε)·|S| *lowest-degree* members of the threshold set Ã(S) each
pass, which guarantees that some intermediate set lands within a
(1+ε) factor of size k.  Theorem 9 proves the (3+3ε) factor, and
Lemma 10 shows the bound improves to (2+2ε) whenever the optimum
itself has more than k nodes.  By Lemma 11 the pass count is
O(log_{1+ε} n/k) since peeling can stop once |S| < k.

Algorithm 2 runs Algorithm 1's loop (:func:`repro.core.undirected._peel`)
with only those two rules changed, on the interpreted Python engine or
a vectorized CSR kernel (:func:`repro.kernels.peel.peel_atleast_k`);
see the ``engine`` parameter.
"""

from __future__ import annotations

from typing import Hashable

from .._validation import check_epsilon, check_positive_int
from ..errors import EmptyGraphError, ParameterError
from ..graph.undirected import UndirectedGraph
from .result import DensestSubgraphResult
from .undirected import _peel

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

    return _peel(graph, epsilon, engine, k, stop_below_k=stop_below_k)
