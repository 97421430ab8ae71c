"""Algorithm 1 — (2+2ε)-approximate densest subgraph, undirected.

Starting from S = V, every pass computes ρ(S) and removes *all* nodes
whose induced degree is at most 2(1+ε)·ρ(S); the best intermediate S is
returned.  Lemma 3 shows the result is a (2+2ε)-approximation and
Lemma 4 shows the loop makes O(log_{1+ε} n) passes.

This module is the in-memory reference implementation.  Its one peel
loop, :func:`_peel`, also runs Algorithm 2
(:func:`repro.core.densest_subgraph_atleast_k`), which differs only in
its removal rule (the lowest-degree batch of the threshold set) and its
stop rule (|S| ≥ k).  The streaming
engine (:mod:`repro.streaming.engine`) and MapReduce driver
(:mod:`repro.mapreduce.densest`) recompute the same per-pass quantities
under their respective execution models and are tested to match it
pass-for-pass.

Two interchangeable execution engines implement the loop:

* ``engine="python"`` — the original interpreted loop over compact
  adjacency lists;
* ``engine="numpy"`` — the vectorized CSR kernel
  (:func:`repro.kernels.peel.peel_undirected`), same node sets and
  traces, several times faster at evaluation scales;
* ``engine="native"`` — the C bucket-queue kernel
  (:mod:`repro.kernels.native`), same node sets and traces again;
* ``engine="auto"`` (default) — :func:`repro.kernels.resolve_engine`
  walks that ladder by input size, keeping small graphs with exotic
  labels on the Python loop.

Every tier counts the edges S still induces as an integer: once it is
0 the weight is reset to 0.0 and the next pass removes all of S
(:func:`repro._tolerances.peel_cutoff`), so float residue from
non-dyadic weights cannot stall the loop on an edgeless S.

Weighted graphs are handled transparently by using weighted degrees and
edge weights throughout, which is the generalization Lemma 6 relies on.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional

from .._tolerances import peel_cutoff
from .._validation import check_epsilon
from ..errors import EmptyGraphError
from ..graph.undirected import UndirectedGraph
from ..kernels import resolve_engine
from ._compact import CompactUndirected, drop_killed
from .result import DensestSubgraphResult
from .trace import PassRecord

Node = Hashable


def _as_csr(graph):
    """The input as a :class:`~repro.kernels.csr.CSRGraph` snapshot."""
    from ..kernels import CSRGraph

    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_undirected(graph)


def _as_dict_graph(graph) -> UndirectedGraph:
    """The input as an :class:`UndirectedGraph` (for the Python engine)."""
    if isinstance(graph, UndirectedGraph):
        return graph
    return graph.to_undirected()


def densest_subgraph(
    graph: UndirectedGraph,
    epsilon: float = 0.5,
    *,
    max_passes: Optional[int] = None,
    engine: str = "auto",
) -> DensestSubgraphResult:
    """Run Algorithm 1 on ``graph``.

    Parameters
    ----------
    graph:
        Undirected (optionally weighted) graph with at least one node;
        a :class:`~repro.kernels.csr.CSRGraph` snapshot is also
        accepted and skips the CSR build.
    epsilon:
        Slack parameter ε ≥ 0.  Larger ε removes more nodes per pass:
        fewer passes, weaker (2+2ε) guarantee.  ε = 0 matches
        Charikar's threshold (average degree) and still makes progress
        every pass, but without the O(log_{1+ε} n) pass bound.
    max_passes:
        Optional safety cap on the number of passes (mainly for ε = 0
        on adversarial inputs); ``None`` means run to completion.
    engine:
        ``"auto"`` (default), ``"python"``, or ``"numpy"``.  Both
        engines return identical node sets and pass traces (within
        :data:`~repro._tolerances.THRESHOLD_EPS` on the float fields).

    Returns
    -------
    DensestSubgraphResult
        Best intermediate subgraph, its density, and the full trace.

    Examples
    --------
    >>> from repro.graph.generators import clique, star, disjoint_union
    >>> g = disjoint_union([clique(6), star(50, offset=100)])
    >>> result = densest_subgraph(g, epsilon=0.1)
    >>> sorted(result.nodes)
    [0, 1, 2, 3, 4, 5]
    >>> result.density
    2.5
    """
    epsilon = check_epsilon(epsilon)
    if graph.num_nodes == 0:
        raise EmptyGraphError("graph has no nodes")

    return _peel(graph, epsilon, engine, max_passes=max_passes)


def _peel(
    graph,
    epsilon: float,
    engine: str,
    k: Optional[int] = None,
    *,
    stop_below_k: bool = True,
    max_passes: Optional[int] = None,
) -> DensestSubgraphResult:
    """The undirected peel loop behind Algorithms 1 and 2.

    With ``k`` None (Algorithm 1) each pass removes the whole threshold
    set.  With an int ``k`` (Algorithm 2) it removes only the
    ε/(1+ε)·|S| lowest-degree members of it, a set counts as the best
    only while it has at least k nodes, and (with ``stop_below_k``)
    peeling stops once |S| < k.  The vectorized tiers run their own
    copy of this loop (:func:`repro.kernels.peel._peel` and the C
    kernels); this one is the pure-Python reference.
    """
    resolved = resolve_engine(engine, graph)
    if resolved != "python":
        from ..kernels import peel_functions

        csr = _as_csr(graph)
        kernels = peel_functions(resolved)
        if k is None:
            out = kernels.peel_undirected(csr, epsilon, max_passes=max_passes)
        else:
            out = kernels.peel_atleast_k(csr, k, epsilon, stop_below_k=stop_below_k)
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
    min_size = 1 if k is None else k
    alive = [True] * n
    alive_nodes = list(range(n))
    degrees = compact.initial_degrees()
    remaining_nodes = n
    remaining_weight = compact.total_weight
    remaining_edges = compact.num_edges

    # S̃ ← V (paper line 1).
    best_nodes = list(range(n))
    best_density = remaining_weight / remaining_nodes
    best_pass = 0

    trace: List[PassRecord] = []
    pass_index = 0
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)

    while remaining_nodes > 0:
        if max_passes is not None and pass_index >= max_passes:
            break
        if stop_below_k and remaining_nodes < min_size:
            break
        pass_index += 1
        density = remaining_weight / remaining_nodes
        threshold = factor * density
        # A(S) ← {i ∈ S : deg_S(i) ≤ 2(1+ε)·ρ(S)}.  Scanning the
        # maintained alive list (not range(n)) keeps late passes
        # proportional to |S|, not the original node count.  An
        # edgeless S is removed whole (see peel_cutoff).
        cutoff = peel_cutoff(threshold, remaining_edges)
        to_remove = [i for i in alive_nodes if degrees[i] <= cutoff]
        if k is not None:
            # Algorithm 2: A(S) ⊆ Ã(S) with |A(S)| = ε/(1+ε)·|S|, the
            # lowest-degree candidates.  Rounding: at most
            # floor(ε/(1+ε)·|S|) per Theorem 9's size argument, but at
            # least 1 so the loop always progresses.
            batch_size = max(1, math.floor(batch_fraction * remaining_nodes))
            batch_size = min(batch_size, len(to_remove))
            to_remove.sort(key=lambda i: degrees[i])
            del to_remove[batch_size:]
        alive_nodes = drop_killed(alive_nodes, to_remove)
        nodes_before = remaining_nodes
        weight_before = remaining_weight
        # S ← S \ A(S): kill nodes one at a time.  When the first endpoint
        # of an edge internal to A(S) is processed, the second endpoint is
        # still alive, so the edge is subtracted exactly once; once both
        # are dead the edge is skipped.
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
        # if |S| ≥ k and ρ(S) > ρ(S̃): S̃ ← S (paper lines 5-6 of
        # Algorithm 1, 6-7 of Algorithm 2).
        if remaining_nodes >= min_size and density_after > best_density:
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
