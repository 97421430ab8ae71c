"""Vectorized per-pass peeling kernels over CSR snapshots.

Each kernel replays one of the paper's algorithms with the exact same
per-pass semantics as the pure-Python reference loops in
:mod:`repro.core` — same thresholds (including the shared
:data:`~repro._tolerances.THRESHOLD_EPS` slack), same batch selection,
same best-set bookkeeping — but does the per-pass work with boolean
masks and ``np.bincount`` degree updates instead of Python inner
loops.  The parity suite (``tests/test_kernels_parity.py``) asserts
the two engines return identical node sets and matching traces.

Algorithms 1 and 2 share one loop, :func:`_peel`: Algorithm 2 is
Algorithm 1 with its removal cut to :func:`lowest_batch` of the
threshold set and its stop rule |S| ≥ k.  :func:`lowest_batch` is the
one array spelling of that batch rule; the streaming, MapReduce and
sketch engines call it too.

The removal step is where the vectorization pays off.  The Python loop
kills nodes one at a time and subtracts each incident edge exactly
once (when its first endpoint dies).  Here the whole frontier is
removed at once: the concatenated adjacency of the removed nodes is
gathered, filtered to pre-pass-alive neighbors, and

* the surviving neighbors' degrees drop by a single ``np.bincount``
  over the frontier's external edges;
* the removed weight is the gathered total minus half the
  frontier-internal portion (internal edges are gathered from both
  endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._tolerances import THRESHOLD_EPS, peel_cutoff
from ..core.trace import DirectedPassRecord, PassRecord
from .csr import CSRDigraph, CSRGraph


@dataclass(frozen=True)
class PeelOutcome:
    """Raw (index-space) outcome of an undirected peel kernel."""

    best_indices: np.ndarray
    best_density: float
    passes: int
    best_pass: int
    trace: Tuple[PassRecord, ...]


@dataclass(frozen=True)
class DirectedPeelOutcome:
    """Raw (index-space) outcome of the directed peel kernel."""

    best_s: np.ndarray
    best_t: np.ndarray
    best_density: float
    passes: int
    best_pass: int
    trace: Tuple[DirectedPassRecord, ...]


def _gather_rows(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of every CSR entry belonging to ``rows`` (concatenated)."""
    starts = indptr[rows].astype(np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)


def _remove_frontier_undirected(
    csr: CSRGraph,
    removed: np.ndarray,
    remove_mask: np.ndarray,
    alive: np.ndarray,
    degrees: np.ndarray,
) -> Tuple[float, int]:
    """Kill ``removed`` in place; return the edge weight and the edge
    count that left S."""
    pos = _gather_rows(csr.indptr, removed)
    nbr = csr.indices[pos]
    wts = csr.weights[pos]
    live = alive[nbr]  # neighbors alive before this pass
    nbr = nbr[live]
    wts = wts[live]
    internal = remove_mask[nbr]
    num_internal = int(np.count_nonzero(internal))
    removed_weight = float(wts.sum()) - 0.5 * float(wts[internal].sum())
    external = ~internal
    if external.any():
        degrees -= np.bincount(
            nbr[external], weights=wts[external], minlength=alive.size
        )
    alive[removed] = False
    return removed_weight, int(nbr.size) - num_internal // 2


def batch_size(epsilon: float, size: int) -> int:
    """Algorithm 2's removal quota: ⌊ε/(1+ε)·|S|⌋ for ``size`` = |S|,
    but at least one node so every pass makes progress."""
    return max(1, math.floor(epsilon / (1.0 + epsilon) * size))


def lowest_batch(
    candidates: np.ndarray, keys: np.ndarray, epsilon: float, size: int
) -> np.ndarray:
    """Algorithm 2's removal batch: the min(|candidates|,
    :func:`batch_size`) ``candidates`` with the lowest ``keys``
    (``keys[i]`` belongs to ``candidates[i]``), lowest first.

    The sort is stable, so equal keys keep candidate order — ascending
    index, the reference loop's tie-break.  Every engine that spells
    Algorithm 2 on arrays (these kernels, the streaming and MapReduce
    drivers, and the sketch engine's low-estimate fallback) calls this.
    """
    count = min(candidates.size, batch_size(epsilon, size))
    return candidates[np.argsort(keys, kind="stable")[:count]]


def _peel(
    csr: CSRGraph,
    epsilon: float,
    k: Optional[int] = None,
    *,
    stop_below_k: bool = True,
    max_passes: Optional[int] = None,
) -> PeelOutcome:
    """The undirected peel loop behind Algorithms 1 and 2, vectorized.

    With ``k`` None (Algorithm 1) each pass removes the whole threshold
    set.  With an int ``k`` (Algorithm 2) it removes only the
    :func:`lowest_batch` of it, a set counts as the best only while it
    has at least k nodes, and (with ``stop_below_k``) peeling stops once
    |S| < k.
    """
    n = csr.num_nodes
    min_size = 1 if k is None else k
    alive = np.ones(n, dtype=bool)
    degrees = csr.degrees.astype(np.float64, copy=True)
    remaining_nodes = n
    remaining_weight = csr.total_weight
    remaining_edges = csr.num_edges

    best_indices = np.arange(n, dtype=np.int64)
    best_density = remaining_weight / remaining_nodes
    best_pass = 0

    trace: List[PassRecord] = []
    pass_index = 0
    factor = 2.0 * (1.0 + epsilon)
    # One reusable frontier mask for the whole peel: the per-pass
    # comparison writes into it in place instead of allocating two
    # fresh n-length temporaries every round.
    remove_mask = np.empty(n, dtype=bool)

    while remaining_nodes > 0:
        if max_passes is not None and pass_index >= max_passes:
            break
        if stop_below_k and remaining_nodes < min_size:
            break
        pass_index += 1
        density = remaining_weight / remaining_nodes
        threshold = factor * density
        np.less_equal(
            degrees, peel_cutoff(threshold, remaining_edges), out=remove_mask
        )
        remove_mask &= alive
        removed = np.flatnonzero(remove_mask)
        if k is not None:
            # Only the lowest batch leaves; the mask keeps just it.
            batch = lowest_batch(removed, degrees[removed], epsilon, remaining_nodes)
            remove_mask[removed] = False
            remove_mask[batch] = True
            removed = batch
        nodes_before = remaining_nodes
        weight_before = remaining_weight
        if removed.size:
            weight, edges = _remove_frontier_undirected(
                csr, removed, remove_mask, alive, degrees
            )
            remaining_weight -= weight
            remaining_edges -= edges
            if remaining_edges == 0:
                remaining_weight = 0.0
            remaining_nodes -= int(removed.size)
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
                removed=int(removed.size),
                nodes_after=remaining_nodes,
                edges_after=remaining_weight,
                density_after=density_after,
            )
        )
        if remaining_nodes >= min_size and density_after > best_density:
            best_density = density_after
            best_indices = np.flatnonzero(alive)
            best_pass = pass_index

    return PeelOutcome(
        best_indices=best_indices,
        best_density=best_density,
        passes=pass_index,
        best_pass=best_pass,
        trace=tuple(trace),
    )


def peel_undirected(
    csr: CSRGraph,
    epsilon: float,
    *,
    max_passes: Optional[int] = None,
) -> PeelOutcome:
    """Algorithm 1 (undirected peel), vectorized."""
    return _peel(csr, epsilon, max_passes=max_passes)


def peel_atleast_k(
    csr: CSRGraph,
    k: int,
    epsilon: float,
    *,
    stop_below_k: bool = True,
) -> PeelOutcome:
    """Algorithm 2 (size-constrained peel), vectorized.

    Per pass the ε/(1+ε)·|S| lowest-degree members of the threshold
    set are removed; ties break by index, matching the reference's
    stable sort.
    """
    return _peel(csr, epsilon, k, stop_below_k=stop_below_k)


def _max_degree_rule_arrays(
    out_to_t: np.ndarray,
    in_from_s: np.ndarray,
    in_s: np.ndarray,
    in_t: np.ndarray,
    ratio: float,
) -> bool:
    """Vectorized form of the naive §4.3 side-choice rule."""
    max_out = float(out_to_t[in_s].max()) if in_s.any() else 0.0
    max_in = float(in_from_s[in_t].max()) if in_t.any() else 0.0
    if max_out <= 0.0:
        return True
    return max_in / max_out >= ratio


def peel_directed(
    csr: CSRDigraph,
    ratio: float,
    epsilon: float,
    *,
    side_rule: str = "size_ratio",
) -> DirectedPeelOutcome:
    """Algorithm 3 (directed peel) at a fixed ratio c, vectorized."""
    n = csr.num_nodes
    in_s = np.ones(n, dtype=bool)
    in_t = np.ones(n, dtype=bool)
    s_size = n
    t_size = n
    out_to_t = csr.out_degrees.astype(np.float64, copy=True)
    in_from_s = csr.in_degrees.astype(np.float64, copy=True)
    edge_weight = csr.total_weight

    best_s = np.arange(n, dtype=np.int64)
    best_t = np.arange(n, dtype=np.int64)
    best_density = edge_weight / math.sqrt(n * n)
    best_pass = 0

    trace: List[DirectedPassRecord] = []
    pass_index = 0
    one_plus_eps = 1.0 + epsilon
    # Reused across passes; per pass the side's comparison overwrites it.
    frontier_mask = np.empty(n, dtype=bool)

    while s_size > 0 and t_size > 0:
        pass_index += 1
        density = edge_weight / math.sqrt(s_size * t_size)
        if side_rule == "size_ratio":
            peel_s = s_size / t_size >= ratio
        else:
            peel_s = _max_degree_rule_arrays(out_to_t, in_from_s, in_s, in_t, ratio)

        s_before, t_before = s_size, t_size
        weight_before = edge_weight
        if peel_s:
            threshold = one_plus_eps * edge_weight / s_size
            np.less_equal(out_to_t, threshold + THRESHOLD_EPS, out=frontier_mask)
            frontier_mask &= in_s
            removed = np.flatnonzero(frontier_mask)
            pos = _gather_rows(csr.out_indptr, removed)
            nbr = csr.out_indices[pos]
            wts = csr.out_weights[pos]
            live = in_t[nbr]
            nbr = nbr[live]
            wts = wts[live]
            edge_weight -= float(wts.sum())
            if nbr.size:
                in_from_s -= np.bincount(nbr, weights=wts, minlength=n)
            in_s[removed] = False
            s_size -= int(removed.size)
            side = "S"
        else:
            threshold = one_plus_eps * edge_weight / t_size
            np.less_equal(in_from_s, threshold + THRESHOLD_EPS, out=frontier_mask)
            frontier_mask &= in_t
            removed = np.flatnonzero(frontier_mask)
            pos = _gather_rows(csr.in_indptr, removed)
            nbr = csr.in_indices[pos]
            wts = csr.in_weights[pos]
            live = in_s[nbr]
            nbr = nbr[live]
            wts = wts[live]
            edge_weight -= float(wts.sum())
            if nbr.size:
                out_to_t -= np.bincount(nbr, weights=wts, minlength=n)
            in_t[removed] = False
            t_size -= int(removed.size)
            side = "T"

        if s_size > 0 and t_size > 0:
            density_after = edge_weight / math.sqrt(s_size * t_size)
        else:
            density_after = 0.0
        trace.append(
            DirectedPassRecord(
                pass_index=pass_index,
                side=side,
                s_before=s_before,
                t_before=t_before,
                edges_before=weight_before,
                density_before=density,
                threshold=threshold,
                removed=int(removed.size),
                s_after=s_size,
                t_after=t_size,
                edges_after=edge_weight,
                density_after=density_after,
            )
        )
        if density_after > best_density:
            best_density = density_after
            best_s = np.flatnonzero(in_s)
            best_t = np.flatnonzero(in_t)
            best_pass = pass_index

    return DirectedPeelOutcome(
        best_s=best_s,
        best_t=best_t,
        best_density=best_density,
        passes=pass_index,
        best_pass=best_pass,
        trace=tuple(trace),
    )


def peel_directed_sweep(
    csr: CSRDigraph,
    ratios: Sequence[float],
    epsilon: float,
    *,
    side_rule: str = "size_ratio",
) -> List[DirectedPeelOutcome]:
    """Run :func:`peel_directed` for every c in ``ratios``.

    The point of taking a :class:`CSRDigraph` (rather than a graph) is
    that one CSR build — the only O(m log m) step — is amortized across
    the whole sweep; each per-ratio run then touches only the shared
    immutable arrays.
    """
    return [
        peel_directed(csr, ratio, epsilon, side_rule=side_rule) for ratio in ratios
    ]
