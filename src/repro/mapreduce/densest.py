"""The paper's §5.2 MapReduce realization of the peeling algorithms.

Edges are columnar batches keyed by their first endpoint — one int64
key per edge plus a ``v`` (other endpoint) and ``w`` (weight) column.
Each peeling pass is the exact job pipeline the paper describes:

1. **Degree job** (1 round): map each edge to ``⟨u; w⟩`` and ``⟨v; w⟩``
   (for directed graphs, an out-contribution for u and an
   in-contribution for v, the side packed into the key's low bit),
   combine/reduce by summing.  The driver derives the surviving edge
   weight and density from the degree output — the "trivial counting"
   the paper mentions.

2. **Node-removal job** (2 rounds undirected, 1 round directed): the
   driver appends a marker row ``⟨r; m=True⟩`` for every node r slated
   for removal; the reducer for a key that saw a marker emits nothing,
   otherwise it copies its edges through, re-keyed on the other
   endpoint so the second round (or the next pass) can filter on it.
   Only edges with both endpoints unmarked survive — exactly the
   paper's two-phase filter.

**Keys.**  The shuffle keys on int64 node ids.  A graph whose labels
are all ints in ``[-2**62, 2**62)`` keys on the labels themselves (the
bound leaves one bit of headroom for the directed side tag); any other
graph — str, tuple, or huge-int labels — is relabelled once, at the
boundary, to each node's position in ``graph.nodes()`` order (a CSR
snapshot's index), exactly as the CSR layer factorizes labels.  Either
way the driver maps results back through ``labels[i]``, so callers see
their own labels.

Algorithms 1 and 2 run one driver loop, :func:`_peel_undirected`: a
pass removes the whole threshold set, or (Algorithm 2) only its
:func:`~repro.kernels.peel.lowest_batch`, stopping once |S| < k.

The driver keeps O(n) state as dense arrays (alive bitmap, degrees
scattered from the degree job's output batch) and makes the same
threshold decisions as :func:`repro.core.densest_subgraph` /
:func:`repro.core.densest_subgraph_directed`; tests assert the outputs
are identical (bit-identical for dyadic weights, e.g. unweighted
graphs; otherwise up to float-reassociation noise, since combiner-local
and pass-total sums associate differently).  All rounds are metered,
and :class:`MapReduceRunReport` groups counters by peeling pass so a
:class:`~repro.mapreduce.cost.CostModel` can regenerate Figure 6.7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .._tolerances import THRESHOLD_EPS
from .._validation import check_epsilon, check_positive_float, check_positive_int
from ..core.result import DensestSubgraphResult, DirectedDensestSubgraphResult
from ..core.trace import DirectedPassRecord, PassRecord
from ..errors import MapReduceError
from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph
from ..kernels.peel import lowest_batch
from .columnar import ColumnarKV
from .cost import CostModel
from .job import JobCounters, MapReduceJob
from .runtime import MapReduceRuntime, register_job


# ----------------------------------------------------------------------
# Job definitions
# ----------------------------------------------------------------------
def _degree_mapper(batch):
    """Edge rows -> one weight contribution per endpoint (2 per edge)."""
    w = batch.columns["w"]
    return ColumnarKV(
        np.concatenate([batch.keys, batch.columns["v"]]),
        {"w": np.concatenate([w, w])},
    )


def _sum_reducer(grouped):
    """Sum reducer (doubles as the combiner): one segment sum per key."""
    return ColumnarKV(grouped.keys, {"w": grouped.segment_sum("w")})


DEGREE_JOB = register_job(MapReduceJob(
    name="degree",
    mapper=_degree_mapper,
    reducer=_sum_reducer,
    combiner=_sum_reducer,
))


def _directed_degree_mapper(batch):
    """Edge u -> v -> an out-contribution for u, an in-contribution for v.

    The side is packed into the key's low bit: ``2u`` for out,
    ``2v + 1`` for in (the driver decodes with a shift).  The encoding
    is a bijection, so each (side, node) pair is its own reduce group.
    """
    w = batch.columns["w"]
    return ColumnarKV(
        np.concatenate([batch.keys * 2, batch.columns["v"] * 2 + 1]),
        {"w": np.concatenate([w, w])},
    )


DIRECTED_DEGREE_JOB = register_job(MapReduceJob(
    name="directed-degree",
    mapper=_directed_degree_mapper,
    reducer=_sum_reducer,
    combiner=_sum_reducer,
))


def _identity_mapper(batch):
    """Pass a batch through unchanged."""
    return batch


def _filter_and_pivot_reducer(grouped):
    """Drop all edges of a marked node; re-key survivors on the other endpoint.

    Markers are a boolean ``m`` column; a marker row marks its whole
    group (it shares the group's key), so one segment-OR plus a repeat
    yields the row-level drop mask, and the survivors re-key on the
    ``v`` column with the old key moving into ``v``.
    """
    keep = ~grouped.expand(grouped.segment_any("m"))
    rows = grouped.rows
    new_keys = rows.columns["v"][keep]
    return ColumnarKV(
        new_keys,
        {
            "v": rows.keys[keep],
            "w": rows.columns["w"][keep],
            "m": np.zeros(new_keys.size, dtype=bool),
        },
    )


REMOVAL_JOB = register_job(MapReduceJob(
    name="remove-marked",
    mapper=_identity_mapper,
    reducer=_filter_and_pivot_reducer,
))


def _filter_keep_key_reducer(grouped):
    """Drop all edges of a marked node; keep survivors keyed as-is."""
    keep = ~grouped.expand(grouped.segment_any("m"))
    return grouped.rows.take(keep)


REMOVAL_JOB_KEEP_KEY = register_job(MapReduceJob(
    name="remove-marked-keep-key",
    mapper=_identity_mapper,
    reducer=_filter_keep_key_reducer,
))


def _pivot_mapper(batch):
    """Re-key edge rows on their second endpoint (swap key and ``v``);
    marker rows pass through unchanged so the reducer can filter on the
    pivoted key."""
    m = batch.columns["m"]
    return ColumnarKV(
        np.where(m, batch.keys, batch.columns["v"]),
        {
            "v": np.where(m, batch.columns["v"], batch.keys),
            "w": batch.columns["w"],
            "m": m,
        },
    )


REMOVAL_JOB_PIVOT_SECOND = register_job(MapReduceJob(
    name="remove-marked-second",
    mapper=_pivot_mapper,
    reducer=_filter_and_pivot_reducer,
))


# ----------------------------------------------------------------------
# Boundary relabelling and columnar input construction
# ----------------------------------------------------------------------
#: Labels used as shuffle keys must leave one bit of int64 headroom so
#: the directed degree job can bit-pack the side tag (``2u`` /
#: ``2v + 1``) without overflow.
_LABEL_BOUND = 2**62


def _int_labeled(graph, labels) -> bool:
    """True when every node label can serve as its own shuffle key:
    an int in ``[-2**62, 2**62)``.  CSR snapshots with an integer
    label array are decided by one vectorized min/max instead of a
    per-element scan."""
    from ..kernels import CSRDigraph, CSRGraph

    if isinstance(graph, (CSRGraph, CSRDigraph)):
        arr = np.asarray(graph.labels)
        if arr.dtype.kind in "iu":
            if arr.size == 0:
                return True
            return -_LABEL_BOUND <= int(arr.min()) and int(arr.max()) < _LABEL_BOUND
    return all(
        isinstance(node, int)
        and not isinstance(node, bool)
        and -_LABEL_BOUND <= node < _LABEL_BOUND
        for node in labels
    )


def _edge_batch(graph, keys: np.ndarray, relabelled: bool) -> ColumnarKV:
    """The graph's edges as a columnar batch keyed on the first endpoint.

    Columns: ``v`` (other endpoint key), ``w`` (weight), ``m`` (marker
    flag, all False).  ``keys[i]`` is the shuffle key of the i-th node
    of ``graph.nodes()``.  CSR snapshots are translated with two
    vectorized key gathers; dict graphs take one counted
    ``np.fromiter`` pass over ``weighted_edges()``, through a
    label -> position map when the graph is ``relabelled``.
    """
    from ..kernels import CSRDigraph, CSRGraph

    if isinstance(graph, (CSRGraph, CSRDigraph)):
        ui, vi, w = graph.edge_arrays()
        u, v = keys[ui], keys[vi]
    else:
        edges = graph.weighted_edges()
        if relabelled:
            position = {label: i for i, label in enumerate(graph.nodes())}
            edges = ((position[a], position[b], w) for a, b, w in edges)
        dtype = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
        arr = np.fromiter(edges, dtype=dtype, count=graph.num_edges)
        u, v, w = arr["u"], arr["v"], arr["w"].copy()
    return ColumnarKV(u, {"v": v, "w": w, "m": np.zeros(u.size, dtype=bool)})


def _marker_batch(marked_keys: np.ndarray) -> ColumnarKV:
    """Marker rows ``⟨r; m=True⟩`` for the nodes slated for removal."""
    count = marked_keys.size
    return ColumnarKV(
        marked_keys,
        {
            "v": np.full(count, -1, dtype=np.int64),
            "w": np.zeros(count, dtype=np.float64),
            "m": np.ones(count, dtype=bool),
        },
    )


def _with_markers(edges: ColumnarKV, marked_keys: np.ndarray) -> ColumnarKV:
    """Edges plus trailing marker rows."""
    if marked_keys.size == 0:
        return edges
    return ColumnarKV.concat([edges, _marker_batch(marked_keys)])


def _columnar_state(graph):
    """Shared prologue of the drivers.

    Returns ``(labels, keys, order, sorted_keys, edges)`` — the label
    universe in ``graph.nodes()`` order, each label's int64 shuffle key
    (the label itself when :func:`_int_labeled`, else its position),
    the searchsorted index over the keys (for scattering job outputs
    back onto dense driver state), and the initial edge batch.
    """
    from ..kernels.csr import build_label_index

    labels = list(graph.nodes())
    if not labels:
        raise MapReduceError("graph has no nodes")
    relabelled = not _int_labeled(graph, labels)
    if relabelled:
        keys = np.arange(len(labels), dtype=np.int64)
    else:
        keys = np.asarray(labels, dtype=np.int64)
    order, sorted_keys = build_label_index(keys)
    return labels, keys, order, sorted_keys, _edge_batch(graph, keys, relabelled)


def _scatter_by_key(order, sorted_keys, n, keys, values) -> np.ndarray:
    """Dense length-``n`` float array holding ``values`` at the driver
    indices of the shuffle ``keys`` (zeros elsewhere)."""
    from ..kernels.csr import lookup_indices

    out = np.zeros(n, dtype=np.float64)
    if keys.size:
        out[lookup_indices(order, sorted_keys, keys)] = values
    return out


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------
@dataclass
class MapReduceRunReport:
    """Result of an MR peeling run plus per-pass round counters.

    Attributes
    ----------
    result:
        The algorithm result (undirected or directed variant).
    rounds_per_pass:
        ``rounds_per_pass[p]`` lists the :class:`JobCounters` of every
        MapReduce round executed during peeling pass p.
    """

    result: Union[DensestSubgraphResult, DirectedDensestSubgraphResult]
    rounds_per_pass: List[List[JobCounters]]

    def pass_times(self, cost_model: Optional[CostModel] = None) -> List[float]:
        """Simulated per-pass wall-clock seconds (Figure 6.7's series)."""
        model = cost_model if cost_model is not None else CostModel()
        return model.pass_seconds(self.rounds_per_pass)

    def total_rounds(self) -> int:
        """Total MapReduce rounds across the run."""
        return sum(len(rounds) for rounds in self.rounds_per_pass)

    def total_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated total wall-clock seconds."""
        return sum(self.pass_times(cost_model))


# ----------------------------------------------------------------------
# Undirected drivers (Algorithms 1 and 2 in MapReduce)
# ----------------------------------------------------------------------
def _peel_undirected(
    graph, epsilon: float, runtime: Optional[MapReduceRuntime], k: Optional[int] = None
) -> MapReduceRunReport:
    """The one undirected peel loop behind Algorithms 1 and 2.

    Per pass: one degree round, then the two-round removal filter.
    With ``k`` None (Algorithm 1) each pass removes the whole threshold
    set.  With an int ``k`` (Algorithm 2) it removes only the
    :func:`~repro.kernels.peel.lowest_batch` of it (ties broken by
    ``graph.nodes()`` order), a set counts as the best only while it
    has at least k nodes, and peeling stops once |S| < k.
    """
    if runtime is None:
        runtime = MapReduceRuntime()
    labels, keys, order, sorted_keys, edges = _columnar_state(graph)
    n = len(labels)
    min_size = 1 if k is None else k
    if min_size > n:
        raise MapReduceError(f"k={k} exceeds the graph's {n} nodes")
    alive = np.ones(n, dtype=bool)
    remaining = n

    best_mask = alive.copy()
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    def degree_round():
        """Degrees (and, via their sum, the surviving weight)."""
        degree_out, counters = runtime.run(DEGREE_JOB, edges)
        degrees = _scatter_by_key(
            order, sorted_keys, n, degree_out.keys, degree_out.columns["w"]
        )
        return degrees, float(degrees.sum()) / 2.0, counters

    while remaining >= min_size:
        pass_index += 1
        degrees, weight, counters = degree_round()
        pass_rounds: List[JobCounters] = [counters]
        density = weight / remaining

        if pending is not None:
            trace.append(
                PassRecord(edges_after=weight, density_after=density, **pending)
            )
            if density > best_density:  # type: ignore[operator]
                best_density = density
                best_mask = alive.copy()
                best_pass = pending["pass_index"]
        if best_density is None:
            best_density = density

        threshold = factor * density
        removed = np.flatnonzero(alive & (degrees <= threshold + THRESHOLD_EPS))
        if k is not None:
            removed = lowest_batch(removed, degrees[removed], epsilon, remaining)

        pending = {
            "pass_index": pass_index,
            "nodes_before": remaining,
            "edges_before": weight,
            "density_before": density,
            "threshold": threshold,
            "removed": int(removed.size),
            "nodes_after": remaining - int(removed.size),
        }
        alive[removed] = False
        remaining -= int(removed.size)

        # Rounds 2-3: drop edges incident to removed nodes.  The first
        # round filters on the first endpoint and re-keys on the
        # second, the second round filters on the (new) first key and
        # re-keys back.
        marked = keys[removed]
        half_filtered, counters = runtime.run(
            REMOVAL_JOB, _with_markers(edges, marked)
        )
        pass_rounds.append(counters)
        edges, counters = runtime.run(
            REMOVAL_JOB, _with_markers(half_filtered, marked)
        )
        pass_rounds.append(counters)
        rounds_per_pass.append(pass_rounds)

    # The loop ran at least once (n ≥ k), so the last pass is pending.
    if remaining == 0:
        edges_after, density_after = 0.0, 0.0
    else:
        # |S| fell below k; value the final state with one more degree
        # round so the trace is complete (a set below k cannot win).
        _, edges_after, counters = degree_round()
        rounds_per_pass[-1].append(counters)
        density_after = edges_after / remaining
    trace.append(
        PassRecord(edges_after=edges_after, density_after=density_after, **pending)
    )

    result = DensestSubgraphResult(
        nodes=frozenset(labels[i] for i in np.flatnonzero(best_mask)),
        density=best_density,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)


def mr_densest_subgraph(
    graph: UndirectedGraph,
    epsilon: float = 0.5,
    *,
    runtime: Optional[MapReduceRuntime] = None,
) -> MapReduceRunReport:
    """Algorithm 1 as a chain of MapReduce rounds (§5.2).

    Per pass: one degree round, then the two-round removal filter.
    Returns the same node set, density, and per-pass trace as
    :func:`repro.core.densest_subgraph`.  ``graph`` may be a dict graph
    or a :class:`~repro.kernels.CSRGraph` snapshot with any hashable
    labels (see the module docstring on keys).
    """
    return _peel_undirected(graph, check_epsilon(epsilon), runtime)


def mr_densest_subgraph_atleast_k(
    graph: UndirectedGraph,
    k: int,
    epsilon: float = 0.5,
    *,
    runtime: Optional[MapReduceRuntime] = None,
) -> MapReduceRunReport:
    """Algorithm 2 as a chain of MapReduce rounds.

    Identical round structure to :func:`mr_densest_subgraph` (degree
    round + two removal rounds per pass); the driver restricts the
    removal batch to the ε/(1+ε)·|S| lowest-degree members of the
    threshold set (ties broken by ``graph.nodes()`` order) and stops
    once |S| < k, matching :func:`repro.core.densest_subgraph_atleast_k`.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_int(k, "k")
    return _peel_undirected(graph, epsilon, runtime, k)


# ----------------------------------------------------------------------
# Directed driver (Algorithm 3 in MapReduce)
# ----------------------------------------------------------------------
def mr_densest_subgraph_directed(
    graph: DirectedGraph,
    ratio: float = 1.0,
    epsilon: float = 0.5,
    *,
    runtime: Optional[MapReduceRuntime] = None,
) -> MapReduceRunReport:
    """Algorithm 3 as a chain of MapReduce rounds.

    Per pass: one directed-degree round plus one removal round on the
    peeled side (S-peels filter on the first endpoint, T-peels pivot
    and filter on the second).  Returns the same pair and trace as
    :func:`repro.core.densest_subgraph_directed`.  The degree job's
    side-tagged keys come back bit-packed (``2u`` / ``2v + 1``); one
    shift and parity test splits them into the two counter arrays.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_float(ratio, "ratio")
    if runtime is None:
        runtime = MapReduceRuntime()
    labels, keys, order, sorted_keys, edges = _columnar_state(graph)
    n = len(labels)
    in_s = np.ones(n, dtype=bool)
    in_t = np.ones(n, dtype=bool)
    s_size = t_size = n

    best_s_mask = in_s.copy()
    best_t_mask = in_t.copy()
    best_density: Optional[float] = None
    best_pass = 0
    one_plus_eps = 1.0 + epsilon
    pending: Optional[dict] = None
    trace: List[DirectedPassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    while s_size > 0 and t_size > 0:
        pass_index += 1
        pass_rounds: List[JobCounters] = []

        degree_out, counters = runtime.run(DIRECTED_DEGREE_JOB, edges)
        pass_rounds.append(counters)
        packed = degree_out.keys
        values = degree_out.columns["w"]
        is_in = (packed & 1).astype(bool)
        node_keys = packed >> 1
        out_sel = ~is_in
        out_to_t = _scatter_by_key(
            order, sorted_keys, n, node_keys[out_sel], values[out_sel]
        )
        in_from_s = _scatter_by_key(
            order, sorted_keys, n, node_keys[is_in], values[is_in]
        )
        weight = float(values[out_sel].sum())
        density = weight / math.sqrt(s_size * t_size)

        if pending is not None:
            trace.append(
                DirectedPassRecord(
                    edges_after=weight, density_after=density, **pending
                )
            )
            if density > best_density:  # type: ignore[operator]
                best_density = density
                best_s_mask = in_s.copy()
                best_t_mask = in_t.copy()
                best_pass = pending["pass_index"]
        if best_density is None:
            best_density = density

        peel_s = s_size / t_size >= ratio
        if peel_s:
            threshold = one_plus_eps * weight / s_size
            remove_mask = in_s & (out_to_t <= threshold + THRESHOLD_EPS)
            side = "S"
        else:
            threshold = one_plus_eps * weight / t_size
            remove_mask = in_t & (in_from_s <= threshold + THRESHOLD_EPS)
            side = "T"
        removed = int(remove_mask.sum())

        pending = {
            "pass_index": pass_index,
            "side": side,
            "s_before": s_size,
            "t_before": t_size,
            "edges_before": weight,
            "density_before": density,
            "threshold": threshold,
            "removed": removed,
            "s_after": s_size - removed if side == "S" else s_size,
            "t_after": t_size - removed if side == "T" else t_size,
        }
        if side == "S":
            in_s &= ~remove_mask
            s_size -= removed
            # Edges are keyed on the first endpoint already: one round
            # filters the marked sources, keeping the key orientation.
            edges, counters = runtime.run(
                REMOVAL_JOB_KEEP_KEY,
                _with_markers(edges, keys[remove_mask]),
            )
        else:
            in_t &= ~remove_mask
            t_size -= removed
            # Pivot onto the second endpoint in the mapper, filter the
            # marked targets, and the reducer re-keys survivors back on
            # the first endpoint — one round.
            edges, counters = runtime.run(
                REMOVAL_JOB_PIVOT_SECOND,
                _with_markers(edges, keys[remove_mask]),
            )
        pass_rounds.append(counters)
        rounds_per_pass.append(pass_rounds)

    if pending is not None:
        trace.append(
            DirectedPassRecord(edges_after=0.0, density_after=0.0, **pending)
        )

    result = DirectedDensestSubgraphResult(
        s_nodes=frozenset(labels[i] for i in np.flatnonzero(best_s_mask)),
        t_nodes=frozenset(labels[i] for i in np.flatnonzero(best_t_mask)),
        density=best_density if best_density is not None else 0.0,
        ratio=ratio,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)
