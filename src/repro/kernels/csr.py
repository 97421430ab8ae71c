"""Compressed-sparse-row graph snapshots for the vectorized kernels.

The public graph classes are dict-of-dict structures convenient for
incremental construction; the NumPy peeling kernels instead want flat
``indptr``/``indices``/``weights`` arrays so a whole pass is a handful
of vector operations.  :class:`CSRGraph` (undirected, symmetric
adjacency) and :class:`CSRDigraph` (separate out- and in-CSR) are
immutable snapshots built once per run:

* ``from_undirected`` / ``from_directed`` — from the dict-of-dict
  classes (the common path inside :mod:`repro.core`);
* ``from_edge_stream`` — one pass over an
  :class:`~repro.streaming.stream.EdgeStream`;
* ``from_edge_arrays`` — directly from NumPy id/weight arrays,
  skipping the dict-of-dict detour entirely (pairs with
  :func:`repro.graph.io.read_edge_arrays`);
* ``from_shards`` — from a :class:`~repro.store.ShardedEdgeStore`,
  a per-shard bincount pass and an O(m) slot-scatter fill pass (the
  C kernels of :mod:`repro.kernels.native`, numpy without them), so
  nothing beyond the CSR output and one shard is ever resident.

Arrays use int32 ``indptr``/``indices`` and float64 ``weights``; node
labels of any hashable type are factorized to dense indices at build
time and mapped back with :meth:`to_labels`.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError

Node = Hashable

#: Policies for repeated ``(u, v)`` pairs in ``from_edge_arrays``.
#: ``"sum"`` accumulates weights (the multigraph-collapse semantics of
#: ``add_edge``); ``"first"`` keeps the first occurrence (the semantics
#: of the SNAP readers in :mod:`repro.graph.io`, whose dumps list many
#: edges in both orientations).
DUPLICATE_POLICIES = ("sum", "first")


def _as_id_arrays(src, dst) -> Tuple[np.ndarray, np.ndarray]:
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphError(
            f"src/dst must be 1-D arrays of equal length, got shapes "
            f"{src.shape} and {dst.shape}"
        )
    return src, dst


def _as_weight_array(weights, num_edges: int) -> np.ndarray:
    if weights is None:
        return np.ones(num_edges, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (num_edges,):
        raise GraphError(
            f"weights must match the edge arrays ({num_edges} entries), "
            f"got shape {weights.shape}"
        )
    if num_edges and not (weights > 0).all():
        raise GraphError("edge weights must be positive")
    return weights


def build_label_index(labels_arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute the ``(order, sorted_labels)`` pair for vectorized
    label → dense-index translation (used with :func:`lookup_indices`)."""
    order = np.argsort(labels_arr, kind="stable")
    return order, labels_arr[order]


def lookup_indices(
    order: np.ndarray,
    sorted_labels: np.ndarray,
    ids: np.ndarray,
    missing=None,
):
    """Dense indices of ``ids`` under a :func:`build_label_index` pair.

    ``missing`` is a callable mapping the first unknown id to the
    exception to raise; pass None to skip the membership check when the
    ids are known members by construction.
    """
    if sorted_labels.size == 0:
        if ids.size and missing is not None:
            raise missing(ids[0])
        return np.empty(0, dtype=np.int64)
    pos = np.searchsorted(sorted_labels, ids)
    pos = np.clip(pos, 0, sorted_labels.size - 1)
    if missing is not None and ids.size:
        bad = sorted_labels[pos] != ids
        if bad.any():
            raise missing(ids[bad][0])
    return order[pos]


def _factorize(
    src: np.ndarray, dst: np.ndarray, nodes: Optional[Sequence[Node]]
) -> Tuple[List[Node], np.ndarray, np.ndarray]:
    """Map raw node ids to dense indices 0..n-1.

    Without an explicit ``nodes`` sequence the label universe is the
    sorted unique ids appearing in the edge arrays; with one, its order
    defines the index space (and may include isolated nodes).
    """
    if nodes is None:
        labels_arr, flat = np.unique(np.concatenate([src, dst]), return_inverse=True)
        ui = flat[: src.size]
        vi = flat[src.size :]
        return labels_arr.tolist(), ui.astype(np.int64), vi.astype(np.int64)
    labels = list(nodes)
    labels_arr = np.asarray(labels)
    if len(labels) != len(set(labels)):
        raise GraphError("nodes sequence contains duplicates")
    order, sorted_labels = build_label_index(labels_arr)

    def missing(first_bad):
        return GraphError(f"edge endpoint {first_bad!r} not in nodes sequence")

    ui = lookup_indices(order, sorted_labels, src, missing).astype(np.int64)
    vi = lookup_indices(order, sorted_labels, dst, missing).astype(np.int64)
    return labels, ui, vi


def _identity_labels(num_nodes: int) -> List[Node]:
    return list(range(num_nodes))


def _check_index_range(ui: np.ndarray, vi: np.ndarray, num_nodes: int) -> None:
    if ui.size == 0:
        return
    lo = min(int(ui.min()), int(vi.min()))
    hi = max(int(ui.max()), int(vi.max()))
    if lo < 0 or hi >= num_nodes:
        raise GraphError(
            f"edge endpoints must lie in [0, {num_nodes}), got range [{lo}, {hi}]"
        )


def _prepare_edge_arrays(
    src,
    dst,
    weights,
    num_nodes: Optional[int],
    nodes: Optional[Sequence[Node]],
    duplicates: str,
) -> Tuple[int, List[Node], np.ndarray, np.ndarray, np.ndarray]:
    """Shared prologue of the two bulk builders.

    Validates the inputs, drops self-loop entries, and resolves raw ids
    to dense indices (``num_nodes`` declares an identity index space,
    ``nodes`` an explicit label universe, otherwise the sorted unique
    ids).  Returns ``(n, labels, ui, vi, w)``.
    """
    if duplicates not in DUPLICATE_POLICIES:
        raise GraphError(
            f"duplicates must be one of {DUPLICATE_POLICIES}, got {duplicates!r}"
        )
    if num_nodes is not None and nodes is not None:
        raise GraphError("give either num_nodes or nodes, not both")
    src, dst = _as_id_arrays(src, dst)
    w = _as_weight_array(weights, src.size)
    loops = src == dst
    if loops.any():
        keep = ~loops
        src, dst, w = src[keep], dst[keep], w[keep]
    if num_nodes is not None:
        # num_nodes declares a dense index space; the ids must already
        # be integers (casting would silently truncate floats).
        if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
            raise GraphError(
                f"num_nodes= requires integer id arrays, got dtypes "
                f"{src.dtype} / {dst.dtype}"
            )
        ui = np.asarray(src, dtype=np.int64)
        vi = np.asarray(dst, dtype=np.int64)
        _check_index_range(ui, vi, num_nodes)
        return num_nodes, _identity_labels(num_nodes), ui, vi, w
    labels, ui, vi = _factorize(src, dst, nodes)
    return len(labels), labels, ui, vi, w


def _collapse(
    key: np.ndarray, weights: np.ndarray, duplicates: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse parallel edges keyed by ``key`` under a duplicate policy."""
    if duplicates == "sum":
        uniq, inverse = np.unique(key, return_inverse=True)
        return uniq, np.bincount(inverse, weights=weights)
    uniq, first = np.unique(key, return_index=True)
    return uniq, weights[first]


def _check_int32_entries(total: int) -> None:
    """Refuse CSR builds whose entry count would wrap int32 indices."""
    if total > np.iinfo(np.int32).max:
        raise GraphError(
            f"graph needs {total} CSR entries, beyond the int32 index "
            f"space ({np.iinfo(np.int32).max}); this build does not "
            f"support graphs that large"
        )


def _csr_from_coo(
    n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build (indptr, indices, weights, weighted row sums) from COO."""
    _check_int32_entries(rows.size)
    order = np.lexsort((cols, rows))
    indices = cols[order].astype(np.int32)
    data = weights[order]
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    sums = np.bincount(rows, weights=weights, minlength=n)
    return indptr, indices, data, sums


#: Bounds of the int-label fast paths: labels outside int64 cannot be
#: vectorized and must take the generic (dict-based) route.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def _all_int_labels(labels: Sequence[Node]) -> bool:
    return all(
        isinstance(node, int)
        and not isinstance(node, bool)
        and INT64_MIN <= node <= INT64_MAX
        for node in labels
    )


def _rows_to_csr(
    n: int, labels: Sequence[Node], adjacency_rows: List[dict]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays from per-node ``{int label: weight}`` adjacency dicts.

    The extraction runs entirely in C — ``np.fromiter`` over
    ``chain.from_iterable(map(dict.keys, rows))`` never creates a
    Python frame per entry — and the label → index translation is one
    vectorized ``searchsorted`` over all entries, so the Python-level
    work is O(n) rather than O(m).
    """
    counts = np.fromiter(map(len, adjacency_rows), dtype=np.int64, count=n)
    total = int(counts.sum())
    _check_int32_entries(total)
    cols_raw = np.fromiter(
        chain.from_iterable(map(dict.keys, adjacency_rows)),
        dtype=np.int64,
        count=total,
    )
    data = np.fromiter(
        chain.from_iterable(map(dict.values, adjacency_rows)),
        dtype=np.float64,
        count=total,
    )
    order, sorted_labels = build_label_index(np.asarray(labels, dtype=np.int64))
    indices = lookup_indices(order, sorted_labels, cols_raw).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    degrees = np.bincount(rows, weights=data, minlength=n)
    return indptr, indices, data, degrees


def _indptr_from_counts(n: int, counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _snapshot_stream(cls, stream, duplicates: str):
    """Shared body of the two ``from_edge_stream`` builders.

    One counted pass over the stream, endpoints mapped to dense
    indices via the stream's node universe (which may include isolated
    nodes); the snapshot is built in index space and the stream's
    labels installed afterwards.
    """
    nodes = stream.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    us: List[int] = []
    vs: List[int] = []
    ws: List[float] = []
    for u, v, w in stream.edges():
        us.append(index[u])
        vs.append(index[v])
        ws.append(w)
    csr = cls.from_edge_arrays(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64),
        num_nodes=len(nodes),
        duplicates=duplicates,
    )
    csr.labels = nodes
    return csr


class CSRGraph:
    """Immutable CSR snapshot of a weighted undirected graph.

    Attributes
    ----------
    indptr / indices / weights:
        Symmetric CSR adjacency: the neighbors of index ``i`` are
        ``indices[indptr[i]:indptr[i+1]]`` with parallel ``weights``;
        every undirected edge appears in both endpoint rows.
    degrees:
        Weighted degree per index (float64).
    labels:
        ``labels[i]`` is the original node of index ``i``.
    total_weight:
        Sum of all edge weights, each undirected edge counted once.
    """

    # _peel_args caches the contiguity-checked arrays (plus their raw
    # pointers) the native tier passes to the compiled kernels.
    __slots__ = (
        "indptr", "indices", "weights", "degrees", "labels", "total_weight",
        "_peel_args",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        degrees: np.ndarray,
        labels: List[Node],
        total_weight: float,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.degrees = degrees
        self.labels = labels
        self.total_weight = total_weight

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls,
        src,
        dst,
        weights=None,
        *,
        num_nodes: Optional[int] = None,
        nodes: Optional[Sequence[Node]] = None,
        duplicates: str = "sum",
    ) -> "CSRGraph":
        """Bulk-build from parallel id/weight arrays (no dict detour).

        Parameters
        ----------
        src, dst:
            1-D arrays of edge endpoints.  Any ids ``np.unique`` can
            sort (ints, strings); self-loop entries are dropped.
        weights:
            Optional positive edge weights (default all 1).
        num_nodes:
            Declare the index space directly: ids must already be dense
            indices in ``[0, num_nodes)`` and become their own labels.
            Allows trailing isolated nodes.
        nodes:
            Explicit label universe (may include isolated nodes); its
            order defines the dense index space.
        duplicates:
            ``"sum"`` accumulates repeated pairs, ``"first"`` keeps the
            first occurrence (see :data:`DUPLICATE_POLICIES`).
        """
        n, labels, ui, vi, w = _prepare_edge_arrays(
            src, dst, weights, num_nodes, nodes, duplicates
        )
        if n == 0:
            return cls(
                np.zeros(1, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
                labels,
                0.0,
            )
        # Canonicalize each undirected pair to (lo, hi) and collapse.
        lo = np.minimum(ui, vi)
        hi = np.maximum(ui, vi)
        key, w = _collapse(lo * np.int64(n) + hi, w, duplicates)
        lo = key // n
        hi = key % n
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        both = np.concatenate([w, w])
        indptr, indices, data, degrees = _csr_from_coo(n, rows, cols, both)
        return cls(indptr, indices, data, degrees, labels, float(w.sum()))

    @classmethod
    def from_undirected(cls, graph) -> "CSRGraph":
        """Snapshot a :class:`~repro.graph.undirected.UndirectedGraph`."""
        labels = list(graph.nodes())
        n = len(labels)
        if n == 0:
            return cls(
                np.zeros(1, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
                labels,
                0.0,
            )
        adj = getattr(graph, "_adj", None)
        if adj is not None and _all_int_labels(labels):
            # Fast path: the adjacency map is already symmetric, so its
            # rows *are* the CSR rows — no per-edge Python loop.
            arrays = _rows_to_csr(n, labels, [adj[u] for u in labels])
            return cls(*arrays, labels, float(graph.total_weight))
        index = {node: i for i, node in enumerate(labels)}
        m = graph.num_edges
        ui = np.empty(m, dtype=np.int64)
        vi = np.empty(m, dtype=np.int64)
        w = np.empty(m, dtype=np.float64)
        for e, (u, v, weight) in enumerate(graph.weighted_edges()):
            ui[e] = index[u]
            vi[e] = index[v]
            w[e] = weight
        rows = np.concatenate([ui, vi])
        cols = np.concatenate([vi, ui])
        both = np.concatenate([w, w])
        indptr, indices, data, degrees = _csr_from_coo(n, rows, cols, both)
        return cls(indptr, indices, data, degrees, labels, float(graph.total_weight))

    @classmethod
    def from_edge_stream(cls, stream, *, duplicates: str = "sum") -> "CSRGraph":
        """One counted pass over an edge stream into a CSR snapshot.

        The stream's node universe (which may include isolated nodes)
        defines the label space; repeated edges accumulate by default,
        matching :meth:`~repro.graph.undirected.UndirectedGraph.add_edge`.
        """
        return _snapshot_stream(cls, stream, duplicates)

    @classmethod
    def from_shards(cls, store) -> "CSRGraph":
        """Build a snapshot from a sharded edge store, one shard at a time.

        Two bounded passes over the store's shards — a bincount pass
        for per-node entry counts and weighted degrees, then a fill
        pass in which :func:`~repro.kernels.native.csr_fill` scatters
        each shard's ``u→v`` and then ``v→u`` entries into their rows'
        next free slots of the preallocated CSR arrays, O(m) in all
        (plus a final stable within-row column sort,
        :func:`~repro.kernels.native.csr_sort_rows`, for bit-parity
        with :meth:`from_edge_arrays`) — so peak memory is the O(m) CSR
        output plus one shard, never a dict graph.  The store's dense
        id universe becomes the label space (``labels[i] == i``);
        parallel duplicate records are kept as parallel CSR entries,
        which every peel kernel reads additively (equivalent to the
        summed edge).
        """
        from . import native

        if store.directed:
            raise GraphError(
                "store holds directed edges; use CSRDigraph.from_shards"
            )
        n = store.num_nodes
        labels = _identity_labels(n)
        if n == 0:
            return cls(
                np.zeros(1, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
                labels,
                0.0,
            )
        counts = np.zeros(n, dtype=np.int64)
        degrees = np.zeros(n, dtype=np.float64)
        total_weight = 0.0
        for u, v, w in store.iter_shard_arrays():
            u = np.asarray(u, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
            w = np.asarray(w, dtype=np.float64)
            _check_index_range(u, v, n)
            counts += np.bincount(u, minlength=n)
            counts += np.bincount(v, minlength=n)
            degrees += np.bincount(u, weights=w, minlength=n)
            degrees += np.bincount(v, weights=w, minlength=n)
            total_weight += float(w.sum())
        _check_int32_entries(int(counts.sum()))
        indptr = _indptr_from_counts(n, counts)
        indices = np.empty(int(counts.sum()), dtype=np.int32)
        data = np.empty(indices.size, dtype=np.float64)
        cursor = indptr[:-1].astype(np.int64)
        for u, v, w in store.iter_shard_arrays():
            # u-side entries before v-side ones in every row: the order
            # of a stable row sort over the chunk [u | v]
            native.csr_fill(u, v, w, indptr, cursor, indices, data)
            native.csr_fill(v, u, w, indptr, cursor, indices, data)
        indices, data = native.csr_sort_rows(indptr, indices, data)
        return cls(indptr, indices, data, degrees, labels, total_weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return int(self.indices.size) // 2

    def nodes(self) -> Iterable[Node]:
        """Iterate over node labels (graph-protocol compatibility)."""
        return iter(self.labels)

    def weighted_edges(self) -> Iterable[Tuple[Node, Node, float]]:
        """Iterate over ``(u, v, weight)`` triples, each edge once."""
        ui, vi, w = self.edge_arrays()
        labels = self.labels
        for i, j, weight in zip(ui.tolist(), vi.tolist(), w.tolist()):
            yield labels[i], labels[j], weight

    def to_labels(self, indexes: Iterable[int]) -> List[Node]:
        """Map dense indices back to original node labels."""
        labels = self.labels
        return [labels[i] for i in indexes]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge set as ``(ui, vi, w)`` index arrays, each edge once."""
        n = self.num_nodes
        rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr).astype(np.int64)
        )
        cols = self.indices.astype(np.int64)
        once = rows < cols
        return rows[once], cols[once], self.weights[once]

    def to_undirected(self):
        """Materialize back into an :class:`UndirectedGraph`."""
        from ..graph.undirected import UndirectedGraph

        graph = UndirectedGraph()
        graph.add_nodes_from(self.labels)
        ui, vi, w = self.edge_arrays()
        labels = self.labels
        for i, j, weight in zip(ui.tolist(), vi.tolist(), w.tolist()):
            graph.add_edge(labels[i], labels[j], weight)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"total_weight={self.total_weight:g})"
        )


class CSRDigraph:
    """Immutable CSR snapshot of a weighted directed graph.

    Keeps both orientations — ``out_*`` rows hold successors, ``in_*``
    rows hold predecessors — because Algorithm 3 peels S using out-rows
    and T using in-rows.
    """

    __slots__ = (
        "out_indptr",
        "out_indices",
        "out_weights",
        "in_indptr",
        "in_indices",
        "in_weights",
        "out_degrees",
        "in_degrees",
        "labels",
        "total_weight",
        "_peel_args",
    )

    def __init__(
        self,
        out_csr: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        in_csr: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        labels: List[Node],
        total_weight: float,
    ) -> None:
        self.out_indptr, self.out_indices, self.out_weights, self.out_degrees = out_csr
        self.in_indptr, self.in_indices, self.in_weights, self.in_degrees = in_csr
        self.labels = labels
        self.total_weight = total_weight

    @classmethod
    def _from_indexed(
        cls, n: int, ui: np.ndarray, vi: np.ndarray, w: np.ndarray, labels: List[Node]
    ) -> "CSRDigraph":
        out_csr = _csr_from_coo(n, ui, vi, w)
        in_csr = _csr_from_coo(n, vi, ui, w)
        return cls(out_csr, in_csr, labels, float(w.sum()))

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls,
        src,
        dst,
        weights=None,
        *,
        num_nodes: Optional[int] = None,
        nodes: Optional[Sequence[Node]] = None,
        duplicates: str = "sum",
    ) -> "CSRDigraph":
        """Bulk-build from parallel id/weight arrays (``src -> dst``).

        Same contract as :meth:`CSRGraph.from_edge_arrays`, without the
        orientation canonicalization: ``(u, v)`` and ``(v, u)`` are
        distinct directed edges.
        """
        n, labels, ui, vi, w = _prepare_edge_arrays(
            src, dst, weights, num_nodes, nodes, duplicates
        )
        if n == 0:
            empty = (
                np.zeros(1, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
            )
            return cls(empty, empty, labels, 0.0)
        key, w = _collapse(ui * np.int64(n) + vi, w, duplicates)
        ui = key // n
        vi = key % n
        return cls._from_indexed(n, ui, vi, w, labels)

    @classmethod
    def from_directed(cls, graph) -> "CSRDigraph":
        """Snapshot a :class:`~repro.graph.directed.DirectedGraph`."""
        labels = list(graph.nodes())
        n = len(labels)
        if n == 0:
            empty = (
                np.zeros(1, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
            )
            return cls(empty, empty, labels, 0.0)
        out_adj = getattr(graph, "_out", None)
        in_adj = getattr(graph, "_in", None)
        if out_adj is not None and in_adj is not None and _all_int_labels(labels):
            # Fast path: the out- and in-adjacency maps are the two CSR
            # orientations directly — no per-edge Python loop.
            out_csr = _rows_to_csr(n, labels, [out_adj[u] for u in labels])
            in_csr = _rows_to_csr(n, labels, [in_adj[u] for u in labels])
            return cls(out_csr, in_csr, labels, float(graph.total_weight))
        index = {node: i for i, node in enumerate(labels)}
        m = graph.num_edges
        ui = np.empty(m, dtype=np.int64)
        vi = np.empty(m, dtype=np.int64)
        w = np.empty(m, dtype=np.float64)
        for e, (u, v, weight) in enumerate(graph.weighted_edges()):
            ui[e] = index[u]
            vi[e] = index[v]
            w[e] = weight
        return cls._from_indexed(n, ui, vi, w, labels)

    @classmethod
    def from_edge_stream(cls, stream, *, duplicates: str = "sum") -> "CSRDigraph":
        """One counted pass over a directed edge stream (``u -> v``)."""
        return _snapshot_stream(cls, stream, duplicates)

    @classmethod
    def from_shards(cls, store) -> "CSRDigraph":
        """Build a directed snapshot from a sharded edge store.

        Same two-pass bincount/fill structure as
        :meth:`CSRGraph.from_shards`, one
        :func:`~repro.kernels.native.csr_fill` per orientation (out-CSR
        keyed on ``u``, in-CSR keyed on ``v``).
        """
        from . import native

        if not store.directed:
            raise GraphError(
                "store holds undirected edges; use CSRGraph.from_shards"
            )
        n = store.num_nodes
        labels = _identity_labels(n)
        if n == 0:
            empty = (
                np.zeros(1, np.int32),
                np.empty(0, np.int32),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
            )
            return cls(empty, empty, labels, 0.0)
        out_counts = np.zeros(n, dtype=np.int64)
        in_counts = np.zeros(n, dtype=np.int64)
        out_degrees = np.zeros(n, dtype=np.float64)
        in_degrees = np.zeros(n, dtype=np.float64)
        total_weight = 0.0
        for u, v, w in store.iter_shard_arrays():
            u = np.asarray(u, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
            w = np.asarray(w, dtype=np.float64)
            _check_index_range(u, v, n)
            out_counts += np.bincount(u, minlength=n)
            in_counts += np.bincount(v, minlength=n)
            out_degrees += np.bincount(u, weights=w, minlength=n)
            in_degrees += np.bincount(v, weights=w, minlength=n)
            total_weight += float(w.sum())
        _check_int32_entries(int(out_counts.sum()))
        out_indptr = _indptr_from_counts(n, out_counts)
        in_indptr = _indptr_from_counts(n, in_counts)
        m = int(out_counts.sum())
        out_indices = np.empty(m, dtype=np.int32)
        out_data = np.empty(m, dtype=np.float64)
        in_indices = np.empty(m, dtype=np.int32)
        in_data = np.empty(m, dtype=np.float64)
        out_cursor = out_indptr[:-1].astype(np.int64)
        in_cursor = in_indptr[:-1].astype(np.int64)
        for u, v, w in store.iter_shard_arrays():
            native.csr_fill(u, v, w, out_indptr, out_cursor, out_indices, out_data)
            native.csr_fill(v, u, w, in_indptr, in_cursor, in_indices, in_data)
        out_indices, out_data = native.csr_sort_rows(
            out_indptr, out_indices, out_data
        )
        in_indices, in_data = native.csr_sort_rows(in_indptr, in_indices, in_data)
        return cls(
            (out_indptr, out_indices, out_data, out_degrees),
            (in_indptr, in_indices, in_data, in_degrees),
            labels,
            total_weight,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges."""
        return int(self.out_indices.size)

    def nodes(self) -> Iterable[Node]:
        """Iterate over node labels (graph-protocol compatibility)."""
        return iter(self.labels)

    def weighted_edges(self) -> Iterable[Tuple[Node, Node, float]]:
        """Iterate over ``(u, v, weight)`` triples (``u -> v``)."""
        ui, vi, w = self.edge_arrays()
        labels = self.labels
        for i, j, weight in zip(ui.tolist(), vi.tolist(), w.tolist()):
            yield labels[i], labels[j], weight

    def to_labels(self, indexes: Iterable[int]) -> List[Node]:
        """Map dense indices back to original node labels."""
        labels = self.labels
        return [labels[i] for i in indexes]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge set as ``(ui, vi, w)`` index arrays."""
        n = self.num_nodes
        rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.out_indptr).astype(np.int64)
        )
        return rows, self.out_indices.astype(np.int64), self.out_weights

    def to_directed(self):
        """Materialize back into a :class:`DirectedGraph`."""
        from ..graph.directed import DirectedGraph

        graph = DirectedGraph()
        graph.add_nodes_from(self.labels)
        ui, vi, w = self.edge_arrays()
        labels = self.labels
        for i, j, weight in zip(ui.tolist(), vi.tolist(), w.tolist()):
            graph.add_edge(labels[i], labels[j], weight)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRDigraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"total_weight={self.total_weight:g})"
        )
