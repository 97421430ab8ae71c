"""The compiled peeling tier: C kernels called through ctypes.

This module exposes the same four entry points as
:mod:`repro.kernels.peel` (``peel_undirected`` / ``peel_atleast_k`` /
``peel_directed`` / ``peel_directed_sweep``), backed by
``peel_kernels.c``: the incremental bucket-queue peel (DESIGN.md §11),
compiled on first use by :mod:`repro.kernels._cext` with the system C
toolchain and called through ctypes (which releases the GIL for the
whole peel).  Node sets, pass counts and traces match the numpy
kernels.  When the library cannot be built or loaded — and for empty
graphs — the wrappers fall back to :mod:`repro.kernels.peel`
transparently; ``available_backend()`` reports what a call would
actually use.

The same library backs three stable O(m) sorts, each with a wrapper
here: :func:`stable_argsort` (the MapReduce shuffle partition and
group-by), :func:`csr_fill` and :func:`csr_sort_rows` (the shard CSR
build in :meth:`~repro.kernels.csr.CSRGraph.from_shards`).  Their
results are bit-identical to the numpy code each wrapper runs when the
library is absent.

Environment knobs:

``REPRO_NATIVE``
    ``auto`` (default) — build and load the C library; ``off`` —
    disable the compiled tier (the wrappers become numpy
    pass-throughs).  Any other value raises
    :class:`~repro.errors.ParameterError`.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._tolerances import THRESHOLD_EPS
from ..core.trace import DirectedPassRecord, PassRecord
from ..errors import GraphError, ParameterError
from . import peel
from .csr import CSRDigraph, CSRGraph, _check_index_range
from .peel import DirectedPeelOutcome, PeelOutcome

#: Bucket count of the degree queue.  More buckets mean tighter drains
#: (fewer above-cutoff nodes touched in the boundary bucket) at the
#: cost of a longer per-pass bucket walk; 2048 keeps both negligible.
NUM_BUCKETS = 2048

#: Accepted values of the ``REPRO_NATIVE`` environment variable.
NATIVE_MODES = ("auto", "off")

_LIB: Optional[ctypes.CDLL] = None
_LIB_RESOLVED = False


def _load_library() -> Optional[ctypes.CDLL]:
    mode = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    if mode not in NATIVE_MODES:
        raise ParameterError(
            f"REPRO_NATIVE must be one of {NATIVE_MODES}, got {mode!r}"
        )
    if mode == "off":
        return None
    from . import _cext

    try:
        return _cext.load()
    except Exception:
        return None


def get_backend() -> Optional[ctypes.CDLL]:
    """The loaded C kernel library (memoized), or None."""
    global _LIB, _LIB_RESOLVED
    if not _LIB_RESOLVED:
        _LIB = _load_library()
        _LIB_RESOLVED = True
    return _LIB


def available_backend() -> Optional[str]:
    """``"c"``, or None when the compiled tier is absent."""
    return "c" if get_backend() is not None else None


def reset_backend_cache() -> None:
    """Forget the memoized library (tests flip REPRO_NATIVE and re-probe)."""
    global _LIB, _LIB_RESOLVED
    _LIB = None
    _LIB_RESOLVED = False


def _run(kernel, *args) -> Tuple[int, float, int, int]:
    """Call a C kernel with its three out-parameters appended.

    Returns ``(status, best_density, best_pass, passes)``; status 1
    means the trace buffer overflowed and the call must be retried
    with a larger one.
    """
    best_density = ctypes.c_double()
    best_pass = ctypes.c_int64()
    passes = ctypes.c_int64()
    status = kernel(
        *args,
        ctypes.byref(best_density),
        ctypes.byref(best_pass),
        ctypes.byref(passes),
    )
    return status, best_density.value, best_pass.value, passes.value


# Scratch arrays are reused across calls (the trace buffer alone is
# hundreds of KB, so a fresh allocation per call costs mmap + page
# faults that dwarf the kernel on small graphs).  The cache is
# per-thread: the serve layer peels from a worker pool, and two
# threads must never share live scratch.  The kernels rewrite every
# cell they read, so stale contents are harmless.
_SCRATCH = threading.local()


def _undirected_scratch(n: int, cap: int):
    cached = getattr(_SCRATCH, "undirected", None)
    if cached is not None and cached[0].shape[0] == n and cached[8].shape[0] >= cap:
        return cached
    deg_scratch = np.empty(n, dtype=np.float64)
    alive = np.empty(n, dtype=np.uint8)
    best_alive = np.empty(n, dtype=np.uint8)
    bucket_of = np.empty(n, dtype=np.int32)
    nxt = np.empty(n, dtype=np.int32)
    prv = np.empty(n, dtype=np.int32)
    head = np.empty(NUM_BUCKETS, dtype=np.int32)
    # 2n: frontier in the lower half, deferred-relink list in the upper.
    frontier = np.empty(max(2 * n, 1), dtype=np.int32)
    trace = np.empty((cap, 8), dtype=np.float64)
    arrays = (
        deg_scratch, alive, best_alive, bucket_of, nxt, prv, head, frontier, trace
    )
    # Raw pointers precomputed once: the .ctypes accessor builds a
    # helper object per use, which is measurable at these call rates.
    scratch = arrays + (tuple(a.ctypes.data for a in arrays),)
    _SCRATCH.undirected = scratch
    return scratch


def _directed_scratch(n: int, cap: int):
    cached = getattr(_SCRATCH, "directed", None)
    if cached is not None and cached[0].shape[0] == n and cached[15].shape[0] >= cap:
        return cached
    out_to_t = np.empty(n, dtype=np.float64)
    in_from_s = np.empty(n, dtype=np.float64)
    in_s = np.empty(n, dtype=np.uint8)
    in_t = np.empty(n, dtype=np.uint8)
    best_s = np.empty(n, dtype=np.uint8)
    best_t = np.empty(n, dtype=np.uint8)
    s_bucket_of = np.empty(n, dtype=np.int32)
    s_nxt = np.empty(n, dtype=np.int32)
    s_prv = np.empty(n, dtype=np.int32)
    s_head = np.empty(NUM_BUCKETS, dtype=np.int32)
    t_bucket_of = np.empty(n, dtype=np.int32)
    t_nxt = np.empty(n, dtype=np.int32)
    t_prv = np.empty(n, dtype=np.int32)
    t_head = np.empty(NUM_BUCKETS, dtype=np.int32)
    # 2n: frontier in the lower half, deferred-relink list in the upper.
    frontier = np.empty(max(2 * n, 1), dtype=np.int32)
    trace = np.empty((cap, 11), dtype=np.float64)
    arrays = (
        out_to_t, in_from_s, in_s, in_t, best_s, best_t,
        s_bucket_of, s_nxt, s_prv, s_head,
        t_bucket_of, t_nxt, t_prv, t_head,
        frontier, trace,
    )
    scratch = arrays + (tuple(a.ctypes.data for a in arrays),)
    _SCRATCH.directed = scratch
    return scratch


def _graph_ptrs(csr) -> Tuple[int, ...]:
    """Raw pointers to the contiguity-checked CSR arrays (out- then
    in-CSR triple for a digraph), cached on the graph together with the
    arrays they point into."""
    cached = getattr(csr, "_peel_args", None)
    if cached is None:
        if isinstance(csr, CSRDigraph):
            triples = (
                (csr.out_indptr, csr.out_indices, csr.out_weights),
                (csr.in_indptr, csr.in_indices, csr.in_weights),
            )
        else:
            triples = ((csr.indptr, csr.indices, csr.weights),)
        arrays = tuple(
            np.ascontiguousarray(a, dtype=dtype)
            for triple in triples
            for a, dtype in zip(triple, (np.int32, np.int32, np.float64))
        )
        cached = (arrays, tuple(a.ctypes.data for a in arrays))
        try:
            csr._peel_args = cached
        except AttributeError:
            pass
    return cached[1]


def _decode_undirected_trace(trace: np.ndarray, passes: int) -> Tuple[PassRecord, ...]:
    # One bulk tolist() instead of per-cell numpy scalar reads: deep
    # peels record dozens of passes and the scalar path dominates the
    # decode cost.
    rows = trace[:passes].tolist()
    return tuple(
        PassRecord(
            pass_index=i + 1,
            nodes_before=int(t[0]),
            edges_before=t[1],
            density_before=t[2],
            threshold=t[3],
            removed=int(t[4]),
            nodes_after=int(t[5]),
            edges_after=t[6],
            density_after=t[7],
        )
        for i, t in enumerate(rows)
    )


def peel_undirected(
    csr: CSRGraph,
    epsilon: float,
    *,
    max_passes: Optional[int] = None,
) -> PeelOutcome:
    """Algorithm 1 via the C kernels (numpy fallback)."""
    lib = get_backend()
    n = csr.num_nodes
    if lib is None or n == 0:
        return peel.peel_undirected(csr, epsilon, max_passes=max_passes)
    factor = 2.0 * (1.0 + epsilon)
    mp = -1 if max_passes is None else int(max_passes)
    csr_ptrs = _graph_ptrs(csr)
    cap = min(n, 4096) + 1
    while True:
        deg, alive, best_alive, *_, trace, scratch_ptrs = _undirected_scratch(n, cap)
        np.copyto(deg, csr.degrees)
        alive.fill(1)
        best_alive.fill(1)
        status, best_density, best_pass, passes = _run(
            lib.repro_peel_undirected,
            *csr_ptrs, n, csr.total_weight, factor, THRESHOLD_EPS, mp,
            NUM_BUCKETS, *scratch_ptrs, trace.shape[0],
        )
        if status == 0:
            break
        cap = min(max(cap * 4, cap + 1), n + 1)
    return PeelOutcome(
        best_indices=np.flatnonzero(best_alive).astype(np.int64, copy=False),
        best_density=float(best_density),
        passes=int(passes),
        best_pass=int(best_pass),
        trace=_decode_undirected_trace(trace, int(passes)),
    )


def peel_atleast_k(
    csr: CSRGraph,
    k: int,
    epsilon: float,
    *,
    stop_below_k: bool = True,
) -> PeelOutcome:
    """Algorithm 2 via the C kernels (numpy fallback)."""
    lib = get_backend()
    n = csr.num_nodes
    if lib is None or n == 0:
        return peel.peel_atleast_k(csr, k, epsilon, stop_below_k=stop_below_k)
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)
    csr_ptrs = _graph_ptrs(csr)
    cap = min(n, 4096) + 1
    while True:
        deg, alive, best_alive, *_, trace, scratch_ptrs = _undirected_scratch(n, cap)
        np.copyto(deg, csr.degrees)
        alive.fill(1)
        best_alive.fill(1)
        status, best_density, best_pass, passes = _run(
            lib.repro_peel_atleast_k,
            *csr_ptrs, n, csr.total_weight, factor, batch_fraction,
            THRESHOLD_EPS, int(k), 1 if stop_below_k else 0, NUM_BUCKETS,
            *scratch_ptrs, trace.shape[0],
        )
        if status == 0:
            break
        cap = min(max(cap * 4, cap + 1), n + 1)
    return PeelOutcome(
        best_indices=np.flatnonzero(best_alive).astype(np.int64, copy=False),
        best_density=float(best_density),
        passes=int(passes),
        best_pass=int(best_pass),
        trace=_decode_undirected_trace(trace, int(passes)),
    )


def peel_directed(
    csr: CSRDigraph,
    ratio: float,
    epsilon: float,
    *,
    side_rule: str = "size_ratio",
) -> DirectedPeelOutcome:
    """Algorithm 3 via the C kernels (numpy fallback)."""
    lib = get_backend()
    n = csr.num_nodes
    if lib is None or n == 0:
        return peel.peel_directed(csr, ratio, epsilon, side_rule=side_rule)
    csr_ptrs = _graph_ptrs(csr)
    use_max_degree = side_rule != "size_ratio"
    cap = min(2 * n, 8192) + 1
    while True:
        (
            out_to_t, in_from_s, in_s, in_t, best_s, best_t,
            *_, trace, scratch_ptrs,
        ) = _directed_scratch(n, cap)
        np.copyto(out_to_t, csr.out_degrees)
        np.copyto(in_from_s, csr.in_degrees)
        in_s.fill(1)
        in_t.fill(1)
        best_s.fill(1)
        best_t.fill(1)
        status, best_density, best_pass, passes = _run(
            lib.repro_peel_directed,
            *csr_ptrs, n, csr.total_weight, float(ratio), 1.0 + epsilon,
            THRESHOLD_EPS, 1 if use_max_degree else 0, NUM_BUCKETS,
            *scratch_ptrs, trace.shape[0],
        )
        if status == 0:
            break
        cap = min(max(cap * 4, cap + 1), 2 * n + 1)
    rows = trace[: int(passes)].tolist()
    records: List[DirectedPassRecord] = [
        DirectedPassRecord(
            pass_index=i + 1,
            side="S" if t[0] == 0.0 else "T",
            s_before=int(t[1]),
            t_before=int(t[2]),
            edges_before=t[3],
            density_before=t[4],
            threshold=t[5],
            removed=int(t[6]),
            s_after=int(t[7]),
            t_after=int(t[8]),
            edges_after=t[9],
            density_after=t[10],
        )
        for i, t in enumerate(rows)
    ]
    return DirectedPeelOutcome(
        best_s=np.flatnonzero(best_s).astype(np.int64, copy=False),
        best_t=np.flatnonzero(best_t).astype(np.int64, copy=False),
        best_density=float(best_density),
        passes=int(passes),
        best_pass=int(best_pass),
        trace=tuple(records),
    )


def peel_directed_sweep(
    csr: CSRDigraph,
    ratios: Sequence[float],
    epsilon: float,
    *,
    side_rule: str = "size_ratio",
) -> List[DirectedPeelOutcome]:
    """Run :func:`peel_directed` for every c in ``ratios`` (shared CSR)."""
    return [
        peel_directed(csr, ratio, epsilon, side_rule=side_rule) for ratio in ratios
    ]


# ----------------------------------------------------------------------
# Stable O(m) sorts: the MapReduce shuffle/group-by and the shard CSR
# fill.  Without the C tier each wrapper runs the numpy code it
# replaces, which is the reference the tests compare against.
# ----------------------------------------------------------------------

#: int64 scratch cells the argsort kernel needs beyond ``3 * len``: its
#: per-digit histograms (``RADIX_MAX_PASSES * RADIX_SIZE`` in
#: ``peel_kernels.c``, which checks the size it is given).
_ARGSORT_SCRATCH_EXTRA = 6 * 2048

#: ``repro_csr_fill`` status codes.
_FILL_BAD_ID = 2
_FILL_ROW_OVERFLOW = 3


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of a 1-D int64 array in O(len).

    The C kernel counting-sorts keys whose span is at most about twice
    their count (partition ids, node ids) and LSD-radix-sorts the rest;
    both give exactly the permutation numpy's stable sort gives.
    Without the C tier this is numpy's stable sort itself.
    """
    lib = get_backend()
    if lib is None:
        return np.argsort(keys, kind="stable")
    if keys.dtype != np.int64 or keys.ndim != 1:
        raise TypeError(
            f"stable_argsort takes 1-D int64 keys, got {keys.dtype} "
            f"of shape {keys.shape}"
        )
    keys = np.ascontiguousarray(keys)
    out = np.empty(keys.size, dtype=np.intp)
    scratch = np.empty(3 * keys.size + _ARGSORT_SCRATCH_EXTRA, dtype=np.int64)
    status = lib.repro_stable_argsort_i64(
        keys.ctypes.data, keys.size, out.ctypes.data,
        scratch.ctypes.data, scratch.size,
    )
    if status != 0:  # pragma: no cover - scratch is sized above
        raise RuntimeError(f"stable argsort kernel failed (status {status})")
    return out


def _shard_fill_positions(
    rows: np.ndarray, cursor: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR write positions for one shard chunk of COO rows (numpy).

    Returns the stable sort order of the chunk and the target slots of
    the sorted entries: each row's entries land at ``cursor[row]``
    onward, in input order.
    """
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_rows[1:] != sorted_rows[:-1]]
    )
    run_lengths = np.diff(np.append(starts, sorted_rows.size))
    offsets = np.arange(sorted_rows.size, dtype=np.int64) - np.repeat(
        starts, run_lengths
    )
    return order, cursor[sorted_rows] + offsets


def csr_fill(
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    indptr: np.ndarray,
    cursor: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> None:
    """Scatter one chunk of ``(row, col, weight)`` entries into CSR slots.

    Entry i goes to slot ``cursor[rows[i]]``, which then advances, so
    each row fills in input order — the order a stable sort of the
    chunk by row gives.  ``indptr`` (int32, length n + 1) bounds the
    rows, ``cursor`` (int64, length n) holds each row's next free slot
    and is updated in place, as are ``indices`` (int32) and ``data``
    (float64).

    Raises :class:`~repro.errors.GraphError` for an id outside
    ``[0, n)`` or a row filled past its slot count; the output arrays
    are then partly written and must be discarded.
    """
    n = cursor.size
    if indptr.shape != (n + 1,):
        raise GraphError(
            f"csr_fill: indptr has shape {indptr.shape}, expected ({n + 1},)"
        )
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (rows.ndim == 1 and rows.shape == cols.shape == weights.shape):
        raise GraphError(
            f"csr_fill: rows/cols/weights must be 1-D of one length, got "
            f"shapes {rows.shape}, {cols.shape}, {weights.shape}"
        )
    lib = get_backend()
    if lib is None:
        _check_index_range(rows, cols, n)
        counts = np.bincount(rows, minlength=n)
        if np.any(cursor + counts > indptr[1:]):
            raise GraphError("csr_fill: a row has more entries than CSR slots")
        order, pos = _shard_fill_positions(rows, cursor)
        indices[pos] = cols[order].astype(np.int32)
        data[pos] = weights[order]
        cursor += counts
        return
    if not (
        indptr.dtype == np.int32
        and cursor.dtype == np.int64
        and indices.dtype == np.int32
        and data.dtype == np.float64
        and indptr.flags.c_contiguous
        and cursor.flags.c_contiguous
        and indices.flags.c_contiguous
        and data.flags.c_contiguous
    ):
        raise GraphError(
            "csr_fill: indptr/cursor/indices/data must be contiguous "
            "int32/int64/int32/float64 arrays"
        )
    status = lib.repro_csr_fill(
        rows.ctypes.data, rows.strides[0],
        cols.ctypes.data, cols.strides[0],
        weights.ctypes.data, weights.strides[0],
        rows.size, n,
        indptr.ctypes.data, cursor.ctypes.data,
        indices.ctypes.data, data.ctypes.data,
        min(indices.size, data.size),
    )
    if status == _FILL_BAD_ID:
        raise GraphError(f"csr_fill: an edge endpoint lies outside [0, {n})")
    if status == _FILL_ROW_OVERFLOW:
        raise GraphError("csr_fill: a row has more entries than CSR slots")


def csr_sort_rows(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort of every CSR row segment of ``(indices, data)`` by column.

    Returns the sorted ``(indices, data)``: the C kernel sorts the
    given arrays in place, the numpy path returns new ones.  Equal
    columns (parallel duplicate entries) keep their fill order.  The
    shard fill leaves rows in shard order while the bulk builders order
    them by column, and the peel kernels sum row segments left to
    right, so this sort is what makes shard-built snapshots
    bit-identical to array-built ones.
    """
    if indices.size == 0:
        return indices, data
    lib = get_backend()
    if lib is None:
        n = indptr.size - 1
        rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(indptr).astype(np.int64)
        )
        order = np.argsort(
            rows * np.int64(n) + indices.astype(np.int64), kind="stable"
        )
        return indices[order], data[order]
    lengths = np.diff(indptr)
    if not (
        indptr.dtype == np.int32
        and indices.dtype == np.int32
        and data.dtype == np.float64
        and indptr.flags.c_contiguous
        and indices.flags.c_contiguous
        and data.flags.c_contiguous
        and indptr[0] == 0
        and lengths.min(initial=0) >= 0
        and indptr[-1] == indices.size == data.size
    ):
        raise GraphError(
            "csr_sort_rows: expects a well-formed CSR of contiguous "
            "int32 indptr/indices and float64 data"
        )
    longest = int(lengths.max(initial=0))
    tmp_idx = np.empty(longest, dtype=np.int32)
    tmp_val = np.empty(longest, dtype=np.float64)
    lib.repro_csr_sort_rows(
        indptr.ctypes.data, indptr.size - 1, indices.ctypes.data,
        data.ctypes.data, tmp_idx.ctypes.data, tmp_val.ctypes.data,
    )
    return indices, data
