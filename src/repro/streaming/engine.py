"""Semi-streaming implementations of Algorithms 1–3.

These engines touch the input *only* through the :class:`EdgeStream`
interface and keep O(n) state between passes:

* a label → dense-index map and an alive bitmap (both O(n));
* one degree counter per alive node (O(n) words);
* a copy of the best node set seen so far (O(n));
* O(1) scalars (remaining node count, remaining edge weight).

Every while-loop iteration of the paper's algorithms costs exactly one
stream pass, during which the degree counters and the edge weight of
the surviving subgraph are recomputed from scratch; removals then
update only in-memory state.  ρ(S) after pass p's removal is observed
at the start of pass p+1, which is when the best-set bookkeeping
happens — the same values, one pass later, as the in-memory reference
in :mod:`repro.core`.  The test suite asserts the engines return
identical sets and traces to the reference implementations.

The undirected engines share one pass loop, :func:`_peel_undirected`.
Algorithm 1 removes each pass's whole threshold set; Algorithm 2
removes its :func:`~repro.kernels.peel.lowest_batch` and stops once
|S| < k; the sketch engine (:mod:`repro.streaming.sketch_engine`)
passes its own per-pass measurement (a fresh Count-Sketch) and
removal rule.  The density, threshold, trace, best-set and checkpoint
bookkeeping exist once.

Every engine — the three here and the sketch engine — scans through
one loop, :meth:`_StreamScanner.scan`: edges are pulled in bounded
chunks (so the between-pass state stays O(n) + O(chunk)), endpoint
labels are mapped to dense indices — a vectorized ``searchsorted`` for
integer ids, one dict lookup per endpoint for any other hashable label
— and one per-chunk body accumulates the survivors.  The exact engines'
body is a C loop (numpy fallback, same bits) that bounds-checks every
id, tests the alive masks and adds each surviving edge's weight to its
degree counters and the running weight one edge at a time, in stream
order — and, with a compaction sink open, writes each survivor into
the sink's buffer in the same loop.  Every float sum is therefore the
same sequence of additions whatever the chunk boundaries: a
relabelled input, a memory-compacted pass and a one-chunk array pass
give bit-identical node sets, traces and densities on any weights.
Threshold scans are one vectorized mask over the maintained alive
bitmap.

All three engines additionally accept a ``compaction=`` control (see
:mod:`repro.streaming.compaction`): when the surviving-edge fraction
drops below the policy threshold, the next scan fuses a survivor
rewrite and later passes read only the rewritten source — identical
node sets, traces, and pass counts, with total bytes scanned bounded
by a geometric series instead of O(m) per pass.  One helper,
:func:`_compacting_scan`, opens, aborts and finishes that rewrite for
every engine.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from typing import List, Optional, Tuple

import numpy as _np

from .._tolerances import THRESHOLD_EPS
from .._validation import (
    check_edge_weights,
    check_epsilon,
    check_positive_float,
    check_positive_int,
)
from ..core.result import DensestSubgraphResult, DirectedDensestSubgraphResult
from ..core.trace import DirectedPassRecord, PassRecord
from ..errors import ParameterError, StreamError
from ..kernels.native import compress_survivors, first_bad_edge, scan_edges
from ..kernels.peel import lowest_batch
from .memory import MemoryAccountant
from .stream import EdgeStream


#: Edges pulled from the stream per vectorized batch.  Bounds the
#: transient memory of a scan at O(chunk) on top of the O(n) counters.
_SCAN_CHUNK = 1 << 16


class _StreamScanner:
    """Per-pass counter recomputation over any edge stream, chunk by chunk.

    Each chunk's endpoint labels are mapped to dense int64 indices
    through an O(n)-word map: int64-range labels keep the sorted
    universe and its permutation (one ``searchsorted`` per chunk, array
    and record chunks alike); any other hashable labels (strings,
    tuples, huge ints) keep a ``{label: index}`` dict and are read as
    record chunks.  Identity universes (shard stores, detected once)
    and ``dense_ids`` rewrites are not mapped at all; the per-chunk
    body bounds-checks their ids.

    Scans may fuse a *compaction sink*: the per-chunk body writes every
    survivor straight into the sink's buffer (in dense index space), so
    the rewrite costs zero extra read passes (:func:`_compacting_scan`
    owns the sink's lifecycle).  ``last_scanned``/``last_kept`` record the most recent
    scan's record counts for the compaction trigger.
    """

    def __init__(self, labels) -> None:
        from ..kernels.csr import _all_int_labels, build_label_index

        self.n = len(labels)
        self._position = None
        self._identity = False
        if isinstance(labels, range):
            # Dense-identity universes (shard stores) skip the O(n)
            # boxed-int conversion; range(0, n) also skips the argsort.
            arr = _np.arange(
                labels.start, labels.stop, labels.step, dtype=_np.int64
            )
            if labels.start == 0 and labels.step == 1:
                self._order = self._sorted = arr
                self._identity = bool(self.n)
            else:
                self._order, self._sorted = build_label_index(arr)
        elif _all_int_labels(labels):
            arr = _np.asarray(labels, dtype=_np.int64)
            self._order, self._sorted = build_label_index(arr)
            # The identity universe (labels[i] == i, the shard-store
            # case): mapping is a no-op, checked once instead of per
            # chunk.  A permutation of range(n) is not the identity.
            self._identity = bool(
                self.n
                and arr[0] == 0
                and arr[-1] == self.n - 1
                and _np.array_equal(arr, _np.arange(self.n, dtype=_np.int64))
            )
        else:
            self._position = {label: i for i, label in enumerate(labels)}
        self._dtype = _np.dtype(
            [("u", _np.int64), ("v", _np.int64), ("w", _np.float64)]
        )
        self.last_scanned = 0
        self.last_kept = 0

    def _missing(self, first_bad):
        label = first_bad.item() if isinstance(first_bad, _np.generic) else first_bad
        return StreamError(
            f"stream edge endpoint {label!r} outside the node universe"
        )

    def _chunks(self, stream: EdgeStream, alive=None, dst_alive=None):
        """One counted pass: an iterator of raw ``(u, v, w)`` triples.

        ``alive``/``dst_alive`` (dense-index masks) are forwarded to
        chunk-serving streams as skip hints whenever dense indices and
        node ids coincide — identity-labeled universes or ``dense_ids``
        rewrites — letting shard stores skip provably-dead shards.
        """
        dense = getattr(stream, "dense_ids", False)
        if self._position is not None and not dense:
            # Non-int labels cannot ride in int64 arrays, so their
            # records are mapped through the dict as they are read.
            # Compaction rewrites of such streams hold dense ids and
            # take the array paths below.
            position = self._position
            records = ((position[u], position[v], w) for u, v, w in stream.edges())
            return self._record_chunks(records)
        if stream.has_array_chunks():
            # Shard-backed pass: one bounded array triple per shard, so
            # the scan runs out-of-core (O(n) counters + O(shard)).
            if alive is not None and (dense or self._identity):
                return stream.edge_array_chunks(alive=alive, dst_alive=dst_alive)
            return stream.edge_array_chunks()
        # Map labels per pass rather than caching the O(m) mapped
        # arrays: the engines' between-pass state must stay O(n) (one
        # vectorized searchsorted per pass is cheap).
        arrays = stream.edge_arrays()
        if arrays is not None:
            return (arrays,)
        return self._record_chunks(stream.edges())

    def _record_chunks(self, records):
        """``(u, v, w)`` array chunks of a record iterator.

        Record streams (files, generators) are the one input no writer
        has validated, so each chunk is checked here: a non-finite or
        non-positive weight raises :class:`StreamError`, and self-loops
        are dropped, as the store writer and the edge-list readers
        drop them.
        """
        while True:
            try:
                arr = _np.fromiter(
                    islice(records, _SCAN_CHUNK), dtype=self._dtype, count=-1
                )
            except KeyError as exc:  # a non-int endpoint outside the universe
                raise self._missing(exc.args[0]) from None
            if arr.size:
                check_edge_weights(arr["w"], StreamError)
                loops = arr["u"] == arr["v"]
                kept = arr[~loops] if loops.any() else arr
                yield kept["u"], kept["v"], kept["w"]
            if arr.size < _SCAN_CHUNK:
                return

    def scan(self, stream: EdgeStream, src, dst, body, sink=None) -> float:
        """One counted pass over the edges ``u -> v`` with ``src[u] & dst[v]``.

        Each chunk's int labels are mapped unless they are already dense
        (the body bounds-checks those), then ``body(u, v, w, src, dst,
        weight, emit)`` accumulates the survivors and returns ``(kept,
        weight)``: the survivor count (``-(i + 1)`` for a bad id at index
        i) and the running weight.  The masks reach the body as None
        while every node is alive.  With a ``sink``, ``emit`` is the
        ``(u, v, w)`` triple ``sink.reserve(chunk size)`` hands out: the
        body writes the chunk's survivors (dense index space) to its
        first ``kept`` slots, in stream order, and ``sink.commit(kept)``
        takes them.  Undirected scans pass ``src is dst``.  Returns the
        surviving edge weight.
        """
        from ..kernels.csr import lookup_indices

        chunks = self._chunks(stream, src, None if dst is src else dst)
        map_ids = not (
            self._identity
            or self._position is not None
            or getattr(stream, "dense_ids", False)
        )
        # Pass 1 (and any scan before the first removal) keeps every
        # edge: one O(n) check here spares the body the mask.
        if bool(src.all()) and (dst is src or bool(dst.all())):
            src = dst = None
        weight = 0.0
        scanned = kept_edges = 0
        for u, v, w in chunks:
            u = _np.asarray(u, dtype=_np.int64)
            v = _np.asarray(v, dtype=_np.int64)
            w = _np.asarray(w, dtype=_np.float64)
            if map_ids:
                u = lookup_indices(self._order, self._sorted, u, self._missing)
                v = lookup_indices(self._order, self._sorted, v, self._missing)
            emit = None if sink is None else sink.reserve(u.size)
            kept, weight = body(u, v, w, src, dst, weight, emit)
            if kept < 0:
                i = -kept - 1
                raise self._missing(u[i] if not 0 <= u[i] < self.n else v[i])
            scanned += int(u.size)
            kept_edges += kept
            if sink is not None:
                sink.commit(kept)
        self.last_scanned = scanned
        self.last_kept = kept_edges
        return weight

    def scan_undirected(
        self, stream: EdgeStream, alive, sink=None
    ) -> Tuple["_np.ndarray", float]:
        """Degrees of alive nodes and surviving weight, one stream pass
        of the C chunk scan (:func:`~repro.kernels.native.scan_edges`:
        edge by edge in stream order, so no sum depends on the chunk
        boundaries).  With a ``sink``, the same loop also writes every
        surviving record to it (dense index space) — the fused
        compaction write.
        """
        degrees = _np.zeros(self.n, dtype=_np.float64)
        body = partial(scan_edges, degrees, degrees, scratch=[])
        return degrees, self.scan(stream, alive, alive, body, sink)

    def scan_directed(
        self, stream: EdgeStream, in_s, in_t, sink=None
    ) -> Tuple["_np.ndarray", "_np.ndarray", float]:
        """w(E(i,T)), w(E(S,j)), and w(E(S,T)), one stream pass."""
        out_to_t = _np.zeros(self.n, dtype=_np.float64)
        in_from_s = _np.zeros(self.n, dtype=_np.float64)
        body = partial(scan_edges, out_to_t, in_from_s, scratch=[])
        return out_to_t, in_from_s, self.scan(stream, in_s, in_t, body, sink)


def _compacting_scan(compactor, scanner, stream, scan, compact: bool = True):
    """Run ``scan(stream, sink)`` under the pass-compaction lifecycle.

    Opens a sink when the compactor is due (and ``compact`` allows a
    rewrite), aborts it if the scan is interrupted — a fault, cancel or
    I/O error must not leak a half-written spill store — and then
    either switches to the finished rewrite or reports the scan's
    record counts to the trigger.  Returns ``(result, next_stream)``.
    """
    sink = None
    if compact and compactor is not None and compactor.due():
        sink = compactor.open_sink()
    try:
        result = scan(stream, sink)
    except BaseException:
        if sink is not None:
            sink.abort()
        raise
    if compactor is not None:
        if sink is not None:
            stream = compactor.finish(sink)
        else:
            compactor.observe(scanner.last_scanned, scanner.last_kept)
    return result, stream


def _charge_exact_memory(accountant: Optional[MemoryAccountant], n: int) -> None:
    """Standard footprint of the exact-degree engines."""
    if accountant is None:
        return
    accountant.charge_words("degrees", n)
    accountant.charge_bits("alive_bitmap", n)
    # The alive-index list a threshold scan materializes is at most n
    # indices; charged at its worst case.
    accountant.charge_words("alive_list", n)
    # The best-set snapshot needs only membership, i.e. one bit per node.
    accountant.charge_bits("best_set_bitmap", n)
    accountant.charge_words("scalars", 4)
    # The scanner's label index (sorted labels + permutation, or the
    # label -> index dict for non-int labels).
    accountant.charge_words("label_index", 2 * n)


class _UndirectedPassState:
    """Shared per-pass machinery of the undirected streaming engines.

    The dense alive mask is a *maintained* numpy array — updated in
    place by :meth:`kill` rather than rebuilt every pass, so scan-only
    passes (final valuation, empty-removal passes) reuse it untouched.

    With a :class:`~repro.streaming.compaction.CompactionPolicy`, each
    scan may fuse a survivor rewrite (see :mod:`~repro.streaming.compaction`);
    ``self.stream`` then switches to the rewritten source while
    ``self.labels`` and all index state stay fixed.  Callers must
    invoke :meth:`close` (in a ``finally``) to reap spill directories.
    """

    def __init__(self, stream: EdgeStream, compaction=None) -> None:
        self.stream = stream
        self.labels = stream.node_universe()
        if not self.labels:
            raise StreamError("stream has an empty node universe")
        self.n = len(self.labels)
        self.remaining = self.n
        self._scanner = _StreamScanner(self.labels)
        self._alive_arr = _np.ones(self.n, dtype=bool)
        self._compactor = None
        if compaction is not None:
            from .compaction import Compactor

            self._compactor = Compactor(
                compaction, stream, directed=False, num_nodes=self.n
            )

    def scan(self, compact: bool = True):
        """One stream pass: degrees of alive nodes and surviving weight.

        ``compact=False`` suppresses any compaction rewrite — for
        terminal valuation scans whose result stream would be thrown
        away with the run.
        """
        alive = self._alive_arr
        return self._compacting(
            lambda stream, sink: self._scanner.scan_undirected(stream, alive, sink),
            compact,
        )

    def scan_weight(self, reduce=None, merge=None, compact: bool = True) -> float:
        """One stream pass running numpy ``reduce(u, v, w)`` on each
        chunk's survivors and ``merge``-ing its result (the sketch
        engine); returns the surviving weight, one ``w.sum()`` added
        per chunk."""
        alive = self._alive_arr

        def body(u, v, w, src, dst, weight, emit):
            bad = first_bad_edge(u, v, self.n)
            if bad:
                return bad, weight
            u, v, w = compress_survivors(u, v, w, src, dst, emit)
            if reduce is not None:
                merge(reduce(u, v, w))
            return int(u.size), weight + float(w.sum())

        return self._compacting(
            lambda stream, sink: self._scanner.scan(stream, alive, alive, body, sink),
            compact,
        )

    def _compacting(self, scan, compact: bool):
        result, self.stream = _compacting_scan(
            self._compactor, self._scanner, self.stream, scan, compact
        )
        return result

    def threshold_candidates(self, degrees, cutoff: float) -> "_np.ndarray":
        """Alive indices with degree <= cutoff, ascending."""
        return _np.flatnonzero(self._alive_arr & (degrees <= cutoff))

    def kill(self, to_remove: "_np.ndarray") -> None:
        """Remove nodes (an index array) from the alive set."""
        if len(to_remove):
            self._alive_arr[to_remove] = False
        self.remaining -= len(to_remove)
        if self._compactor is not None:
            self._compactor.note_nodes(self.remaining)

    def alive_array(self) -> "_np.ndarray":
        """Indices of currently alive nodes, ascending."""
        return _np.flatnonzero(self._alive_arr)

    def alive_indices(self) -> List[int]:
        """:meth:`alive_array` as a list (the best-set snapshot)."""
        return self.alive_array().tolist()

    def restore(self, alive: "_np.ndarray", remaining: int) -> None:
        """Adopt a checkpoint's alive mask.

        The next :meth:`scan` recomputes degrees from the base stream
        under this mask, so the resumed peel is bit-identical to an
        uninterrupted one from this point on.
        """
        self._alive_arr = _np.asarray(alive, dtype=bool).copy()
        self.remaining = int(remaining)
        if self._compactor is not None:
            # Seed the node trigger so compaction re-fires on the same
            # shrink signal the interrupted run had already earned.
            self._compactor.note_nodes(self.remaining)

    def close(self) -> None:
        """Reap compaction spill state (idempotent)."""
        if self._compactor is not None:
            self._compactor.close()


def _peel_undirected(
    state: _UndirectedPassState,
    epsilon: float,
    measure,
    *,
    k: int = 1,
    select=None,
    max_passes: Optional[int] = None,
    control=None,
    checkpoint=None,
    kind: Optional[str] = None,
    params: Optional[dict] = None,
) -> DensestSubgraphResult:
    """The one undirected peel loop of the semi-streaming engines.

    ``measure(pass_index)`` makes the pass's counted scan and returns
    ``(degrees, weight)``: a length-n array of (exact or estimated)
    degrees of the alive nodes and the exact surviving weight.
    ``measure(None)`` values the final set after a truncated run (one
    counted pass, no rewrite, degrees unused).  Each pass's threshold
    set (alive nodes with degree ≤ 2(1+ε)·ρ(S), ascending) is removed
    whole, or ``select(degrees, candidates, remaining)`` picks the
    removal from it.  Peeling runs while |S| ≥ ``k`` and, with
    ``max_passes``, for at most that many passes; a set counts as the
    best only while it has at least ``k`` nodes.  ``checkpoint`` saves
    and resumes under ``kind``/``params``; ``state`` is closed on exit.
    """
    from .checkpoint import (
        clear_checkpoint,
        load_peel_checkpoint,
        restore_accounting,
        save_peel_checkpoint,
    )

    source = state.stream  # the accounting lives on the caller's stream
    best_set = None  # None = the full universe (no improvement yet)
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None  # trace fields awaiting "after" values
    trace: List[PassRecord] = []
    pass_index = 0

    if checkpoint is not None:
        loaded = load_peel_checkpoint(checkpoint, kind=kind, params=params, n=state.n)
        if loaded is not None:
            state.restore(loaded["alive"], loaded["remaining"])
            restore_accounting(source.accounting, loaded["accounting"])
            pass_index = loaded["pass_index"]
            best_set = loaded["best_set"]
            best_density = loaded["best_density"]
            best_pass = loaded["best_pass"]
            pending = loaded["pending"]
            trace = loaded["trace"]

    try:
        while state.remaining >= k:
            if max_passes is not None and pass_index >= max_passes:
                break
            if control is not None:
                control.check_pass(pass_index + 1)
            pass_index += 1
            degrees, weight = measure(pass_index)
            density = weight / state.remaining
            if pending is not None:
                trace.append(
                    PassRecord(edges_after=weight, density_after=density, **pending)
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_set = state.alive_indices()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density  # ρ(V), the paper's initial S̃
            threshold = factor * density
            to_remove = state.threshold_candidates(degrees, threshold + THRESHOLD_EPS)
            if select is not None:
                to_remove = select(degrees, to_remove, state.remaining)
            pending = {
                "pass_index": pass_index,
                "nodes_before": state.remaining,
                "edges_before": weight,
                "density_before": density,
                "threshold": threshold,
                "removed": len(to_remove),
                "nodes_after": state.remaining - len(to_remove),
            }
            state.kill(to_remove)
            if checkpoint is not None and pass_index % checkpoint.every == 0:
                save_peel_checkpoint(
                    checkpoint,
                    kind=kind,
                    params=params,
                    n=state.n,
                    pass_index=pass_index,
                    remaining=state.remaining,
                    alive=state._alive_arr,
                    best_set=best_set,
                    best_density=best_density,
                    best_pass=best_pass,
                    pending=pending,
                    trace=trace,
                    accounting=source.accounting,
                )

        if pending is not None:
            if state.remaining == 0:
                edges_after, density_after = 0.0, 0.0
            else:
                # max_passes truncation, or |S| dropped below k: one
                # extra counted pass values the final set so the trace
                # is complete (Figure-6.2-style plots want the endpoint).
                _, edges_after = measure(None)
                density_after = edges_after / state.remaining
                if state.remaining >= k and density_after > (best_density or 0.0):
                    best_density = density_after
                    best_set = state.alive_indices()
                    best_pass = pending["pass_index"]
            trace.append(
                PassRecord(
                    edges_after=edges_after, density_after=density_after, **pending
                )
            )
    finally:
        state.close()

    if checkpoint is not None and not checkpoint.keep:
        clear_checkpoint(checkpoint)

    return DensestSubgraphResult(
        nodes=(
            frozenset(state.labels)
            if best_set is None
            else frozenset(state.labels[i] for i in best_set)
        ),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )


def _exact_measure(state: _UndirectedPassState):
    """The exact engines' per-pass measurement: one C chunk scan of
    exact degrees (no rewrite when valuing the final set)."""
    return lambda pass_index: state.scan(compact=pass_index is not None)


def stream_densest_subgraph(
    stream: EdgeStream,
    epsilon: float = 0.5,
    *,
    max_passes: Optional[int] = None,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    checkpoint=None,
    control=None,
) -> DensestSubgraphResult:
    """Algorithm 1 in the semi-streaming model.

    Parameters
    ----------
    stream:
        Undirected edge stream; each triple is one undirected edge.
    epsilon:
        Slack parameter ε ≥ 0 (see :func:`repro.core.densest_subgraph`).
    max_passes:
        Optional cap on peeling passes.
    accountant:
        Optional :class:`MemoryAccountant` charged with the engine's
        between-pass state.
    compaction:
        Pass-compaction control: ``None``/``False`` (off), ``True``
        (default policy), a threshold in (0, 1], or a
        :class:`~repro.streaming.compaction.CompactionPolicy`.  When a
        pass keeps at most the threshold fraction of the records it
        scanned, the next scan also rewrites the survivors into a fresh
        sink and later passes scan only those — same node sets, traces,
        and pass counts, geometrically fewer bytes.
    checkpoint:
        ``None`` (off), a directory path, or a
        :class:`~repro.streaming.checkpoint.CheckpointConfig`: persist
        the O(n) between-pass state every ``every`` passes and resume
        from the latest checkpoint on a rerun of the same solve —
        bit-identical node sets, traces, and pass counts.
    control:
        Optional :class:`~repro.faults.RunControl` checked at each pass
        boundary — cooperative cancellation, wall-clock deadline, and
        fault injection.

    Returns
    -------
    DensestSubgraphResult
        Same node set and trace as the in-memory reference.
    """
    epsilon = check_epsilon(epsilon)
    from .checkpoint import CheckpointConfig
    from .compaction import CompactionPolicy

    checkpoint = CheckpointConfig.coerce(checkpoint)
    state = _UndirectedPassState(stream, CompactionPolicy.coerce(compaction))
    _charge_exact_memory(accountant, state.n)
    return _peel_undirected(
        state,
        epsilon,
        _exact_measure(state),
        max_passes=max_passes,
        control=control,
        checkpoint=checkpoint,
        kind="stream-densest",
        params={"epsilon": epsilon, "max_passes": max_passes},
    )


def stream_densest_subgraph_atleast_k(
    stream: EdgeStream,
    k: int,
    epsilon: float = 0.5,
    *,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    checkpoint=None,
    control=None,
) -> DensestSubgraphResult:
    """Algorithm 2 in the semi-streaming model (size lower bound k).

    Mirrors :func:`repro.core.densest_subgraph_atleast_k`: per pass the
    ε/(1+ε)·|S| lowest-degree members of the threshold set are removed,
    and peeling stops when |S| < k (Lemma 11's pass bound).
    ``compaction``, ``checkpoint``, and ``control`` are the same
    controls as :func:`stream_densest_subgraph`'s — deep
    at-least-k peels (small ε, hundreds of passes) are checkpointing's
    motivating case.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_int(k, "k")
    from .checkpoint import CheckpointConfig
    from .compaction import CompactionPolicy

    checkpoint = CheckpointConfig.coerce(checkpoint)
    state = _UndirectedPassState(stream, CompactionPolicy.coerce(compaction))
    if k > state.n:
        raise ParameterError(f"k={k} exceeds the universe of {state.n} nodes")
    _charge_exact_memory(accountant, state.n)
    return _peel_undirected(
        state,
        epsilon,
        _exact_measure(state),
        k=k,
        select=lambda degrees, candidates, remaining: lowest_batch(
            candidates, degrees[candidates], epsilon, remaining
        ),
        control=control,
        checkpoint=checkpoint,
        kind="stream-densest-atleast-k",
        params={"epsilon": epsilon, "k": k},
    )


def stream_densest_subgraph_directed(
    stream: EdgeStream,
    ratio: float = 1.0,
    epsilon: float = 0.5,
    *,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    control=None,
) -> DirectedDensestSubgraphResult:
    """Algorithm 3 in the semi-streaming model at a fixed ratio c.

    Keeps two O(n) counter arrays — w(E(i, T)) and w(E(S, j)) — plus the
    two alive bitmaps; one stream pass per peeling pass recomputes them.
    ``compaction`` and ``control`` are the same controls as
    :func:`stream_densest_subgraph`'s — here an edge survives (and is
    rewritten) while its source is still in S *and* its destination
    still in T.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_float(ratio, "ratio")
    from .compaction import CompactionPolicy

    policy = CompactionPolicy.coerce(compaction)
    labels = stream.node_universe()
    if not labels:
        raise StreamError("stream has an empty node universe")
    n = len(labels)
    scanner = _StreamScanner(labels)
    if accountant is not None:
        accountant.charge_words("out_counters", n)
        accountant.charge_words("in_counters", n)
        accountant.charge_bits("s_bitmap", n)
        accountant.charge_bits("t_bitmap", n)
        accountant.charge_words("side_lists", 2 * n)
        accountant.charge_bits("best_set_bitmaps", 2 * n)
        accountant.charge_words("scalars", 5)
        accountant.charge_words("label_index", 2 * n)

    s_size = n
    t_size = n
    best_s = list(range(n))
    best_t = list(range(n))
    best_density: Optional[float] = None
    best_pass = 0
    one_plus_eps = 1.0 + epsilon
    pending: Optional[dict] = None
    trace: List[DirectedPassRecord] = []
    pass_index = 0

    # The side state lives in two maintained dense bitmaps, updated in
    # place on removal.
    in_s = _np.ones(n, dtype=bool)
    in_t = _np.ones(n, dtype=bool)
    compactor = None
    if policy is not None:
        from .compaction import Compactor

        # note_nodes reports s_size + t_size, so the trigger baseline
        # is in membership units (2n), not nodes.
        compactor = Compactor(
            policy, stream, directed=True, num_nodes=n, source_nodes=2 * n
        )

    scan_stream = stream
    try:
        while s_size > 0 and t_size > 0:
            if control is not None:
                control.check_pass(pass_index + 1)
            pass_index += 1
            (out_to_t, in_from_s, weight), scan_stream = _compacting_scan(
                compactor,
                scanner,
                scan_stream,
                lambda stream, sink: scanner.scan_directed(stream, in_s, in_t, sink),
            )
            density = weight / math.sqrt(s_size * t_size)
            if pending is not None:
                trace.append(
                    DirectedPassRecord(
                        edges_after=weight, density_after=density, **pending
                    )
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_s = _np.flatnonzero(in_s).tolist()
                    best_t = _np.flatnonzero(in_t).tolist()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density
            # Threshold scans: one vectorized mask against the pass's
            # side bitmap, in ascending index order.
            if s_size / t_size >= ratio:
                side, members, counters, size = "S", in_s, out_to_t, s_size
            else:
                side, members, counters, size = "T", in_t, in_from_s, t_size
            threshold = one_plus_eps * weight / size
            cutoff = threshold + THRESHOLD_EPS
            to_remove = _np.flatnonzero(members & (counters <= cutoff)).tolist()
            pending = {
                "pass_index": pass_index,
                "side": side,
                "s_before": s_size,
                "t_before": t_size,
                "edges_before": weight,
                "density_before": density,
                "threshold": threshold,
                "removed": len(to_remove),
                "s_after": s_size - len(to_remove) if side == "S" else s_size,
                "t_after": t_size - len(to_remove) if side == "T" else t_size,
            }
            if to_remove:
                members[to_remove] = False
            if side == "S":
                s_size -= len(to_remove)
            else:
                t_size -= len(to_remove)
            if compactor is not None:
                compactor.note_nodes(s_size + t_size)
    finally:
        if compactor is not None:
            compactor.close()

    if pending is not None:
        trace.append(
            DirectedPassRecord(edges_after=0.0, density_after=0.0, **pending)
        )

    return DirectedDensestSubgraphResult(
        s_nodes=frozenset(labels[i] for i in best_s),
        t_nodes=frozenset(labels[j] for j in best_t),
        density=best_density if best_density is not None else 0.0,
        ratio=ratio,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
