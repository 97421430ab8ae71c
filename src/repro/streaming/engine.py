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

The per-pass degree recomputation runs through the same
``np.bincount`` kernel as the in-memory CSR engine.  Every engine —
the three here and the sketch engine — scans through one loop,
:meth:`_StreamScanner.scan`: edges are pulled in bounded chunks (so
the between-pass state stays O(n) + O(chunk)), and one per-chunk body
maps endpoint labels to dense indices — a vectorized ``searchsorted``
for integer ids, one dict lookup per endpoint for any other hashable
label — masks dead endpoints, and reduces the survivors (two
bincounts here, one sketch update in the sketch engine).  The body
runs inline, or on a thread pool for shard stores with
``scan_threads > 1``; the calling thread merges chunk results in
stream order either way, so threaded and inline scans are bit for
bit the same.  A relabelled input gives the same node sets, traces,
and densities (bit-identical float sums whenever both runs see the
same chunk boundaries, and always for dyadic weights).  Threshold
scans are one vectorized mask over the maintained alive bitmap.

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
from .memory import MemoryAccountant
from .stream import EdgeStream


#: Edges pulled from the stream per vectorized batch.  Bounds the
#: transient memory of a scan at O(chunk) on top of the O(n) counters.
_SCAN_CHUNK = 1 << 16


class _StreamScanner:
    """Vectorized per-pass counter recomputation over any edge stream.

    Every chunk of edges is mapped to dense int64 indices, after which
    the degree updates are single ``np.bincount`` calls — the same
    kernel the in-memory CSR engine uses on its removal frontier.  The
    label → index map is O(n) words in one of two shapes:

    * int64-range labels keep the sorted universe and its permutation,
      and each chunk maps via ``searchsorted`` (array chunks and record
      chunks alike);
    * any other hashable labels (strings, tuples, huge ints) keep a
      ``{label: index}`` dict and are read as record chunks, each
      endpoint mapped through the dict.

    Two cached shortcuts keep per-pass work off the map:

    * A label universe that *is* the dense identity range (shard
      stores) is detected once; ``_map`` then degrades to a bounds
      check with no ``searchsorted``/gather per chunk.
    * Streams flagged ``dense_ids`` (compaction rewrites, which store
      dense indices directly) bypass the map entirely.

    Scans may fuse a *compaction sink*: every surviving chunk is also
    appended to the sink (in dense index space), so the rewrite costs
    zero extra read passes (:func:`_compacting_scan` owns the sink's
    lifecycle).  ``last_scanned``/``last_kept`` record the most recent
    scan's record counts for the compaction trigger.
    """

    def __init__(self, labels, threads: int = 1) -> None:
        from ..kernels.csr import _all_int_labels, build_label_index

        self.threads = max(1, int(threads))
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

    def _map(self, ids):
        from ..kernels.csr import lookup_indices

        if self._identity:
            if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.n):
                bad = ids[(ids < 0) | (ids >= self.n)][0]
                raise self._missing(bad)
            return ids
        return lookup_indices(self._order, self._sorted, ids, self._missing)

    def _chunks(self, stream: EdgeStream, alive=None, dst_alive=None):
        """One counted pass as ``(chunks, needs_map)``.

        ``chunks`` iterates raw ``(u, v, w)`` triples; ``needs_map``
        says whether their ids are labels for :meth:`_map` (False for
        ``dense_ids`` rewrites and for dict-relabelled records, which
        already carry dense indices).

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
            return self._record_chunks(records), False
        if stream.has_array_chunks():
            # Shard-backed pass: one bounded array triple per shard, so
            # the scan runs out-of-core (O(n) counters + O(shard)).
            if alive is not None and (dense or self._identity):
                chunks = stream.edge_array_chunks(alive=alive, dst_alive=dst_alive)
            else:
                chunks = stream.edge_array_chunks()
            return chunks, not dense
        # Map labels per pass rather than caching the O(m) mapped
        # arrays: the engines' between-pass state must stay O(n) (one
        # vectorized searchsorted per pass is cheap).
        arrays = stream.edge_arrays()
        if arrays is not None:
            return (arrays,), not dense
        return self._record_chunks(stream.edges()), not dense

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

    def _run_ordered(self, chunks, body):
        """Yield ``body(*chunk)`` for every chunk, in stream order.

        A sized thread pool (``self.threads`` workers) runs the bodies
        concurrently — the shard memmap page-in and the numpy chunk
        work both release the GIL — while a bounded in-flight window
        (2× the pool) caps transient memory at O(window · chunk).  The
        chunk iterator itself is advanced on the calling thread.
        Results are consumed strictly in submission order, which is
        what keeps the caller's merge bit-identical to the inline scan.
        """
        from collections import deque
        from concurrent.futures import ThreadPoolExecutor

        pending = deque()
        chunks = iter(chunks)
        with ThreadPoolExecutor(max_workers=self.threads) as pool:

            def submit_next() -> bool:
                chunk = next(chunks, None)
                if chunk is None:
                    return False
                pending.append(pool.submit(body, *chunk))
                return True

            for _ in range(self.threads * 2):
                if not submit_next():
                    break
            while pending:
                result = pending.popleft().result()
                submit_next()
                yield result

    def scan(
        self, stream: EdgeStream, src, dst, reduce=None, merge=None, sink=None
    ) -> float:
        """One counted pass over the edges ``u -> v`` with ``src[u] & dst[v]``.

        Every chunk runs one body: map ids, mask dead endpoints, then
        ``reduce(u, v, w)`` on the survivors.  The body runs inline,
        or on a thread pool when ``threads > 1`` and the stream serves
        array chunks (shard stores).  Either way the calling thread
        consumes the chunk results in stream order, doing
        ``merge(reduce's result)``, the weight sum, the record counts
        (``last_scanned``/``last_kept``), and ``sink.append`` of the
        survivors (dense index space) — so a threaded scan is bit for
        bit the inline one.  Undirected scans pass ``src is dst``.

        Returns the surviving edge weight.
        """
        chunks, needs_map = self._chunks(stream, src, None if dst is src else dst)
        # Pass 1 (and any scan before the first removal) keeps every
        # edge: one O(n) check here skips the O(edges) endpoint gather
        # and mask per chunk.
        all_alive = bool(src.all()) and (dst is src or bool(dst.all()))

        def body(u, v, w):
            u = _np.asarray(u, dtype=_np.int64)
            v = _np.asarray(v, dtype=_np.int64)
            w = _np.asarray(w, dtype=_np.float64)
            if needs_map:
                u = self._map(u)
                v = self._map(v)
            records = int(u.size)
            if not all_alive:
                keep = src[u] & dst[v]
                # A whole surviving chunk skips the masked
                # re-extraction — three O(chunk) copies.
                if not keep.all():
                    if not keep.any():
                        return records, None
                    u, v, w = u[keep], v[keep], w[keep]
            partial = None if reduce is None else reduce(u, v, w)
            return records, (u, v, w, float(w.sum()), partial)

        if self.threads > 1 and stream.has_array_chunks():
            results = self._run_ordered(chunks, body)
        else:
            results = (body(*chunk) for chunk in chunks)
        weight = 0.0
        scanned = 0
        kept_edges = 0
        for records, survivors in results:
            scanned += records
            if survivors is None:
                continue
            u, v, w, chunk_weight, partial = survivors
            kept_edges += int(u.size)
            if merge is not None:
                merge(partial)
            weight += chunk_weight
            if sink is not None:
                sink.append(u, v, w)
        self.last_scanned = scanned
        self.last_kept = kept_edges
        return weight

    def scan_undirected(
        self, stream: EdgeStream, alive, sink=None
    ) -> Tuple["_np.ndarray", float]:
        """Degrees of alive nodes and surviving weight, one stream pass.

        With a ``sink``, every surviving record is also appended to it
        (dense index space) — the fused compaction write.
        """
        degrees = _np.zeros(self.n, dtype=_np.float64)
        return degrees, self._degree_scan(stream, alive, alive, degrees, degrees, sink)

    def scan_directed(
        self, stream: EdgeStream, in_s, in_t, sink=None
    ) -> Tuple["_np.ndarray", "_np.ndarray", float]:
        """w(E(i,T)), w(E(S,j)), and w(E(S,T)), one stream pass."""
        out_to_t = _np.zeros(self.n, dtype=_np.float64)
        in_from_s = _np.zeros(self.n, dtype=_np.float64)
        weight = self._degree_scan(stream, in_s, in_t, out_to_t, in_from_s, sink)
        return out_to_t, in_from_s, weight

    def _degree_scan(self, stream, src, dst, out_deg, in_deg, sink) -> float:
        """:meth:`scan` adding the survivors' weighted degrees, source
        endpoints into ``out_deg`` and destinations into ``in_deg``
        (one array for undirected scans, source first as always).

        ``bincount`` without ``minlength``: the per-chunk accumulate
        costs O(max surviving id), not O(n) — the dominant constant
        once compaction shrinks chunks far below the universe size.
        Slice-adding is bit-identical to the padded add (the padding
        would add exact zeros).
        """

        def reduce(u, v, w):
            return _np.bincount(u, weights=w), _np.bincount(v, weights=w)

        def merge(partial):
            bu, bv = partial
            out_deg[: bu.size] += bu
            in_deg[: bv.size] += bv

        return self.scan(stream, src, dst, reduce, merge, sink)


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

    def __init__(
        self,
        stream: EdgeStream,
        compaction=None,
        scan_threads: Optional[int] = None,
    ) -> None:
        self.stream = stream
        self.labels = stream.node_universe()
        if not self.labels:
            raise StreamError("stream has an empty node universe")
        self.n = len(self.labels)
        self.remaining = self.n
        self._scanner = _StreamScanner(self.labels, threads=scan_threads or 1)
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
        """One stream pass with a caller's per-chunk ``reduce``/``merge``
        (see :meth:`_StreamScanner.scan`); returns the surviving weight."""
        alive = self._alive_arr
        return self._compacting(
            lambda stream, sink: self._scanner.scan(
                stream, alive, alive, reduce, merge, sink
            ),
            compact,
        )

    def _compacting(self, scan, compact: bool):
        result, self.stream = _compacting_scan(
            self._compactor, self._scanner, self.stream, scan, compact
        )
        return result

    def threshold_candidates(self, degrees, cutoff: float) -> List[int]:
        """Alive indices with degree <= cutoff, ascending."""
        return _np.flatnonzero(self._alive_arr & (degrees <= cutoff)).tolist()

    def kill(self, to_remove: List[int]) -> None:
        """Remove nodes from the alive set."""
        if to_remove:
            self._alive_arr[to_remove] = False
        self.remaining -= len(to_remove)
        if self._compactor is not None:
            self._compactor.note_nodes(self.remaining)

    def alive_indices(self) -> List[int]:
        """Indices of currently alive nodes, ascending."""
        return _np.flatnonzero(self._alive_arr).tolist()

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


def _load_engine_checkpoint(config, kind, params, state, stream):
    """Resume helper shared by the undirected engines.

    Returns the loaded state dict (already applied to ``state`` and the
    stream accounting) or ``None`` when no checkpoint exists.
    """
    from .checkpoint import load_peel_checkpoint, restore_accounting

    loaded = load_peel_checkpoint(config, kind=kind, params=params, n=state.n)
    if loaded is None:
        return None
    state.restore(loaded["alive"], loaded["remaining"])
    restore_accounting(stream.accounting, loaded["accounting"])
    return loaded


def _save_engine_checkpoint(
    config, kind, params, state, stream,
    pass_index, best_set, best_density, best_pass, pending, trace,
):
    """Persist one undirected peel's between-pass state."""
    from .checkpoint import save_peel_checkpoint

    save_peel_checkpoint(
        config,
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
        accounting=stream.accounting,
    )


def stream_densest_subgraph(
    stream: EdgeStream,
    epsilon: float = 0.5,
    *,
    max_passes: Optional[int] = None,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    scan_threads: Optional[int] = None,
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
    scan_threads:
        Thread count for per-shard degree scans (default 1, sequential).
        Honored only by shard-backed streams; results and accounting
        are bit-identical to sequential.
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
    state = _UndirectedPassState(
        stream, CompactionPolicy.coerce(compaction), scan_threads=scan_threads
    )
    _charge_exact_memory(accountant, state.n)

    best_set = None  # None = the full universe (no improvement yet)
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None  # trace fields awaiting "after" values
    trace: List[PassRecord] = []
    pass_index = 0

    ckpt_params = {"epsilon": epsilon, "max_passes": max_passes}
    if checkpoint is not None:
        loaded = _load_engine_checkpoint(
            checkpoint, "stream-densest", ckpt_params, state, stream
        )
        if loaded is not None:
            pass_index = loaded["pass_index"]
            best_set = loaded["best_set"]
            best_density = loaded["best_density"]
            best_pass = loaded["best_pass"]
            pending = loaded["pending"]
            trace = loaded["trace"]

    try:
        while state.remaining > 0:
            if max_passes is not None and pass_index >= max_passes:
                break
            if control is not None:
                control.check_pass(pass_index + 1)
            pass_index += 1
            degrees, weight = state.scan()
            density = weight / state.remaining
            if pending is not None:
                trace.append(
                    PassRecord(
                        edges_after=weight, density_after=density, **pending
                    )
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_set = state.alive_indices()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density  # ρ(V), the paper's initial S̃
            threshold = factor * density
            cutoff = threshold + THRESHOLD_EPS
            to_remove = state.threshold_candidates(degrees, cutoff)
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
                _save_engine_checkpoint(
                    checkpoint, "stream-densest", ckpt_params, state, stream,
                    pass_index, best_set, best_density, best_pass, pending,
                    trace,
                )

        if pending is not None:
            if state.remaining == 0:
                edges_after, density_after = 0.0, 0.0
            else:
                # max_passes truncation: one extra counted pass values the
                # final surviving subgraph (no rewrite — the run ends here).
                degrees, edges_after = state.scan(compact=False)
                density_after = edges_after / state.remaining
                if density_after > (best_density or 0.0):
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
        from .checkpoint import clear_checkpoint

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


def stream_densest_subgraph_atleast_k(
    stream: EdgeStream,
    k: int,
    epsilon: float = 0.5,
    *,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    scan_threads: Optional[int] = None,
    checkpoint=None,
    control=None,
) -> DensestSubgraphResult:
    """Algorithm 2 in the semi-streaming model (size lower bound k).

    Mirrors :func:`repro.core.densest_subgraph_atleast_k`: per pass the
    ε/(1+ε)·|S| lowest-degree members of the threshold set are removed,
    and peeling stops when |S| < k (Lemma 11's pass bound).
    ``compaction``, ``scan_threads``, ``checkpoint``, and ``control``
    are the same controls as :func:`stream_densest_subgraph`'s — deep
    at-least-k peels (small ε, hundreds of passes) are checkpointing's
    motivating case.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_int(k, "k")
    from .checkpoint import CheckpointConfig
    from .compaction import CompactionPolicy

    checkpoint = CheckpointConfig.coerce(checkpoint)
    state = _UndirectedPassState(
        stream, CompactionPolicy.coerce(compaction), scan_threads=scan_threads
    )
    if k > state.n:
        raise ParameterError(f"k={k} exceeds the universe of {state.n} nodes")
    _charge_exact_memory(accountant, state.n)

    best_set = state.alive_indices()
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    pass_index = 0

    ckpt_params = {"epsilon": epsilon, "k": k}
    if checkpoint is not None:
        loaded = _load_engine_checkpoint(
            checkpoint, "stream-densest-atleast-k", ckpt_params, state, stream
        )
        if loaded is not None:
            pass_index = loaded["pass_index"]
            best_set = loaded["best_set"]
            best_density = loaded["best_density"]
            best_pass = loaded["best_pass"]
            pending = loaded["pending"]
            trace = loaded["trace"]

    try:
        while state.remaining >= k and state.remaining > 0:
            if control is not None:
                control.check_pass(pass_index + 1)
            pass_index += 1
            degrees, weight = state.scan()
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
                best_density = density
            threshold = factor * density
            cutoff = threshold + THRESHOLD_EPS
            candidates = state.threshold_candidates(degrees, cutoff)
            batch_size = min(
                len(candidates), max(1, math.floor(batch_fraction * state.remaining))
            )
            candidates.sort(key=lambda i: degrees[i])
            to_remove = candidates[:batch_size]
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
                _save_engine_checkpoint(
                    checkpoint, "stream-densest-atleast-k", ckpt_params, state,
                    stream, pass_index, best_set, best_density, best_pass,
                    pending, trace,
                )

        if pending is not None:
            if state.remaining == 0:
                edges_after, density_after = 0.0, 0.0
            else:
                # |S| dropped below k; value the final set with one counted
                # pass so the trace is complete (it can no longer win, but
                # Figure-6.2-style plots want the endpoint).  No rewrite —
                # the run ends here.
                _, edges_after = state.scan(compact=False)
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
        from .checkpoint import clear_checkpoint

        clear_checkpoint(checkpoint)

    return DensestSubgraphResult(
        nodes=frozenset(state.labels[i] for i in best_set),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )


def stream_densest_subgraph_directed(
    stream: EdgeStream,
    ratio: float = 1.0,
    epsilon: float = 0.5,
    *,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    scan_threads: Optional[int] = None,
    control=None,
) -> DirectedDensestSubgraphResult:
    """Algorithm 3 in the semi-streaming model at a fixed ratio c.

    Keeps two O(n) counter arrays — w(E(i, T)) and w(E(S, j)) — plus the
    two alive bitmaps; one stream pass per peeling pass recomputes them.
    ``compaction``, ``scan_threads``, and ``control`` are the same
    controls as :func:`stream_densest_subgraph`'s — here an edge
    survives (and is rewritten) while its source is still in S *and*
    its destination still in T.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_float(ratio, "ratio")
    from .compaction import CompactionPolicy

    policy = CompactionPolicy.coerce(compaction)
    labels = stream.node_universe()
    if not labels:
        raise StreamError("stream has an empty node universe")
    n = len(labels)
    scanner = _StreamScanner(labels, threads=scan_threads or 1)
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
