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
``np.bincount`` kernel as the in-memory CSR engine: edges are pulled
in bounded chunks (so the between-pass state stays O(n) + O(chunk)),
endpoint labels are mapped to dense indices — a vectorized
``searchsorted`` for integer ids, one dict lookup per endpoint for any
other hashable label — and the surviving edges update all counters at
once.  The scan is the same code for every label type: a relabelled
input gives the same node sets, traces, and densities (bit-identical
float sums whenever both runs see the same chunk boundaries, and
always for dyadic weights).  Threshold scans are one vectorized mask
over the maintained alive bitmap.

All three engines additionally accept a ``compaction=`` control (see
:mod:`repro.streaming.compaction`): when the surviving-edge fraction
drops below the policy threshold, the next scan fuses a survivor
rewrite and later passes read only the rewritten source — identical
node sets, traces, and pass counts, with total bytes scanned bounded
by a geometric series instead of O(m) per pass.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Hashable, List, Optional, Tuple

import numpy as _np

from .._tolerances import THRESHOLD_EPS
from .._validation import check_epsilon, check_positive_float, check_positive_int
from ..core.result import DensestSubgraphResult, DirectedDensestSubgraphResult
from ..core.trace import DirectedPassRecord, PassRecord
from ..errors import ParameterError, StreamError
from .memory import MemoryAccountant
from .stream import EdgeStream

Node = Hashable

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
    zero extra read passes.  ``last_scanned``/``last_kept`` record the
    most recent scan's record counts for the compaction trigger.
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
        """Mapped ``(ui, vi, w)`` chunk triples of one counted pass.

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
            yield from self._record_chunks(
                ((position[u], position[v], w) for u, v, w in stream.edges()),
                relabelled=True,
            )
            return
        chunks = None
        if stream.has_array_chunks():
            if alive is not None and (dense or self._identity):
                chunks = stream.edge_array_chunks(alive=alive, dst_alive=dst_alive)
            else:
                chunks = stream.edge_array_chunks()
        if chunks is not None:
            # Shard-backed pass: one bounded array triple per shard, so
            # the scan runs out-of-core (O(n) counters + O(shard)).
            for u, v, w in chunks:
                u = _np.asarray(u, dtype=_np.int64)
                v = _np.asarray(v, dtype=_np.int64)
                if not dense:
                    u = self._map(u)
                    v = self._map(v)
                yield u, v, _np.asarray(w, dtype=_np.float64)
            return
        arrays = stream.edge_arrays()
        if arrays is not None:
            # Map labels per pass rather than caching the O(m) mapped
            # arrays: the engines' between-pass state must stay O(n)
            # (one vectorized searchsorted per pass is cheap).
            u, v, w = arrays
            u = _np.asarray(u, dtype=_np.int64)
            v = _np.asarray(v, dtype=_np.int64)
            if not dense:
                u = self._map(u)
                v = self._map(v)
            yield u, v, _np.asarray(w, dtype=_np.float64)
            return
        yield from self._record_chunks(stream.edges())

    def _record_chunks(self, records, relabelled: bool = False):
        """``(ui, vi, w)`` chunks of a record iterator.

        ``relabelled`` records already carry dense indices (mapped
        through the label dict); others carry int labels for
        :meth:`_map`.
        """
        while True:
            try:
                arr = _np.fromiter(
                    islice(records, _SCAN_CHUNK), dtype=self._dtype, count=-1
                )
            except KeyError as exc:  # a non-int endpoint outside the universe
                raise self._missing(exc.args[0]) from None
            if arr.size:
                if relabelled:
                    yield arr["u"], arr["v"], arr["w"]
                else:
                    yield self._map(arr["u"]), self._map(arr["v"]), arr["w"]
            if arr.size < _SCAN_CHUNK:
                return

    def _chunk_tasks(self, stream: EdgeStream, alive=None, dst_alive=None):
        """A task-shaped pass for the threaded scan, or None.

        Eligible only when this scanner has a thread pool to feed
        (``threads > 1``), the chunks need no dict relabel (int labels
        or a ``dense_ids`` rewrite), and the stream serves
        :meth:`~repro.streaming.stream.EdgeStream.edge_array_chunk_tasks`.
        Skip hints follow the same rule as :meth:`_chunks`: forwarded
        only when dense indices and node ids coincide.
        """
        dense = getattr(stream, "dense_ids", False)
        if self.threads <= 1 or (self._position is not None and not dense):
            return None
        if alive is not None and (dense or self._identity):
            return stream.edge_array_chunk_tasks(alive=alive, dst_alive=dst_alive)
        return stream.edge_array_chunk_tasks()

    def _run_ordered(self, tasks, process):
        """Yield ``process(*task())`` for every task, in task order.

        A sized thread pool (``self.threads`` workers) runs the tasks
        concurrently — the shard memmap page-in and the numpy chunk
        work both release the GIL — while a bounded in-flight window
        (2× the pool) caps transient memory at O(window · chunk).
        Results are consumed strictly in submission order, which is
        what keeps the caller's merge bit-identical to the sequential
        scan.
        """
        from collections import deque
        from concurrent.futures import ThreadPoolExecutor

        pending = deque()
        task_iter = iter(tasks)
        with ThreadPoolExecutor(max_workers=self.threads) as pool:

            def submit_next() -> bool:
                try:
                    task = next(task_iter)
                except StopIteration:
                    return False
                pending.append(pool.submit(lambda t=task: process(*t())))
                return True

            for _ in range(self.threads * 2):
                if not submit_next():
                    break
            while pending:
                result = pending.popleft().result()
                submit_next()
                yield result

    def _scan_undirected_parallel(self, pass_obj, alive, sink, dense):
        """The threaded body of :meth:`scan_undirected`.

        Workers map, mask, and bincount whole chunks; the main thread
        merges the partial counters in shard order — arithmetic
        identical to the sequential per-chunk loop, which accumulates
        in exactly that order.
        """
        degrees = _np.zeros(self.n, dtype=_np.float64)
        weight = 0.0
        scanned = 0
        kept_edges = 0
        all_alive = bool(alive.all())

        def process(u, v, w):
            ui = _np.asarray(u, dtype=_np.int64)
            vi = _np.asarray(v, dtype=_np.int64)
            wf = _np.asarray(w, dtype=_np.float64)
            if not dense:
                ui = self._map(ui)
                vi = self._map(vi)
            n_records = int(ui.size)
            if all_alive:
                kui, kvi, kept = ui, vi, wf
            else:
                keep = alive[ui] & alive[vi]
                if keep.all():
                    kui, kvi, kept = ui, vi, wf
                elif keep.any():
                    kui = ui[keep]
                    kvi = vi[keep]
                    kept = wf[keep]
                else:
                    return n_records, None, None, None, None, None, 0.0
            bu = _np.bincount(kui, weights=kept)
            bv = _np.bincount(kvi, weights=kept)
            return n_records, kui, kvi, kept, bu, bv, float(kept.sum())

        for n_records, kui, kvi, kept, bu, bv, chunk_weight in self._run_ordered(
            pass_obj.tasks, process
        ):
            pass_obj.count(n_records)
            scanned += n_records
            if kui is None:
                continue
            kept_edges += int(kui.size)
            degrees[: bu.size] += bu
            degrees[: bv.size] += bv
            weight += chunk_weight
            if sink is not None:
                sink.append(kui, kvi, kept)
        self.last_scanned = scanned
        self.last_kept = kept_edges
        return degrees, weight

    def _scan_directed_parallel(self, pass_obj, in_s, in_t, sink, dense):
        """The threaded body of :meth:`scan_directed` (same merge rule)."""
        out_to_t = _np.zeros(self.n, dtype=_np.float64)
        in_from_s = _np.zeros(self.n, dtype=_np.float64)
        weight = 0.0
        scanned = 0
        kept_edges = 0

        def process(u, v, w):
            ui = _np.asarray(u, dtype=_np.int64)
            vi = _np.asarray(v, dtype=_np.int64)
            wf = _np.asarray(w, dtype=_np.float64)
            if not dense:
                ui = self._map(ui)
                vi = self._map(vi)
            n_records = int(ui.size)
            keep = in_s[ui] & in_t[vi]
            if keep.all():
                kui, kvi, kept = ui, vi, wf
            elif keep.any():
                kui = ui[keep]
                kvi = vi[keep]
                kept = wf[keep]
            else:
                return n_records, None, None, None, None, None, 0.0
            bu = _np.bincount(kui, weights=kept)
            bv = _np.bincount(kvi, weights=kept)
            return n_records, kui, kvi, kept, bu, bv, float(kept.sum())

        for n_records, kui, kvi, kept, bu, bv, chunk_weight in self._run_ordered(
            pass_obj.tasks, process
        ):
            pass_obj.count(n_records)
            scanned += n_records
            if kui is None:
                continue
            kept_edges += int(kui.size)
            out_to_t[: bu.size] += bu
            in_from_s[: bv.size] += bv
            weight += chunk_weight
            if sink is not None:
                sink.append(kui, kvi, kept)
        self.last_scanned = scanned
        self.last_kept = kept_edges
        return out_to_t, in_from_s, weight

    def scan_undirected(
        self, stream: EdgeStream, alive, sink=None
    ) -> Tuple["_np.ndarray", float]:
        """Degrees of alive nodes and surviving weight, one stream pass.

        With a ``sink``, every surviving record is also appended to it
        (dense index space) — the fused compaction write.

        With ``threads > 1`` and a task-serving stream (shard stores),
        the per-chunk work fans out to a thread pool; results and
        accounting are bit-identical to the sequential scan.
        """
        pass_obj = self._chunk_tasks(stream, alive=alive)
        if pass_obj is not None:
            return self._scan_undirected_parallel(
                pass_obj, alive, sink, getattr(stream, "dense_ids", False)
            )
        degrees = _np.zeros(self.n, dtype=_np.float64)
        weight = 0.0
        scanned = 0
        kept_edges = 0
        # Pass 1 (and any scan before the first removal) keeps every
        # edge: one O(n) check here skips the O(edges) endpoint gather
        # and mask per chunk.
        all_alive = bool(alive.all())
        for ui, vi, w in self._chunks(stream, alive=alive):
            scanned += int(ui.size)
            if all_alive:
                kui, kvi, kept = ui, vi, _np.asarray(w, dtype=_np.float64)
                kept_edges += int(kui.size)
                b = _np.bincount(kui, weights=kept)
                degrees[: b.size] += b
                b = _np.bincount(kvi, weights=kept)
                degrees[: b.size] += b
                weight += float(kept.sum())
                if sink is not None:
                    sink.append(kui, kvi, kept)
                continue
            keep = alive[ui] & alive[vi]
            if keep.all():
                # Whole chunk survives (typically pass 1): skip the
                # masked re-extraction — three O(chunk) copies.
                kui, kvi, kept = ui, vi, _np.asarray(w, dtype=_np.float64)
            elif keep.any():
                kui = ui[keep]
                kvi = vi[keep]
                kept = w[keep]
            else:
                continue
            kept_edges += int(kui.size)
            # bincount without minlength: the per-chunk accumulate
            # costs O(max surviving id), not O(n) — the dominant
            # constant once compaction shrinks chunks far below the
            # universe size.  Slice-adding is bit-identical to the
            # padded add (the padding would add exact zeros).
            b = _np.bincount(kui, weights=kept)
            degrees[: b.size] += b
            b = _np.bincount(kvi, weights=kept)
            degrees[: b.size] += b
            weight += float(kept.sum())
            if sink is not None:
                sink.append(kui, kvi, kept)
        self.last_scanned = scanned
        self.last_kept = kept_edges
        return degrees, weight

    def scan_directed(
        self, stream: EdgeStream, in_s, in_t, sink=None
    ) -> Tuple["_np.ndarray", "_np.ndarray", float]:
        """w(E(i,T)), w(E(S,j)), and w(E(S,T)), one stream pass."""
        pass_obj = self._chunk_tasks(stream, alive=in_s, dst_alive=in_t)
        if pass_obj is not None:
            return self._scan_directed_parallel(
                pass_obj, in_s, in_t, sink, getattr(stream, "dense_ids", False)
            )
        out_to_t = _np.zeros(self.n, dtype=_np.float64)
        in_from_s = _np.zeros(self.n, dtype=_np.float64)
        weight = 0.0
        scanned = 0
        kept_edges = 0
        for ui, vi, w in self._chunks(stream, alive=in_s, dst_alive=in_t):
            scanned += int(ui.size)
            keep = in_s[ui] & in_t[vi]
            if keep.all():
                kui, kvi, kept = ui, vi, _np.asarray(w, dtype=_np.float64)
            elif keep.any():
                kui = ui[keep]
                kvi = vi[keep]
                kept = w[keep]
            else:
                continue
            kept_edges += int(kui.size)
            b = _np.bincount(kui, weights=kept)
            out_to_t[: b.size] += b
            b = _np.bincount(kvi, weights=kept)
            in_from_s[: b.size] += b
            weight += float(kept.sum())
            if sink is not None:
                sink.append(kui, kvi, kept)
        self.last_scanned = scanned
        self.last_kept = kept_edges
        return out_to_t, in_from_s, weight


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

            self._compactor = Compactor(compaction, stream, directed=False)
            self._compactor.bind(self.n)

    def scan(self, compact: bool = True):
        """One stream pass: degrees of alive nodes and surviving weight.

        ``compact=False`` suppresses any compaction rewrite — for
        terminal valuation scans whose result stream would be thrown
        away with the run.
        """
        sink = None
        if compact and self._compactor is not None and self._compactor.due():
            sink = self._compactor.open_sink()
        try:
            degrees, weight = self._scanner.scan_undirected(
                self.stream, self._alive_arr, sink=sink
            )
        except BaseException:
            # A scan interrupted mid-pass (fault, cancel, I/O error)
            # must not leak the sink's half-written spill store.
            if sink is not None:
                sink.abort()
            raise
        if self._compactor is not None:
            if sink is not None:
                self.stream = self._compactor.finish(sink)
            else:
                self._compactor.observe(
                    self._scanner.last_scanned, self._scanner.last_kept
                )
        return degrees, weight

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

        compactor = Compactor(policy, stream, directed=True)
        # note_nodes reports s_size + t_size, so the trigger
        # baseline is in membership units (2n), not nodes.
        compactor.bind(n, source_nodes=2 * n)

    scan_stream = stream
    try:
        while s_size > 0 and t_size > 0:
            if control is not None:
                control.check_pass(pass_index + 1)
            pass_index += 1
            sink = None
            if compactor is not None and compactor.due():
                sink = compactor.open_sink()
            try:
                out_to_t, in_from_s, weight = scanner.scan_directed(
                    scan_stream, in_s, in_t, sink=sink
                )
            except BaseException:
                if sink is not None:
                    sink.abort()
                raise
            if compactor is not None:
                if sink is not None:
                    scan_stream = compactor.finish(sink)
                else:
                    compactor.observe(scanner.last_scanned, scanner.last_kept)
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
