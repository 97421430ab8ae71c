"""Pass compaction: geometric-shrink scan sources for the peel engines.

The paper's peel removes a constant fraction of nodes per pass, so the
surviving subgraph shrinks geometrically — yet a naive multi-pass
scanner re-reads all m edge records on every pass, paying
O(m · log_{1+ε} n) total scan work.  This module restructures the scan
source to match the shrinking working set: when the surviving-edge
fraction of the current source drops below a threshold, the engines
*fuse* a rewrite into the next degree scan — the same chunked pass that
recomputes the counters also appends every surviving record to a fresh
sink — and subsequent passes scan only that rewritten source.
Successive rewrites form a geometric series, so total bytes scanned are
bounded by O(m/ε) regardless of the pass count.

Mechanics
---------
* A :class:`CompactionPolicy` is the declarative knob bag (threshold,
  spill location, shard count, writer budget, sink cutoffs).
* A :class:`Compactor` owns the trigger state and the lifecycle of the
  rewritten sources for one engine run: it decides *before* each scan
  whether a sink should ride along (``due()``/``open_sink()``), swaps
  the engine's scan source on ``finish()``, and deletes superseded
  spill directories (``close()`` removes everything it created).
* Sinks take survivors straight from the scan: per chunk, the scan
  asks ``reserve(chunk size)`` for an ``(u, v, w)`` triple, its body
  (the C chunk scan, or its numpy fallback) writes the chunk's
  survivors to the first ``kept`` slots in stream order, and
  ``commit(kept)`` takes them — no keep mask, no gather, no copy.
* Sinks are adaptive: records land in one preallocated in-memory
  buffer of ``min(source records, memory_edges)`` slots, and the sink
  upgrades itself to a spill-backed
  :class:`~repro.store.shards.ShardWriter` store (written with skip
  summaries on, so late passes also skip dead shards without opening
  them) only once the survivor count crosses the policy's
  ``memory_edges`` cap — survivor counts are unknown before the scan,
  so the sink adapts rather than guessing.  Below the cap, the buffer's
  filled prefix *is* the rewritten source.

Rewritten sources hold **dense engine indices** (``dense_ids=True``),
not original labels — the engines' scanners skip the label → index
translation for them — and the full universe size, so all O(n) engine
state remains valid across source swaps.  Every rewritten stream shares
the original stream's :class:`~repro.streaming.stream.StreamAccounting`,
so pass/edge/byte counters describe the logical input end-to-end.

Parity is exact by construction: a rewrite stores the same surviving
multiset of edges the filtering scan would have kept, and the engines'
alive masks still filter every scanned record — compaction changes
where bytes come from, never which edges are counted.  Float degree
*sums* are bit-identical on any weights with the memory sink (it keeps
stream order), only on dyadic ones with the spill sink (hash re-shard).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..errors import ParameterError
from .stream import ArrayEdgeStream, EdgeStream

#: Compact when the last scan kept at most this fraction of its source.
DEFAULT_THRESHOLD = 0.5

#: Sources at or below this many records are not worth rewriting.
DEFAULT_MIN_EDGES = 4096

#: Survivor counts at or below this use the in-memory array sink
#: instead of a spill store.  Sized so the first rewrite of a
#: ~20M-edge store stays resident (~120 MiB of arrays, written once by
#: the scan itself) — still well under such a store's own footprint —
#: while the first rewrite of a genuinely huge store spills.  A spill
#: write costs a disk pass over the survivors; the array sink costs
#: nothing beyond the scan's own writes.
DEFAULT_MEMORY_EDGES = 5_000_000

#: Records per ``append_arrays`` call when a memory sink that crossed
#: its cap replays its buffer into the spill writer (~6 MiB a slice).
_REPLAY_SLICE = 1 << 18

#: Spill-sink writer buffer: smaller than the store default so a
#: rewrite's transient memory (held cap + writer buffers) stays
#: clearly below the source store's own footprint.
DEFAULT_SPILL_BUDGET = 16 * 1024 * 1024


@dataclass(frozen=True)
class CompactionPolicy:
    """Declarative knobs for pass compaction.

    Parameters
    ----------
    threshold:
        Shrink trigger in ``(0, 1]``: rewrite the source when the last
        scan kept at most ``threshold`` of the records it read.  Higher
        values compact more eagerly (1.0 rewrites after every shrinking
        pass); the default 0.5 bounds total scanned bytes by ~2·m while
        rewriting O(log) times.
    spill_dir:
        Directory under which spill sinks are created (a fresh
        subdirectory per rewrite).  None uses the system temp dir.
    num_shards:
        Hash partitions of each spill sink.
    memory_budget:
        Spill-sink writer budget in bytes (None: the store default).
    min_edges:
        Sources at or below this many records are never rewritten.
    memory_edges:
        Expected survivor counts at or below this use the in-memory
        array sink instead of a spill store.
    """

    threshold: float = DEFAULT_THRESHOLD
    spill_dir: Optional[str] = None
    num_shards: int = 8
    memory_budget: Optional[int] = None
    min_edges: int = DEFAULT_MIN_EDGES
    memory_edges: int = DEFAULT_MEMORY_EDGES

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise ParameterError(
                f"compaction threshold must be in (0, 1], got {self.threshold}"
            )
        if self.num_shards < 1:
            raise ParameterError(
                f"compaction num_shards must be >= 1, got {self.num_shards}"
            )
        if self.min_edges < 0 or self.memory_edges < 0:
            raise ParameterError("compaction edge cutoffs must be >= 0")

    @classmethod
    def coerce(cls, value) -> Optional["CompactionPolicy"]:
        """A policy from the permissive ``compaction=`` argument forms.

        ``None``/``False`` disable compaction; ``True`` is the default
        policy; a number is a threshold; a policy passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(threshold=float(value))
        raise ParameterError(
            f"compaction must be a bool, a threshold, or a CompactionPolicy, "
            f"got {value!r}"
        )


def _empty_records(size: int):
    """An uninitialised ``(u, v, w)`` int64/int64/float64 triple."""
    return (
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.float64),
    )


class _MemorySink:
    """Survivors written in place into one preallocated buffer, spilling
    past a cap.

    The scan asks ``reserve(chunk size)`` for an ``(u, v, w)`` triple,
    its chunk body writes the survivors to the first ``kept`` slots, and
    ``commit(kept)`` takes them.  While the chunk fits, the triple is a
    window of the sink's own buffer at its fill mark, so the survivors
    are written once and never copied again.  ``capacity`` is at most
    the spill cap and the source's record count (``np.empty``: only the
    pages written are committed).  Survivor counts are not reliably
    predictable before the scan (the node-shrink trigger fires with only
    stale kept-record counts), so a chunk that might cross the capacity
    is scanned into a chunk-sized staging triple instead, reused across
    chunks.  If its survivors do cross it, a spill sink from
    ``spill_factory`` takes over: the filled buffer is replayed into it
    in bounded slices and dropped, and every later chunk goes through
    the staging triple to the spill sink.
    """

    def __init__(self, capacity: int, spill_factory) -> None:
        self._records = _empty_records(capacity)
        self._filled = 0
        self._staging = _empty_records(0)
        self._staged = False
        self._spill_factory = spill_factory
        self._spill = None

    @property
    def spilled(self) -> bool:
        return self._spill is not None

    @property
    def edges_written(self) -> int:
        return self._spill.edges_written if self._spill is not None else self._filled

    def reserve(self, size: int):
        start = self._filled
        self._staged = (
            self._spill is not None or start + size > self._records[0].size
        )
        if not self._staged:
            return tuple(a[start : start + size] for a in self._records)
        if self._staging[0].size < size:
            self._staging = _empty_records(size)
        return tuple(a[:size] for a in self._staging)

    def commit(self, kept: int) -> None:
        if not self._staged:
            self._filled += kept  # written in place
            return
        survivors = tuple(a[:kept] for a in self._staging)
        end = self._filled + kept
        if self._spill is None and end <= self._records[0].size:
            for a, chunk in zip(self._records, survivors):
                a[self._filled : end] = chunk
            self._filled = end
            return
        if self._spill is None:
            self._upgrade()
        self._spill.append(*survivors)

    def _upgrade(self) -> None:
        """Hand the filled buffer to a fresh spill sink and drop it."""
        self._spill = self._spill_factory()
        filled, self._records = self._records, None
        for start in range(0, self._filled, _REPLAY_SLICE):
            end = min(start + _REPLAY_SLICE, self._filled)
            self._spill.append(*(a[start:end] for a in filled))

    def finish(self, num_nodes: int, accounting) -> EdgeStream:
        if self._spill is not None:
            return self._spill.finish(num_nodes, accounting)
        u, v, w = (a[: self._filled] for a in self._records)
        return ArrayEdgeStream(
            u, v, w, num_nodes=num_nodes, dense_ids=True, accounting=accounting
        )

    def abort(self) -> None:
        """Drop the buffers; abort any spill writer (interrupted scan)."""
        self._records = self._staging = None
        if self._spill is not None:
            self._spill.abort()


class _SpillSink:
    """Streams surviving records into a fresh on-disk shard store.

    ``append`` hands each batch to the writer, which copies it into its
    shard buffers, so the memory sink in front of it can reuse one
    staging triple for every chunk."""

    spilled = True

    def __init__(
        self,
        path: str,
        *,
        num_nodes: int,
        num_shards: int,
        memory_budget: Optional[int],
        directed: bool,
    ) -> None:
        from ..store.shards import ShardWriter

        self.path = path
        self._writer = ShardWriter(
            path,
            directed=directed,
            num_shards=num_shards,
            num_nodes=num_nodes,
            memory_budget=(
                memory_budget if memory_budget is not None else DEFAULT_SPILL_BUDGET
            ),
            skip_summaries=True,
        )
        self.edges_written = 0

    def append(self, u, v, w) -> None:
        self._writer.append_arrays(u, v, w)
        self.edges_written += int(u.size)

    def finish(self, num_nodes: int, accounting) -> EdgeStream:
        from .stream import ShardEdgeStream

        store = self._writer.close()
        return ShardEdgeStream(store, dense_ids=True, accounting=accounting)

    def abort(self) -> None:
        self._writer.abort()


class Compactor:
    """Trigger state and spill lifecycle for one engine run.

    The engines drive it through one helper around each scan
    (:func:`~repro.streaming.engine._compacting_scan`): a sink when
    :meth:`due`, then :meth:`finish` to swap the scan source, or
    :meth:`observe` to update the trigger.

    ``num_nodes`` is the dense universe size rewrites are written in.
    ``source_nodes`` sets the node-trigger baseline when the engine's
    alive accounting uses different units than the universe size (the
    directed engine counts S and T memberships separately, so its
    baseline is 2n).

    ``close()`` (engines call it in a ``finally``) removes every spill
    directory the run created; a rewrite that supersedes an earlier
    spill store deletes the superseded directory eagerly, so at most
    one compacted store is ever on disk per run.
    """

    def __init__(
        self,
        policy: CompactionPolicy,
        stream: EdgeStream,
        *,
        directed: bool,
        num_nodes: int,
        source_nodes: Optional[int] = None,
    ) -> None:
        self.policy = policy
        self.accounting = stream.accounting
        self.directed = directed
        self.num_nodes = num_nodes
        try:
            self._source_len: Optional[int] = len(stream)  # type: ignore[arg-type]
        except TypeError:
            self._source_len = None  # unsized source: learn it from scan 1
        self._last_kept: Optional[int] = None
        self._source_nodes = source_nodes if source_nodes is not None else num_nodes
        self._alive_nodes: Optional[int] = None
        self._owned_dirs: List[str] = []
        self.compactions = 0

    def note_nodes(self, alive_count: int) -> None:
        """Record the engine's alive-node count after a removal.

        The node trigger leads the edge trigger by one pass: a scan's
        kept-record count describes its *own* alive set (pass 1 keeps
        everything), so edge shrink only becomes visible one pass after
        the kill that caused it — while the engine knows the node
        shrink immediately.
        """
        self._alive_nodes = alive_count

    def due(self) -> bool:
        """Whether the next scan should carry a compaction sink.

        Fires when either shrink signal crosses the threshold: the
        kept-record fraction of the last scan (exact, lags the kill by
        one pass) or the alive-node fraction of the current source's
        node set (available right after a kill).  Either way the next
        scan reads the old source once more while writing the exact
        survivor set, so a "premature" node-triggered rewrite is still
        correct — it just pays its write earlier.
        """
        if not self._source_len or self._source_len <= self.policy.min_edges:
            return False
        threshold = self.policy.threshold
        if (
            self._last_kept is not None
            and self._last_kept <= threshold * self._source_len
        ):
            return True
        return (
            self._alive_nodes is not None
            and self._alive_nodes <= threshold * self._source_nodes
        )

    def observe(self, scanned: int, kept: int) -> None:
        """Record a sinkless scan's record counts for the trigger.

        ``scanned`` may undercount the source when skip summaries
        dropped shards; the sticky ``_source_len`` keeps the trigger
        anchored to the source's physical record count.
        """
        if self._source_len is None:
            self._source_len = scanned
        self._last_kept = kept

    def open_sink(self):
        """A sink for the next scan's surviving records.

        Always starts in memory, in one buffer of ``min(source records,
        policy.memory_edges)`` slots (:meth:`due` only fires once the
        source's record count is known), and upgrades itself to a spill
        store once more than ``policy.memory_edges`` records survive —
        the survivor count is unknown until the scan runs.
        """
        capacity = min(self._source_len, self.policy.memory_edges)
        return _MemorySink(capacity, spill_factory=self._new_spill)

    def _new_spill(self) -> "_SpillSink":
        path = tempfile.mkdtemp(prefix="compact-", dir=self.policy.spill_dir)
        self._owned_dirs.append(path)
        return _SpillSink(
            path,
            num_nodes=self.num_nodes,
            num_shards=self.policy.num_shards,
            memory_budget=self.policy.memory_budget,
            directed=self.directed,
        )

    def finish(self, sink) -> EdgeStream:
        """Finalize a sink into the run's new scan source."""
        stream = sink.finish(self.num_nodes, self.accounting)
        written = sink.edges_written
        # The new source is exactly the survivor set: reset both
        # trigger baselines so the next rewrite waits for another
        # geometric step.
        self._source_len = written
        self._last_kept = written
        if self._alive_nodes is not None:
            self._source_nodes = self._alive_nodes
        self.compactions += 1
        if sink.spilled:
            # Drop spill dirs superseded by this one (keep the newest).
            while len(self._owned_dirs) > 1:
                shutil.rmtree(self._owned_dirs.pop(0), ignore_errors=True)
        else:
            while self._owned_dirs:
                shutil.rmtree(self._owned_dirs.pop(0), ignore_errors=True)
        return stream

    def close(self) -> None:
        """Delete every spill directory this run created."""
        while self._owned_dirs:
            shutil.rmtree(self._owned_dirs.pop(), ignore_errors=True)


def context_policy(compaction, context, *, shard_input: bool):
    """Resolve a backend's ``compaction=`` option against its context.

    ``compaction`` may be ``None`` (auto), a bool, a threshold number,
    or a :class:`CompactionPolicy`.  Auto enables compaction for
    shard-store inputs running under an explicit resource envelope — a
    memory budget, a spill directory, or a compaction threshold on the
    :class:`~repro.api.context.ExecutionContext` — and stays off
    otherwise.  Context fields fill the policy's spill/shard/budget
    knobs unless the caller passed a full policy.
    """
    if isinstance(compaction, CompactionPolicy):
        return compaction
    if compaction is None:
        if not shard_input:
            return None
        if (
            context.memory_budget is None
            and context.spill_dir is None
            and getattr(context, "compaction_threshold", None) is None
        ):
            return None
        compaction = True
    policy = CompactionPolicy.coerce(compaction)
    if policy is None:
        return None
    threshold = getattr(context, "compaction_threshold", None)
    updates = {
        "spill_dir": context.spill_dir,
        "num_shards": context.shard_count,
    }
    explicit_threshold = isinstance(compaction, (int, float)) and not isinstance(
        compaction, bool
    )
    if threshold is not None and not explicit_threshold:
        updates["threshold"] = threshold
    if context.memory_budget is not None:
        # The context budget is in words; give the spill writer the
        # same envelope in bytes (floored so tiny budgets still write).
        updates["memory_budget"] = max(1 << 20, 8 * context.memory_budget)
    return replace(policy, **updates)
