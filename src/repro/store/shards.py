"""Out-of-core sharded edge storage (`ShardedEdgeStore`).

The execution engines all consume edges; until now every engine assumed
the edge set fits in one process's memory (dict graphs, CSR snapshots,
in-memory streams).  This module is the storage layer that removes that
assumption: an edge set lives on disk as ``num_shards`` ``.npy`` files
plus a small JSON manifest, and readers get zero-copy ``np.memmap``
views one shard at a time.

Format
------
* Every shard is a standard ``.npy`` file holding a 1-D structured
  array of dtype ``[('u', '<i8'), ('v', '<i8'), ('w', '<f8')]``
  (24 bytes per edge).  The header is padded to a fixed 128-byte
  preamble so the writer can stream records to disk first and patch the
  final count in place — no rewrite, no concatenation pass.
* An edge ``(u, v, w)`` lands in shard ``stable_hash_int64(u) %
  num_shards`` — the same hash the columnar MapReduce shuffle uses, so
  a shard *is* a mapper input split.
* ``manifest.json`` records the store-level facts consumers dispatch
  on: node/edge counts, total weight, weighted/directed flags, and the
  per-shard file names and edge counts.

Crash safety
------------
* Durable writes are atomic: shard records stream into ``*.tmp``
  siblings renamed into place at finalization (the same tmp+rename
  discipline as the kernel build cache), and the manifest — the commit
  record — is written last, also tmp+rename.  A crash at any point
  leaves either the previous complete state or recognizable ``*.tmp``
  debris (swept on the next open/write), never a half-written store
  that reads as valid.
* The manifest records a CRC-32 of every shard's record payload.
  Readers verify file size and (when recorded) checksum lazily on the
  first open of each shard per store instance, raising
  :class:`~repro.errors.StoreCorruptionError` on mismatch instead of
  returning silently-wrong edges.  :meth:`ShardedEdgeStore.verify`
  audits a whole store; :meth:`ShardedEdgeStore.repair` moves damaged
  shards into a ``quarantine/`` subdirectory and marks them in the
  manifest so later reads fail with a clear typed error.

Invariants
----------
* Node ids are dense non-negative int64 indices in ``[0, num_nodes)``;
  the node universe is exactly ``range(num_nodes)`` (isolated trailing
  nodes allowed).  Callers with exotic labels factorize first (the CSR
  builders show how).
* Self-loop records are dropped at write time (the convention of the
  CSR builders and the SNAP readers).
* Undirected records are stored in canonical ``(lo, hi)`` orientation
  — orientation carries no meaning for undirected edges, and the
  canonical form puts both orientations of a duplicated edge in the
  same shard.
* Duplicate edges follow the writer's ``duplicates`` policy:
  ``"keep"`` (default) stores them verbatim — every engine reads edges
  additively, so parallel records behave exactly like one edge with
  the summed weight — while ``"first"`` keeps each edge's first
  occurrence, the semantics of the SNAP readers
  (:func:`repro.graph.io.read_undirected` dedups dumps that list both
  orientations).  Edge-list conversions use ``"first"`` so the sharded
  pipeline answers exactly like the dict/CSR pipelines on the same
  file.

The writer (:class:`ShardWriter`) spills under a configurable memory
budget: appended chunks are buffered per shard and flushed to disk
whenever the buffered bytes exceed the budget, so converting an
arbitrarily large stream needs O(budget + num_shards) memory.

Skip summaries
--------------
A writer opened with ``skip_summaries=True`` additionally records, per
shard, the min/max endpoint id and (when the node universe is declared
up front) a packed bitmap of every node id appearing as an endpoint in
that shard.  Readers use them through
:meth:`ShardedEdgeStore.iter_shard_arrays`'s ``alive=`` filter: a pass
that knows which nodes are still alive skips any shard whose recorded
endpoints are all dead *without opening the memmap* — the test is one
bitwise AND over the packed bitmaps (or a slice of the alive mask when
only min/max are known).  The summaries are advisory metadata: stores
without them scan every shard, and dead-endpoint skipping is always a
*sufficient* condition (a scanned shard may still contribute nothing).
The pass-compaction layer (:mod:`repro.streaming.compaction`) writes
its spill stores with summaries on, which is where shard skipping pays
off — survivors concentrate in ever-fewer shards as the peel shrinks.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .._validation import check_edge_weights
from ..errors import StoreCorruptionError, StoreError
from ..mapreduce.columnar import stable_hash_int64

PathLike = Union[str, Path]

#: On-disk record layout: one row per edge, 24 bytes.
SHARD_DTYPE = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])

#: Manifest schema version (bump on incompatible layout changes).
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
#: Subdirectory `repair()` moves damaged shard files into.
_QUARANTINE_DIR = "quarantine"

#: Default writer spill budget: flush shard buffers past 64 MiB.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

# ----------------------------------------------------------------------
# Fixed-size .npy preamble
# ----------------------------------------------------------------------
#: Total preamble bytes: magic(6) + version(2) + header-length(2) +
#: header(118).  Fixed so the shape can be patched in place after the
#: record stream is on disk.
_PREAMBLE_BYTES = 128
_NPY_MAGIC = b"\x93NUMPY"


def _npy_preamble(
    count: int,
    dtype: np.dtype = SHARD_DTYPE,
    total: int = _PREAMBLE_BYTES,
) -> bytes:
    """A spec-compliant npy v1.0 preamble for ``count`` records.

    The preamble is padded to exactly ``total`` bytes so the shape can
    be patched in place (shards) and so payload offsets are knowable
    without parsing the header (shards and shuffle runs alike).
    """
    descr = np.lib.format.dtype_to_descr(dtype)
    header = "{'descr': %r, 'fortran_order': False, 'shape': (%d,), }" % (
        descr,
        count,
    )
    space = total - 10
    if len(header) + 1 > space:
        raise StoreError(
            f"npy header does not fit {count} records of {descr!r} "
            f"in a {total}-byte preamble"
        )
    header = header.ljust(space - 1) + "\n"
    return _NPY_MAGIC + bytes((1, 0)) + struct.pack("<H", space) + header.encode("latin1")


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass
class ShardSummary:
    """Advisory skip index of one shard: its endpoint universe.

    ``min_node``/``max_node`` bound every endpoint id appearing in the
    shard; ``nodes`` (optional) is the ``np.packbits``-packed bitmap of
    exactly which ids appear.  A shard is provably dead — skippable
    without opening its memmap — when no recorded endpoint is alive.
    Summaries describe a *superset* of the endpoints (dedup passes may
    remove records after the summary was taken), which keeps the skip
    test sufficient.
    """

    min_node: int
    max_node: int
    nodes: Optional[np.ndarray] = None  # packed uint8 bitmap, or None

    def to_entry(self) -> dict:
        entry = {"min_node": self.min_node, "max_node": self.max_node}
        if self.nodes is not None:
            entry["nodes_b64"] = base64.b64encode(self.nodes.tobytes()).decode(
                "ascii"
            )
        return entry

    @classmethod
    def from_entry(cls, entry: dict) -> Optional["ShardSummary"]:
        if "min_node" not in entry or "max_node" not in entry:
            return None
        packed = entry.get("nodes_b64")
        return cls(
            min_node=int(entry["min_node"]),
            max_node=int(entry["max_node"]),
            nodes=(
                np.frombuffer(base64.b64decode(packed), dtype=np.uint8)
                if packed is not None
                else None
            ),
        )

    def may_intersect(self, alive: np.ndarray, alive_packed: np.ndarray) -> bool:
        """Whether any recorded endpoint is alive under ``alive``.

        ``alive_packed`` is ``np.packbits(alive)``, computed once per
        pass by the caller so the per-shard test is one bitwise AND.
        """
        if self.min_node > self.max_node:  # empty shard
            return False
        if self.nodes is not None:
            n = min(self.nodes.size, alive_packed.size)
            return bool(np.bitwise_and(self.nodes[:n], alive_packed[:n]).any())
        lo = max(0, self.min_node)
        hi = min(alive.size, self.max_node + 1)
        return bool(alive[lo:hi].any())


@dataclass
class ShardManifest:
    """The JSON-serializable description of a sharded edge store."""

    num_shards: int
    num_nodes: int
    num_edges: int
    total_weight: float
    weighted: bool
    directed: bool
    shard_files: List[str] = field(default_factory=list)
    shard_edges: List[int] = field(default_factory=list)
    #: Optional per-shard skip summaries (parallel to ``shard_files``;
    #: ``None`` entries mean "no summary, always scan").
    shard_summaries: Optional[List[Optional[ShardSummary]]] = None
    #: Cached content fingerprint (see
    #: :meth:`ShardedEdgeStore.fingerprint`); ``None`` until computed.
    #: Writers never carry one over — any rewrite produces a fresh
    #: manifest with the cache empty, which is the invalidation.
    fingerprint: Optional[str] = None
    format_version: int = FORMAT_VERSION
    #: Optional CRC-32 of each shard's record payload (parallel to
    #: ``shard_files``; ``None`` entries mean "no checksum recorded" —
    #: stores written before checksums, which read fine but verify by
    #: size only).
    shard_crcs: Optional[List[Optional[int]]] = None
    #: Shard indices quarantined by :meth:`ShardedEdgeStore.repair`;
    #: reading a quarantined shard raises ``StoreCorruptionError``.
    quarantined: List[int] = field(default_factory=list)

    def to_json(self) -> str:
        shards = []
        for i, (name, count) in enumerate(zip(self.shard_files, self.shard_edges)):
            entry = {"file": name, "edges": count}
            if self.shard_crcs is not None and self.shard_crcs[i] is not None:
                entry["crc32"] = int(self.shard_crcs[i])
            if i in self.quarantined:
                entry["quarantined"] = True
            if self.shard_summaries is not None:
                summary = self.shard_summaries[i]
                if summary is not None:
                    entry.update(summary.to_entry())
            shards.append(entry)
        payload = {
            "format": "repro-edge-shards",
            "format_version": self.format_version,
            "num_shards": self.num_shards,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "total_weight": self.total_weight,
            "weighted": self.weighted,
            "directed": self.directed,
            "shards": shards,
        }
        if self.fingerprint is not None:
            payload["fingerprint"] = self.fingerprint
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ShardManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"malformed shard manifest: {exc}") from None
        if data.get("format") != "repro-edge-shards":
            raise StoreError(
                f"not a shard-store manifest (format={data.get('format')!r})"
            )
        if data.get("format_version") != FORMAT_VERSION:
            raise StoreError(
                f"unsupported shard-store format_version "
                f"{data.get('format_version')!r} (this build reads {FORMAT_VERSION})"
            )
        shards = data.get("shards", [])
        summaries: List[Optional[ShardSummary]] = [
            ShardSummary.from_entry(s) for s in shards
        ]
        crcs: List[Optional[int]] = [
            int(s["crc32"]) if "crc32" in s else None for s in shards
        ]
        return cls(
            num_shards=int(data["num_shards"]),
            num_nodes=int(data["num_nodes"]),
            num_edges=int(data["num_edges"]),
            total_weight=float(data["total_weight"]),
            weighted=bool(data["weighted"]),
            directed=bool(data["directed"]),
            shard_files=[s["file"] for s in shards],
            shard_edges=[int(s["edges"]) for s in shards],
            shard_summaries=summaries if any(s is not None for s in summaries) else None,
            fingerprint=data.get("fingerprint"),
            shard_crcs=crcs if any(c is not None for c in crcs) else None,
            quarantined=[i for i, s in enumerate(shards) if s.get("quarantined")],
        )


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _as_shard_records(src, dst, weights) -> np.ndarray:
    """Validate one appended chunk and pack it into shard records."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise StoreError(
            f"src/dst must be 1-D arrays of equal length, got shapes "
            f"{src.shape} and {dst.shape}"
        )
    if src.size and (src.dtype.kind not in "iu" or dst.dtype.kind not in "iu"):
        raise StoreError(
            f"shard stores hold integer node ids, got dtypes "
            f"{src.dtype} / {dst.dtype}"
        )
    rec = np.empty(src.size, dtype=SHARD_DTYPE)
    rec["u"] = src
    rec["v"] = dst
    if weights is None:
        rec["w"] = 1.0
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise StoreError(
                f"weights must match the edge arrays ({src.size} entries), "
                f"got shape {weights.shape}"
            )
        check_edge_weights(weights, StoreError)
        rec["w"] = weights
    # Store invariant: no self-loop records.
    loops = rec["u"] == rec["v"]
    if loops.any():
        rec = rec[~loops]
    return rec


def _canonicalize_undirected(rec: np.ndarray) -> np.ndarray:
    """Flip records into the undirected store's ``(lo, hi)`` orientation."""
    flip = rec["u"] > rec["v"]
    if flip.any():
        u = rec["u"][flip]
        rec["u"][flip] = rec["v"][flip]
        rec["v"][flip] = u
    return rec


class ShardWriter:
    """Streaming writer spilling edge records into hash-partitioned shards.

    Use as a context manager; :meth:`close` finalizes the shard headers
    and writes the manifest.  Appends are buffered per shard and
    flushed to disk whenever the buffered bytes exceed
    ``memory_budget``, so writing a store needs O(budget) memory no
    matter how many edges pass through.

    Parameters
    ----------
    path:
        Target directory (created if missing; must not already hold a
        store).
    directed:
        Whether records are directed ``u -> v`` edges.
    num_shards:
        Number of hash partitions (``stable_hash_int64(u) % num_shards``).
    num_nodes:
        Optional explicit node universe ``[0, num_nodes)``; derived as
        ``max id + 1`` at close when omitted.
    memory_budget:
        Spill threshold in buffered bytes.
    duplicates:
        ``"keep"`` (default) stores repeated edges verbatim (additive
        semantics); ``"first"`` keeps each edge's first occurrence —
        applied per shard at :meth:`close` (canonical orientation puts
        all copies of an edge in one shard), so peak memory grows by
        the largest single shard.
    skip_summaries:
        Record per-shard skip summaries (min/max endpoint id, plus the
        endpoint bitmap when ``num_nodes`` is declared) in the
        manifest, enabling dead-shard skipping at read time.  Costs
        O(num_nodes) transient bytes per shard while writing.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; the writer consults
        site ``"store.shard_write"`` once per shard while spilling, so
        tests can crash a write mid-spill deterministically.

    Crash safety: records stream into ``*.tmp`` siblings that are
    renamed into place only at :meth:`close`, with the manifest written
    (atomically) last — an interrupted write leaves no final shard
    files and no manifest, and both :meth:`abort` and the next
    writer/reader on the directory sweep the tmp debris.
    """

    DUPLICATE_POLICIES = ("keep", "first")

    def __init__(
        self,
        path: PathLike,
        *,
        directed: bool,
        num_shards: int = 8,
        num_nodes: Optional[int] = None,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        duplicates: str = "keep",
        skip_summaries: bool = False,
        fault_plan=None,
    ) -> None:
        if num_shards < 1:
            raise StoreError(f"num_shards must be >= 1, got {num_shards}")
        if memory_budget < 1:
            raise StoreError(f"memory_budget must be positive, got {memory_budget}")
        if num_nodes is not None and num_nodes < 0:
            raise StoreError(f"num_nodes must be >= 0, got {num_nodes}")
        if duplicates not in self.DUPLICATE_POLICIES:
            raise StoreError(
                f"duplicates must be one of {self.DUPLICATE_POLICIES}, "
                f"got {duplicates!r}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise StoreError(f"{self.path} already holds a shard store")
        _sweep_tmp_debris(self.path)  # a crashed predecessor's leftovers
        self.num_shards = num_shards
        self._fault_plan = fault_plan
        self._crcs = [0] * num_shards
        self.directed = directed
        self.memory_budget = memory_budget
        self.duplicates = duplicates
        self._declared_nodes = num_nodes
        self._buffers: List[List[np.ndarray]] = [[] for _ in range(num_shards)]
        self._buffered_bytes = 0
        self._handles: List[Optional[object]] = [None] * num_shards
        self._counts = [0] * num_shards
        self._total_weight = 0.0
        self._max_id = -1
        self._weighted = False
        self._closed = False
        self.skip_summaries = skip_summaries
        self._summary_min = [None] * num_shards if skip_summaries else None
        self._summary_max = [None] * num_shards if skip_summaries else None
        # Endpoint-presence bitmaps need the universe size up front; a
        # writer deriving num_nodes at close records min/max only.
        self._summary_seen: Optional[List[Optional[np.ndarray]]] = (
            [None] * num_shards if skip_summaries and num_nodes is not None else None
        )

    # -- context management -------------------------------------------
    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # abandon partial output on error
            self.abort()

    # -- appending -----------------------------------------------------
    def append_arrays(self, src, dst, weights=None) -> None:
        """Append a chunk of parallel edge arrays."""
        if self._closed:
            raise StoreError("writer is closed")
        rec = _as_shard_records(src, dst, weights)
        if rec.size == 0:
            return
        if not self.directed:
            rec = _canonicalize_undirected(rec)
        lo = int(min(rec["u"].min(), rec["v"].min()))
        if lo < 0:
            raise StoreError(f"node ids must be >= 0, got {lo}")
        hi = int(max(rec["u"].max(), rec["v"].max()))
        if self._declared_nodes is not None and hi >= self._declared_nodes:
            raise StoreError(
                f"node id {hi} outside the declared universe "
                f"[0, {self._declared_nodes})"
            )
        self._max_id = max(self._max_id, hi)
        self._total_weight += float(rec["w"].sum())
        if not self._weighted and bool((rec["w"] != 1.0).any()):
            self._weighted = True
        shard_ids = stable_hash_int64(rec["u"]) % self.num_shards
        # Partition with one mask per shard (arrival order preserved
        # within each shard, which the "first" dedup relies on); a
        # range loop beats np.unique's hash pass for the small shard
        # counts stores use.
        for shard in range(self.num_shards):
            mask = shard_ids == shard
            if not mask.any():
                continue
            part = rec[mask]
            self._buffers[shard].append(part)
            self._buffered_bytes += part.nbytes
            if self.skip_summaries:
                self._note_summary(shard, part)
        if self._buffered_bytes > self.memory_budget:
            self.flush()

    def _note_summary(self, shard: int, part: np.ndarray) -> None:
        """Fold one appended chunk into the shard's skip summary."""
        lo = int(min(part["u"].min(), part["v"].min()))
        hi = int(max(part["u"].max(), part["v"].max()))
        cur_lo = self._summary_min[shard]
        self._summary_min[shard] = lo if cur_lo is None else min(cur_lo, lo)
        cur_hi = self._summary_max[shard]
        self._summary_max[shard] = hi if cur_hi is None else max(cur_hi, hi)
        if self._summary_seen is not None:
            seen = self._summary_seen[shard]
            if seen is None:
                seen = np.zeros(self._declared_nodes, dtype=bool)
                self._summary_seen[shard] = seen
            seen[part["u"]] = True
            seen[part["v"]] = True

    def append_edges(self, triples: Iterable[Tuple[int, int, float]],
                     chunk_size: int = 1 << 16) -> None:
        """Append ``(u, v, w)`` triples, packed in bounded chunks."""
        it = iter(triples)
        while True:
            rec = np.fromiter(
                ((u, v, w) for u, v, w in islice(it, chunk_size)),
                dtype=SHARD_DTYPE,
                count=-1,
            )
            if rec.size:
                self.append_arrays(rec["u"], rec["v"], rec["w"])
            if rec.size < chunk_size:
                return

    def flush(self) -> None:
        """Spill every shard buffer to its on-disk ``*.tmp`` file."""
        for shard, chunks in enumerate(self._buffers):
            if not chunks:
                continue
            if self._fault_plan is not None:
                self._fault_plan.fire("store.shard_write", shard)
            handle = self._handles[shard]
            if handle is None:
                handle = open(self.path / _tmp_shard_name(shard), "wb")
                handle.write(_npy_preamble(0))
                self._handles[shard] = handle
            for rec in chunks:
                rec.tofile(handle)
                self._counts[shard] += int(rec.size)
                self._crcs[shard] = zlib.crc32(rec.tobytes(), self._crcs[shard])
            self._buffers[shard] = []
        self._buffered_bytes = 0

    # -- finalization --------------------------------------------------
    def _dedup_shard(self, shard: int, num_nodes: int) -> None:
        """Rewrite one finalized shard keeping each edge's first record."""
        path = self.path / _shard_name(shard)
        rec = np.load(path)
        if rec.size:
            key = rec["u"] * np.int64(num_nodes) + rec["v"]
            first = np.unique(key, return_index=True)[1]
            rec = rec[np.sort(first)]  # first occurrences, arrival order
            tmp = self.path / _tmp_shard_name(shard)
            with open(tmp, "wb") as out:
                out.write(_npy_preamble(int(rec.size)))
                rec.tofile(out)
            os.replace(tmp, path)
            self._crcs[shard] = zlib.crc32(rec.tobytes())
        self._counts[shard] = int(rec.size)
        self._dedup_weight += float(rec["w"].sum())
        if not self._dedup_weighted and bool((rec["w"] != 1.0).any()):
            self._dedup_weighted = True

    def close(self) -> "ShardedEdgeStore":
        """Finalize shard headers, write the manifest, return the store."""
        if self._closed:
            return ShardedEdgeStore.open(self.path)
        try:
            return self._finalize()
        except BaseException:
            self.abort()
            raise

    def _finalize(self) -> "ShardedEdgeStore":
        self.flush()
        num_nodes = (
            self._declared_nodes
            if self._declared_nodes is not None
            else self._max_id + 1
        )
        if self.duplicates == "first" and num_nodes:
            # The dedup key packs (u, v) into one int64.
            if num_nodes > (2**63 - 1) // max(1, num_nodes):
                raise StoreError(
                    f"duplicates='first' needs num_nodes**2 < 2**63, "
                    f"got num_nodes={num_nodes}"
                )
        shard_files: List[str] = []
        for shard in range(self.num_shards):
            name = _shard_name(shard)
            tmp = self.path / _tmp_shard_name(shard)
            handle = self._handles[shard]
            if handle is None:  # empty shard: header only
                with open(tmp, "wb") as out:
                    out.write(_npy_preamble(0))
            else:
                handle.seek(0)
                handle.write(_npy_preamble(self._counts[shard]))
                handle.close()
                self._handles[shard] = None
            os.replace(tmp, self.path / name)
            shard_files.append(name)
        if self.duplicates == "first":
            self._dedup_weight = 0.0
            self._dedup_weighted = False
            for shard in range(self.num_shards):
                self._dedup_shard(shard, num_nodes)
            self._total_weight = self._dedup_weight
            self._weighted = self._dedup_weighted
        summaries: Optional[List[Optional[ShardSummary]]] = None
        if self.skip_summaries:
            summaries = []
            for shard in range(self.num_shards):
                lo, hi = self._summary_min[shard], self._summary_max[shard]
                if lo is None:  # empty shard: min > max, always skippable
                    summaries.append(ShardSummary(min_node=0, max_node=-1))
                    continue
                seen = (
                    self._summary_seen[shard]
                    if self._summary_seen is not None
                    else None
                )
                summaries.append(
                    ShardSummary(
                        min_node=lo,
                        max_node=hi,
                        nodes=np.packbits(seen) if seen is not None else None,
                    )
                )
        manifest = ShardManifest(
            num_shards=self.num_shards,
            num_nodes=num_nodes,
            num_edges=sum(self._counts),
            total_weight=self._total_weight,
            weighted=self._weighted,
            directed=self.directed,
            shard_files=shard_files,
            shard_edges=list(self._counts),
            shard_summaries=summaries,
            shard_crcs=list(self._crcs),
        )
        # The manifest is the commit record: written atomically, last.
        _atomic_write_text(self.path / MANIFEST_NAME, manifest.to_json() + "\n")
        self._closed = True
        # This process just wrote (and checksummed) every byte, so the
        # returned reader skips re-verification.
        return ShardedEdgeStore(self.path, manifest, _trusted=True)

    def abort(self) -> None:
        """Close handles and remove tmp debris — no manifest, no final
        shard files, so the directory never reads as a valid store."""
        for shard, handle in enumerate(self._handles):
            if handle is not None:
                handle.close()
                self._handles[shard] = None
        _sweep_tmp_debris(self.path)
        self._closed = True


def _shard_name(shard: int) -> str:
    return f"shard-{shard:05d}.npy"


def _tmp_shard_name(shard: int) -> str:
    return _shard_name(shard) + ".tmp"


def _sweep_tmp_debris(path: Path) -> None:
    """Remove ``*.tmp`` leftovers of an interrupted writer or rewrite."""
    try:
        for stale in path.glob("*.tmp"):
            try:
                stale.unlink()
            except OSError:  # raced or read-only: harmless either way
                pass
    except OSError:  # pragma: no cover - unreadable dir surfaces later
        pass


def _atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` through a ``*.tmp`` sibling and an atomic rename.

    ``write`` fills the open tmp file.  The tmp name is unique per
    process and thread, so concurrent writers of one file (two solves
    racing to cache a fingerprint or a CSR sidecar) never share a tmp
    file; an interrupted write leaves only ``*.tmp`` debris, which
    :func:`_sweep_tmp_debris` removes.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via tmp + atomic rename."""
    _atomic_write(path, lambda handle: handle.write(text.encode()))


def _payload_crc(path: Path, offset: int = _PREAMBLE_BYTES) -> int:
    """CRC-32 of a file's record payload (preamble excluded)."""
    crc = 0
    with open(path, "rb") as handle:
        handle.seek(offset)
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


# ----------------------------------------------------------------------
# Shuffle run files
# ----------------------------------------------------------------------
#: Fixed preamble of a spilled shuffle run.  Runs carry a structured
#: dtype built from the job's column schema (key field plus one field
#: per value column), whose descr can outgrow the 128-byte shard
#: preamble, so runs get a wider fixed slot.
_RUN_PREAMBLE_BYTES = 256

#: Structured-dtype field holding the int64 shuffle key.
_RUN_KEY_FIELD = "k"


def write_run_file(path: PathLike, keys, columns, *, fault: Optional[str] = None):
    """Spill one hash-partitioned columnar run to ``path``.

    The run is a spec-compliant ``.npy`` file with a fixed
    ``_RUN_PREAMBLE_BYTES`` preamble and a structured-dtype payload:
    field ``"k"`` holds the int64 keys, the remaining fields hold the
    value columns in schema order.  Like shards, runs commit via tmp +
    :func:`os.replace`, so a crashed map task leaves only ``*.tmp``
    debris, never a half-written run.

    ``fault`` injects a failure between the tmp write and the atomic
    rename (the ``mapreduce.shuffle`` fault site): ``"raise"`` raises
    :class:`~repro.errors.InjectedFaultError` leaving the tmp file
    behind, ``"kill_worker"`` SIGKILLs the calling process.

    Returns ``(records, payload_bytes, crc)``; ``payload_bytes`` is
    exactly the run's on-disk payload size, which is what the driver
    meters as shuffle traffic.
    """
    from ..errors import InjectedFaultError

    names = list(columns)
    if _RUN_KEY_FIELD in names:
        raise StoreError(
            f"column name {_RUN_KEY_FIELD!r} collides with the run key field"
        )
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    dtype = np.dtype(
        [(_RUN_KEY_FIELD, "<i8")]
        + [(name, np.asarray(columns[name]).dtype.str) for name in names]
    )
    rows = np.empty(keys.shape[0], dtype=dtype)
    rows[_RUN_KEY_FIELD] = keys
    for name in names:
        rows[name] = columns[name]
    crc = zlib.crc32(rows.data) if rows.shape[0] else 0
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_npy_preamble(rows.shape[0], dtype, _RUN_PREAMBLE_BYTES))
        handle.write(rows.data)
        handle.flush()
    if fault == "kill_worker":  # pragma: no cover - exercised via subprocess
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if fault == "raise":
        raise InjectedFaultError(f"injected fault while spilling run {path.name}")
    os.replace(tmp, path)
    return rows.shape[0], rows.shape[0] * dtype.itemsize, crc


def read_run_file(path: PathLike, *, expected_crc: Optional[int] = None):
    """Memory-map a spilled run back as ``(keys, columns)``.

    When ``expected_crc`` (from the map task's manifest) is given, the
    payload is re-checksummed first and a mismatch raises
    :class:`~repro.errors.StoreCorruptionError` — a corrupted run must
    surface as a typed error, never as silently wrong reduce output.
    """
    path = Path(path)
    if expected_crc is not None:
        crc = _payload_crc(path, offset=_RUN_PREAMBLE_BYTES)
        if crc != expected_crc:
            raise StoreCorruptionError(
                f"shuffle run {path} failed its checksum "
                f"(expected {expected_crc:#010x}, got {crc:#010x})"
            )
    rows = np.load(path, mmap_mode="r")
    names = rows.dtype.names
    if not names or names[0] != _RUN_KEY_FIELD:
        raise StoreCorruptionError(f"shuffle run {path} has no key field")
    return rows[_RUN_KEY_FIELD], {name: rows[name] for name in names[1:]}


def corrupt_run_file(path: PathLike, offset: int = 0) -> None:
    """Flip one payload byte of a spilled run (test/fault helper)."""
    path = Path(path)
    position = _RUN_PREAMBLE_BYTES + offset
    if path.stat().st_size <= position:
        raise StoreError(f"{path}: no payload byte at offset {offset}")
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes((byte[0] ^ 0xFF,)))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _mix_records(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One well-mixed uint64 per edge record, for order-independent
    content fingerprints (weights enter via their IEEE-754 bit image)."""
    uu = u.astype(np.uint64, copy=False)
    vv = v.astype(np.uint64, copy=False)
    wbits = np.ascontiguousarray(w, dtype=np.float64).view(np.uint64)
    mixed = _splitmix64(uu + np.uint64(0x9E3779B97F4A7C15))
    mixed = _splitmix64(mixed ^ _splitmix64(vv + np.uint64(0xD1B54A32D192ED03)))
    return _splitmix64(mixed ^ wbits)


def write_edge_list_store(
    edge_list: PathLike,
    store_path: PathLike,
    *,
    directed: bool,
    num_shards: int = 8,
    num_nodes: Optional[int] = None,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> "ShardedEdgeStore":
    """Convert a SNAP-style edge list (gzip transparent) into a store.

    One streaming pass over the file — node ids must be integers —
    with the writer's usual memory budget, so arbitrarily large lists
    convert in bounded memory (plus one shard for the dedup pass).
    Duplicate lines keep their first occurrence, matching
    :func:`repro.graph.io.read_undirected` / ``read_directed`` — the
    sharded pipeline answers exactly like the dict/CSR pipelines on
    the same file (SNAP dumps commonly list both orientations of every
    undirected edge).
    """
    from ..graph.io import iter_edge_list

    def int_triples():
        for u, v, w in iter_edge_list(edge_list):
            try:
                yield int(u), int(v), w
            except ValueError:
                raise StoreError(
                    f"{edge_list}: shard stores need integer node ids, "
                    f"got {u!r}/{v!r}"
                ) from None

    with ShardWriter(
        store_path,
        directed=directed,
        num_shards=num_shards,
        num_nodes=num_nodes,
        memory_budget=memory_budget,
        duplicates="first",
    ) as writer:
        writer.append_edges(int_triples())
    return ShardedEdgeStore.open(store_path)


# ----------------------------------------------------------------------
# Store (reader)
# ----------------------------------------------------------------------
@dataclass
class StoreVerification:
    """Result of :meth:`ShardedEdgeStore.verify`.

    ``problems`` lists ``(shard, description)`` pairs for every shard
    that failed its integrity checks; an empty list means the store is
    healthy (:attr:`ok`).
    """

    path: Path
    shards: int
    problems: List[Tuple[int, str]]

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_corrupt(self) -> None:
        """Raise :class:`StoreCorruptionError` summarizing any damage."""
        if self.problems:
            detail = "; ".join(msg for _, msg in self.problems)
            raise StoreCorruptionError(f"{self.path}: {detail}")


class ShardedEdgeStore:
    """A finalized on-disk sharded edge set with memmap readers.

    Open an existing store with :meth:`open`; build one with
    :meth:`write` (bulk) or :class:`ShardWriter` (streaming).  All read
    methods hand back NumPy views into ``np.memmap``-loaded shard
    files — touching a shard costs page faults, not a parse.

    Examples
    --------
    >>> import tempfile, numpy as np
    >>> tmp = tempfile.mkdtemp()
    >>> store = ShardedEdgeStore.write(
    ...     tmp, (np.array([0, 1, 2]), np.array([1, 2, 0])),
    ...     directed=False, num_shards=2)
    >>> store.num_nodes, store.num_edges, store.directed
    (3, 3, False)
    """

    def __init__(
        self, path: PathLike, manifest: ShardManifest, *, _trusted: bool = False
    ) -> None:
        self.path = Path(path)
        self.manifest = manifest
        # Shards integrity-checked by this instance (size + CRC on the
        # first memmap open of each).  A writer that just produced the
        # bytes hands back a fully-trusted reader.
        self._verified = set(range(manifest.num_shards)) if _trusted else set()
        # The CSR sidecar record this instance wrote or CRC-checked
        # (repro.store.sidecar); a sidecar matching it maps unchecked.
        self._csr_record: Optional[dict] = None

    # -- construction --------------------------------------------------
    @classmethod
    def open(cls, path: PathLike) -> "ShardedEdgeStore":
        """Open a store directory (or a path to its ``manifest.json``)."""
        path = Path(path)
        if path.name == MANIFEST_NAME:
            path = path.parent
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no shard store at {path} (missing {MANIFEST_NAME})")
        _sweep_tmp_debris(path)
        return cls(path, ShardManifest.from_json(manifest_path.read_text()))

    @classmethod
    def write(
        cls,
        path: PathLike,
        source,
        *,
        directed: bool,
        num_shards: int = 8,
        num_nodes: Optional[int] = None,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        duplicates: str = "keep",
    ) -> "ShardedEdgeStore":
        """Build a store from any edge source.

        ``source`` may be a ``(src, dst)`` or ``(src, dst, weights)``
        tuple of arrays, an :class:`~repro.streaming.stream.EdgeStream`
        (one counted pass; int node ids required), or any iterable of
        ``(u, v, w)`` triples.  ``duplicates`` is the
        :class:`ShardWriter` policy (``"keep"`` or ``"first"``).
        """
        writer = ShardWriter(
            path,
            directed=directed,
            num_shards=num_shards,
            num_nodes=num_nodes,
            memory_budget=memory_budget,
            duplicates=duplicates,
        )
        with writer:
            if isinstance(source, tuple):
                if len(source) == 2:
                    writer.append_arrays(source[0], source[1])
                elif len(source) == 3:
                    writer.append_arrays(*source)
                else:
                    raise StoreError(
                        "array source must be (src, dst) or (src, dst, weights)"
                    )
            else:
                edges = getattr(source, "edges", None)
                if callable(edges):  # EdgeStream: one counted pass
                    writer.append_edges(edges())
                else:
                    writer.append_edges(source)
        return cls.open(path)

    # -- manifest facts ------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of hash partitions."""
        return self.manifest.num_shards

    @property
    def num_nodes(self) -> int:
        """Size of the dense node universe ``[0, num_nodes)``."""
        return self.manifest.num_nodes

    @property
    def num_edges(self) -> int:
        """Total stored edge records across all shards."""
        return self.manifest.num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all stored edge weights."""
        return self.manifest.total_weight

    @property
    def directed(self) -> bool:
        """Whether records are directed ``u -> v`` edges."""
        return self.manifest.directed

    @property
    def weighted(self) -> bool:
        """Whether any stored weight differs from 1."""
        return self.manifest.weighted

    def nbytes(self) -> int:
        """On-disk payload size of the edge records (headers excluded)."""
        return self.num_edges * SHARD_DTYPE.itemsize

    def fingerprint(self, *, cache: bool = True) -> str:
        """Content hash of the stored edge set, for catalog keys.

        A 64-hex-character digest over the edge record *multiset* plus
        the manifest facts consumers dispatch on (node universe,
        directedness) — deliberately independent of record order and of
        the shard partitioning, so two stores holding the same edges
        agree no matter the append order or ``num_shards`` they were
        written with.  Per-record 64-bit mixes are combined with
        commutative reductions (sum and xor), then folded into SHA-256
        with the manifest facts.

        The first computation scans every shard once; the result is
        cached in ``manifest.json`` (``cache=False``, or a read-only
        store directory, skips the write-back) and any rewrite of the
        store produces a fresh manifest without the cached value.
        """
        if self.manifest.fingerprint is not None:
            return self.manifest.fingerprint
        import hashlib

        acc_sum = np.uint64(0)
        acc_xor = np.uint64(0)
        with np.errstate(over="ignore"):
            for u, v, w in self.iter_shard_arrays():
                mixed = _mix_records(np.asarray(u), np.asarray(v), np.asarray(w))
                acc_sum = acc_sum + mixed.sum(dtype=np.uint64)
                acc_xor = acc_xor ^ np.bitwise_xor.reduce(
                    mixed, initial=np.uint64(0)
                )
        m = self.manifest
        digest = hashlib.sha256(
            f"repro-edge-shards:{m.num_nodes}:{int(m.directed)}:"
            f"{m.num_edges}:{int(acc_sum):016x}:{int(acc_xor):016x}".encode()
        ).hexdigest()
        self.manifest.fingerprint = digest
        if cache:
            try:
                _atomic_write_text(
                    self.path / MANIFEST_NAME, self.manifest.to_json() + "\n"
                )
            except OSError:  # read-only store: still return the value
                pass
        return digest

    # -- integrity -----------------------------------------------------
    def _check_shard(self, shard: int, *, deep: bool = True) -> Optional[str]:
        """Integrity-check one shard; returns a problem string or None.

        Size is always checked (truncation detection); the payload CRC
        is checked when the manifest records one and ``deep`` is set.
        """
        m = self.manifest
        if shard in m.quarantined:
            return (
                f"shard {shard} is quarantined (moved to "
                f"{_QUARANTINE_DIR}/ by repair); re-ingest the store"
            )
        path = self.shard_path(shard)
        try:
            size = path.stat().st_size
        except OSError:
            return f"shard {shard} file {path.name} is missing"
        expected = _PREAMBLE_BYTES + m.shard_edges[shard] * SHARD_DTYPE.itemsize
        if size != expected:
            return (
                f"shard {shard} file {path.name} is truncated or padded: "
                f"{size} bytes on disk, manifest says {expected}"
            )
        if deep and m.shard_crcs is not None:
            recorded = m.shard_crcs[shard]
            if recorded is not None:
                actual = _payload_crc(path)
                if actual != recorded:
                    return (
                        f"shard {shard} payload checksum mismatch: "
                        f"crc32 {actual:#010x} != recorded {recorded:#010x}"
                    )
        return None

    def _require_shard(self, shard: int) -> None:
        """Lazily verify a shard on its first open by this instance."""
        if shard in self._verified:
            return
        problem = self._check_shard(shard)
        if problem is not None:
            raise StoreCorruptionError(f"{self.path}: {problem}")
        self._verified.add(shard)

    def verify(self, *, deep: bool = True) -> "StoreVerification":
        """Audit every shard; returns a report instead of raising.

        ``deep=False`` checks existence and size only (cheap);
        ``deep=True`` (default) additionally re-reads each shard's
        payload to validate the manifest CRCs.
        """
        problems = []
        for shard in range(self.num_shards):
            problem = self._check_shard(shard, deep=deep)
            if problem is not None:
                problems.append((shard, problem))
        return StoreVerification(
            path=self.path, shards=self.num_shards, problems=problems
        )

    def repair(self, *, deep: bool = True) -> "StoreVerification":
        """Quarantine every corrupt shard so reads fail fast and typed.

        Damaged shard files move into ``quarantine/`` (evidence is kept,
        never deleted) and the manifest marks the shard quarantined —
        subsequent reads raise :class:`StoreCorruptionError` with a
        clear message instead of a checksum trace.  A healthy store is
        a no-op.  Returns the pre-repair verification report.
        """
        report = self.verify(deep=deep)
        if not report.problems:
            return report
        qdir = self.path / _QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        for shard, _ in report.problems:
            if shard in self.manifest.quarantined:
                continue
            src = self.shard_path(shard)
            if src.exists():
                os.replace(src, qdir / src.name)
            self.manifest.quarantined.append(shard)
            self._verified.discard(shard)
        self.manifest.quarantined.sort()
        _atomic_write_text(
            self.path / MANIFEST_NAME, self.manifest.to_json() + "\n"
        )
        return report

    # -- readers -------------------------------------------------------
    def shard_path(self, shard: int) -> Path:
        """Path of one shard file."""
        return self.path / self.manifest.shard_files[shard]

    def shard_arrays(self, shard: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(u, v, w)`` views of one shard (memmap-backed).

        The first open of each shard by this instance verifies file
        size and (when recorded) payload CRC, raising
        :class:`StoreCorruptionError` on damage."""
        self._require_shard(shard)
        rec = np.load(self.shard_path(shard), mmap_mode="r")
        return rec["u"], rec["v"], rec["w"]

    def shard_summary(self, shard: int) -> Optional[ShardSummary]:
        """The shard's skip summary, or None when the store has none."""
        if self.manifest.shard_summaries is None:
            return None
        return self.manifest.shard_summaries[shard]

    def alive_shards(
        self, alive: np.ndarray, dst_alive: Optional[np.ndarray] = None
    ) -> List[int]:
        """Shards that may still hold a surviving edge under ``alive``.

        ``alive`` is a boolean mask over the dense node universe.  A
        shard is dropped when it is empty, or when its skip summary
        proves every recorded endpoint dead — for directed scans with
        separate source/destination masks (``dst_alive``), an edge
        needs an alive source *and* an alive destination, so a shard
        with no endpoint in either mask is dead.  Without summaries
        only empty shards are dropped.
        """
        alive = np.asarray(alive, dtype=bool)
        masks = [(alive, np.packbits(alive))]
        if dst_alive is not None:
            dst_alive = np.asarray(dst_alive, dtype=bool)
            masks.append((dst_alive, np.packbits(dst_alive)))
        kept: List[int] = []
        for shard in range(self.num_shards):
            if self.manifest.shard_edges[shard] == 0:
                continue
            summary = self.shard_summary(shard)
            if summary is not None and not all(
                summary.may_intersect(mask, packed) for mask, packed in masks
            ):
                continue
            kept.append(shard)
        return kept

    def iter_shard_arrays(
        self,
        alive: Optional[np.ndarray] = None,
        dst_alive: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Iterate shard-by-shard ``(u, v, w)`` memmap views.

        With an ``alive`` mask (and optionally ``dst_alive`` for
        directed source/destination sides), shards whose skip summaries
        prove them dead are not opened at all — see
        :meth:`alive_shards`.
        """
        if alive is None:
            shards: Iterable[int] = range(self.num_shards)
        else:
            shards = self.alive_shards(alive, dst_alive)
        for shard in shards:
            yield self.shard_arrays(shard)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole edge set as contiguous in-memory arrays.

        Materializes O(m); for out-of-core access iterate
        :meth:`iter_shard_arrays` instead.
        """
        us, vs, ws = [], [], []
        for u, v, w in self.iter_shard_arrays():
            us.append(np.asarray(u, dtype=np.int64))
            vs.append(np.asarray(v, dtype=np.int64))
            ws.append(np.asarray(w, dtype=np.float64))
        if not us:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=np.float64)
        return np.concatenate(us), np.concatenate(vs), np.concatenate(ws)

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(u, v, w)`` python triples (the honest slow path)."""
        for u, v, w in self.iter_shard_arrays():
            yield from zip(u.tolist(), v.tolist(), w.tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEdgeStore(path={str(self.path)!r}, "
            f"num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"num_shards={self.num_shards}, directed={self.directed})"
        )
