"""Edge-stream abstractions with pass accounting.

An :class:`EdgeStream` models the semi-streaming input: the node
universe is known (or discoverable in one counted pass) and each call
to :meth:`EdgeStream.edges` performs one *pass*, yielding
``(u, v, weight)`` triples one at a time.  Implementations must be
re-iterable — the peeling algorithms take O(log n) passes.

Accounting lives in a :class:`StreamAccounting` object the stream owns:
passes made, edge records streamed, bytes scanned, and the per-pass
breakdown of the last two.  A stream produced by *pass compaction*
(:meth:`EdgeStream.compact`, or the engines' fused scan-and-rewrite)
shares its parent's accounting object, so a run that switches scan
sources mid-peel still reports one coherent pass/edge/byte trajectory.
Tests and benchmarks use these counters to assert the pass complexity
the paper proves — and, since the compaction layer, that total bytes
scanned shrink geometrically instead of paying O(m) per pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import StreamError
from ..graph.directed import DirectedGraph
from ..graph.io import iter_edge_list
from ..graph.undirected import UndirectedGraph
from ..store.shards import ShardedEdgeStore

Node = Hashable
EdgeTriple = Tuple[Node, Node, float]

_UNSUPPORTED = object()  # edge_arrays() cache sentinel: "cannot vectorize"

#: Nominal bytes per edge record for non-array scans: the shard store's
#: on-disk record layout (i64 u, i64 v, f64 w), so byte accounting is
#: comparable across record-loop and array passes of the same data.
TRIPLE_BYTES = 24


class StreamAccounting:
    """Pass/edge/byte counters, shareable across a compaction chain.

    One instance backs a source stream *and* every compacted stream
    derived from it, so counters describe the logical input, not the
    physical file currently being scanned.
    """

    __slots__ = ("passes_made", "edges_streamed", "bytes_scanned",
                 "pass_edges", "pass_bytes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.passes_made: int = 0
        self.edges_streamed: int = 0
        self.bytes_scanned: int = 0
        #: Edge records / bytes scanned in each pass, in pass order.
        self.pass_edges: List[int] = []
        self.pass_bytes: List[int] = []

    def begin_pass(self) -> None:
        self.passes_made += 1
        self.pass_edges.append(0)
        self.pass_bytes.append(0)

    def count(self, edges: int, nbytes: int) -> None:
        self.edges_streamed += edges
        self.bytes_scanned += nbytes
        if self.pass_edges:
            self.pass_edges[-1] += edges
            self.pass_bytes[-1] += nbytes


class ChunkTaskPass:
    """One counted pass served as independently-runnable chunk tasks.

    ``tasks`` is a list of zero-arg callables, each returning one
    ``(u, v, w)`` array triple; they are thread-safe and may be invoked
    concurrently.  ``count`` must be called exactly once per completed
    chunk — with its record count, from a single thread — which is how
    the pass's edge/byte accounting happens (task invocation itself
    does not count).
    """

    __slots__ = ("tasks", "count")

    def __init__(self, tasks, count: Callable[[int], None]) -> None:
        self.tasks = tasks
        self.count = count


def _alive_test(alive) -> Callable[[Node], bool]:
    """A membership predicate from a set-like or bool-array ``alive``."""
    getitem = getattr(alive, "__getitem__", None)
    if getitem is not None and hasattr(alive, "dtype"):  # numpy mask
        return lambda node: bool(getitem(node))
    return lambda node: node in alive


def _triples_to_arrays(triples):
    """``(u, v, w)`` arrays from a materialized triple list, or None.

    Returns None when the node ids do not convert to a sortable array
    dtype (exotic hashable labels).
    """
    if not triples:
        return None
    us, vs, ws = zip(*triples)
    u = np.asarray(us)
    v = np.asarray(vs)
    if u.dtype == object or v.dtype == object:
        return None
    return u, v, np.asarray(ws, dtype=np.float64)


class EdgeStream(ABC):
    """Abstract multi-pass edge stream.

    Subclasses implement :meth:`_generate` (one pass worth of edges);
    the base class wraps it with pass/edge/byte accounting.
    """

    #: Whether this stream's node ids are already dense engine indices
    #: (``[0, n)`` in universe order).  Set by the compaction layer on
    #: the rewritten streams it produces so the scanners skip the
    #: label → index translation.
    dense_ids: bool = False

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        *,
        accounting: Optional[StreamAccounting] = None,
    ) -> None:
        # Ranges are kept as ranges (dense-identity universes): boxing
        # n ints up front would dominate the O(n) state on big stores.
        if nodes is None or isinstance(nodes, range):
            self._nodes = nodes
        else:
            self._nodes = list(nodes)
        self.accounting = accounting if accounting is not None else StreamAccounting()

    @property
    def passes_made(self) -> int:
        """Passes made over this stream (and its compaction ancestors)."""
        return self.accounting.passes_made

    @property
    def edges_streamed(self) -> int:
        """Edge records streamed across all passes."""
        return self.accounting.edges_streamed

    @property
    def bytes_scanned(self) -> int:
        """Bytes read across all passes (24/record on record paths)."""
        return self.accounting.bytes_scanned

    @abstractmethod
    def _generate(self) -> Iterator[EdgeTriple]:
        """Yield one pass worth of ``(u, v, weight)`` triples."""

    def edges(self) -> Iterator[EdgeTriple]:
        """One accounting-wrapped pass over the stream."""
        acct = self.accounting
        acct.begin_pass()
        for triple in self._generate():
            acct.count(1, TRIPLE_BYTES)
            yield triple

    def edge_arrays(self):
        """One *counted* pass as ``(u, v, w)`` NumPy arrays, or None.

        Streams backed by in-memory data (graph views, memory lists)
        can serve a whole pass as three parallel arrays, which lets the
        engines' vectorized scan kernels skip per-edge iteration
        entirely.  The base implementation returns None — honest
        external streams (files, generators) are consumed through
        :meth:`edges` instead.  A successful call counts exactly like a
        full :meth:`edges` pass.
        """
        return None

    def has_array_chunks(self) -> bool:
        """Whether :meth:`edge_array_chunks` would serve a pass.

        A capability probe that does **not** consume or count a pass
        (calling :meth:`edge_array_chunks` does).
        """
        return False

    def edge_array_chunks(self, alive=None, dst_alive=None):
        """One counted pass as an iterator of ``(u, v, w)`` array triples,
        or None.

        The chunked sibling of :meth:`edge_arrays` for streams whose
        backing data is array-shaped but too large to serve as one
        pass-sized array (shard stores).  Consumers holding O(n) state
        (the engines' vectorized scanners) process one chunk at a time,
        so the pass runs out-of-core.  A non-None return counts as one
        pass regardless of how far the iterator is driven.

        ``alive`` (and, for directed scans, ``dst_alive``) are optional
        boolean masks over the node-id universe: implementations with
        skip indices may omit chunks proven to hold only dead edges.
        Skipping never changes scan results — only dead records are
        elided — but it does reduce the edge/byte accounting, which is
        the point.
        """
        return None

    def edge_array_chunk_tasks(self, alive=None, dst_alive=None):
        """One counted pass as independently-runnable chunk tasks, or None.

        The thread-parallel sibling of :meth:`edge_array_chunks`: a
        :class:`ChunkTaskPass` whose ``tasks`` are zero-arg callables
        each returning one ``(u, v, w)`` array triple.  Tasks are
        thread-safe and may run concurrently; the consumer must merge
        their results in list order (and call ``count`` once per
        completed chunk, from a single thread) so results and
        accounting stay bit-identical with the sequential chunk scan.
        ``alive``/``dst_alive`` are the same skip hints as
        :meth:`edge_array_chunks`.  The base implementation returns
        None (no task-shaped pass available).
        """
        return None

    def compact(self, alive, dst_alive=None):
        """One counted pass rewriting the surviving edges, or None.

        Returns a new stream over exactly the edges whose endpoints
        survive ``alive`` (for directed scans: source endpoint in
        ``alive`` and destination endpoint in ``dst_alive``), sharing
        this stream's accounting object.  ``alive``/``dst_alive``
        accept anything with membership semantics over node labels — a
        set, or a boolean array indexed by integer node id.  The base
        implementation returns None (stream cannot compact).
        """
        return None

    def __iter__(self) -> Iterator[EdgeTriple]:
        return self.edges()

    def nodes(self) -> List[Node]:
        """The node universe (semi-streaming assumption: known up front).

        If the stream was built without an explicit node list, a
        *counted* discovery pass collects the endpoints.
        """
        if self._nodes is None:
            discovered: dict = {}
            for u, v, _ in self.edges():
                discovered.setdefault(u)
                discovered.setdefault(v)
            self._nodes = list(discovered)
        return list(self._nodes)

    def node_universe(self) -> Sequence[Node]:
        """The node universe without a defensive copy.

        Like :meth:`nodes` but may return a shared indexable sequence —
        in particular a ``range`` for dense-identity streams (shard
        stores, array streams), which the engines detect to skip both
        the O(n) boxed-label materialization and the per-label
        int-type scan.  Callers must not mutate the result.
        """
        if isinstance(self._nodes, range):
            return self._nodes
        return self.nodes()

    @property
    def num_nodes(self) -> int:
        """Size of the node universe (may trigger a discovery pass)."""
        return len(self.nodes())

    def reset_accounting(self) -> None:
        """Zero the pass/edge/byte counters (does not touch the data)."""
        self.accounting.reset()


class MemoryEdgeStream(EdgeStream):
    """Stream over an in-memory edge list.

    Accepts ``(u, v)`` or ``(u, v, weight)`` tuples.  Mainly for tests
    and small experiments.
    """

    def __init__(
        self,
        edges: Iterable[Union[Tuple[Node, Node], EdgeTriple]],
        nodes: Optional[Iterable[Node]] = None,
        *,
        accounting: Optional[StreamAccounting] = None,
    ) -> None:
        super().__init__(nodes, accounting=accounting)
        self._edges: List[EdgeTriple] = []
        for edge in edges:
            if len(edge) == 2:
                self._edges.append((edge[0], edge[1], 1.0))
            elif len(edge) == 3:
                self._edges.append((edge[0], edge[1], float(edge[2])))
            else:
                raise StreamError(f"edges must be 2- or 3-tuples, got {edge!r}")

    def _generate(self) -> Iterator[EdgeTriple]:
        return iter(self._edges)

    def edge_arrays(self):
        """Vectorized pass view over the in-memory edge list (cached)."""
        cached = getattr(self, "_arrays", None)
        if cached is None:
            cached = _triples_to_arrays(self._edges)
            self._arrays = _UNSUPPORTED if cached is None else cached
        if cached is _UNSUPPORTED or cached is None:
            return None
        self.accounting.begin_pass()
        self.accounting.count(len(self._edges), len(self._edges) * TRIPLE_BYTES)
        return cached

    def compact(self, alive, dst_alive=None) -> "MemoryEdgeStream":
        """One counted pass keeping edges whose endpoints survive.

        The returned stream shares this stream's node universe and
        accounting; see :meth:`EdgeStream.compact` for the ``alive``
        semantics.
        """
        src_ok = _alive_test(alive)
        dst_ok = src_ok if dst_alive is None else _alive_test(dst_alive)
        kept = [(u, v, w) for u, v, w in self.edges() if src_ok(u) and dst_ok(v)]
        return MemoryEdgeStream(kept, nodes=self._nodes, accounting=self.accounting)

    def __len__(self) -> int:
        return len(self._edges)


class FileEdgeStream(EdgeStream):
    """Stream re-read from a SNAP-style edge-list file on every pass.

    This is the honest streaming setup: nothing but the file handle and
    O(n) state in memory.
    """

    def __init__(
        self,
        path: Union[str, Path],
        nodes: Optional[Iterable[Node]] = None,
        *,
        int_nodes: bool = True,
    ) -> None:
        super().__init__(nodes)
        self._path = Path(path)
        if not self._path.exists():
            raise StreamError(f"edge list not found: {self._path}")
        self._int_nodes = int_nodes

    def _generate(self) -> Iterator[EdgeTriple]:
        for u, v, w in iter_edge_list(self._path):
            if self._int_nodes:
                yield int(u), int(v), w
            else:
                yield u, v, w


class _GraphBackedEdgeStream(EdgeStream):
    """Shared machinery of the graph-view streams.

    ``edge_arrays`` snapshots the graph's edge list into NumPy arrays
    on first use and reuses it for later passes — the stream already
    holds the whole graph in memory, so the snapshot does not change
    the memory class.  The snapshot is keyed on the graph's mutation
    counter and rebuilt when the graph has been edited, so a reused
    stream never computes on stale edges.
    """

    def __init__(self, graph) -> None:
        super().__init__(graph.nodes())
        self._graph = graph

    def _generate(self) -> Iterator[EdgeTriple]:
        return self._graph.weighted_edges()

    def edge_arrays(self):
        # CSR snapshots are immutable and carry no counter; any
        # constant signature is correct for them.
        signature = getattr(self._graph, "_mutations", 0)
        cached = getattr(self, "_arrays", None)
        if cached is None or getattr(self, "_arrays_signature", None) != signature:
            cached = _triples_to_arrays(list(self._graph.weighted_edges()))
            self._arrays = _UNSUPPORTED if cached is None else cached
            self._arrays_signature = signature
            cached = self._arrays
        if cached is _UNSUPPORTED or cached is None:
            return None
        count = int(cached[0].size)
        self.accounting.begin_pass()
        self.accounting.count(count, count * TRIPLE_BYTES)
        return cached


class GraphEdgeStream(_GraphBackedEdgeStream):
    """Stream the edges of an in-memory undirected graph.

    Convenient glue for comparing streaming runs against the in-memory
    reference on the same graph object.
    """

    def __init__(self, graph: UndirectedGraph) -> None:
        super().__init__(graph)


class DirectedGraphEdgeStream(_GraphBackedEdgeStream):
    """Stream the edges of an in-memory directed graph (u -> v order)."""

    def __init__(self, graph: DirectedGraph) -> None:
        super().__init__(graph)


class ShardEdgeStream(EdgeStream):
    """Multi-pass stream over a :class:`~repro.store.ShardedEdgeStore`.

    The out-of-core input mode: each pass walks the store's shards as
    ``np.memmap`` views, so between-pass state stays O(n) and transient
    state O(shard).  The manifest's dense id universe
    (``range(num_nodes)``, isolated trailing nodes included) is the
    node universe — no discovery pass is ever needed.

    Accepts a store object or a path to a store directory.
    """

    def __init__(
        self,
        store,
        *,
        dense_ids: bool = False,
        accounting: Optional[StreamAccounting] = None,
    ) -> None:
        if not isinstance(store, ShardedEdgeStore):
            store = ShardedEdgeStore.open(store)
        super().__init__(accounting=accounting)
        # Keep the identity universe as a range — materializing n boxed
        # ints up front would dominate the O(n) state on large stores;
        # nodes() callers get their list lazily.
        self._nodes = range(store.num_nodes)
        self.store = store
        self.dense_ids = dense_ids

    def _generate(self) -> Iterator[EdgeTriple]:
        return self.store.iter_edges()

    @property
    def num_nodes(self) -> int:
        """Universe size straight from the manifest (no list build)."""
        return self.store.num_nodes

    def has_array_chunks(self) -> bool:
        return True

    def edge_array_chunks(self, alive=None, dst_alive=None):
        """One counted pass, one ``(u, v, w)`` memmap triple per shard.

        With an ``alive`` mask the store's skip summaries drop shards
        whose recorded endpoints are all dead without opening them —
        skipped shards count zero edges and zero bytes.
        """
        acct = self.accounting
        acct.begin_pass()

        def chunks():
            for u, v, w in self.store.iter_shard_arrays(alive, dst_alive):
                acct.count(int(u.size), int(u.size) * TRIPLE_BYTES)
                yield u, v, w

        return chunks()

    def edge_array_chunk_tasks(self, alive=None, dst_alive=None):
        """One counted pass as per-shard reader tasks (see base class).

        Shard selection (including skip-summary elision under an
        ``alive`` mask) matches :meth:`edge_array_chunks` exactly, so a
        task-shaped pass scans the same records and bytes as the
        sequential one.
        """
        acct = self.accounting
        acct.begin_pass()

        def count(records: int) -> None:
            acct.count(int(records), int(records) * TRIPLE_BYTES)

        return ChunkTaskPass(self.store.shard_chunk_readers(alive, dst_alive), count)

    def compact(
        self,
        alive,
        dst_alive=None,
        *,
        spill_dir=None,
        num_shards: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ) -> "ShardEdgeStream":
        """One counted pass writing survivors into a fresh spill store.

        ``alive`` (and ``dst_alive`` for directed stores) must be
        boolean masks over the dense node universe.  The new store
        keeps the full universe size (so downstream index state stays
        valid), is written with skip summaries on, and the returned
        stream shares this stream's accounting.  The caller owns the
        target directory's lifecycle.
        """
        import tempfile

        from ..store.shards import DEFAULT_MEMORY_BUDGET, ShardWriter

        src_alive = np.asarray(alive, dtype=bool)
        dst = src_alive if dst_alive is None else np.asarray(dst_alive, dtype=bool)
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-compact-")
        writer = ShardWriter(
            spill_dir,
            directed=self.store.directed,
            num_shards=num_shards if num_shards is not None else self.store.num_shards,
            num_nodes=self.store.num_nodes,
            memory_budget=(
                memory_budget if memory_budget is not None else DEFAULT_MEMORY_BUDGET
            ),
            skip_summaries=True,
        )
        with writer:
            for u, v, w in self.edge_array_chunks(src_alive, dst if dst_alive is not None else None):
                keep = src_alive[u] & dst[v]
                if keep.any():
                    writer.append_arrays(u[keep], v[keep], w[keep])
        return ShardEdgeStream(
            writer.close(), dense_ids=self.dense_ids, accounting=self.accounting
        )

    def __len__(self) -> int:
        return self.store.num_edges


class ArrayEdgeStream(EdgeStream):
    """Multi-pass stream over resident ``(u, v, w)`` NumPy arrays.

    The in-memory sibling of :class:`ShardEdgeStream`: the compaction
    layer uses it as the sink for surviving-edge rewrites small enough
    to keep resident (the tail of a geometric-shrink run), and it is a
    convenient array-native stream in its own right.  Node ids must be
    integers; ``num_nodes`` declares the universe ``[0, num_nodes)``
    (default: max endpoint + 1).
    """

    def __init__(
        self,
        src,
        dst,
        weights=None,
        *,
        num_nodes: Optional[int] = None,
        dense_ids: bool = False,
        accounting: Optional[StreamAccounting] = None,
    ) -> None:
        u = np.asarray(src, dtype=np.int64)
        v = np.asarray(dst, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise StreamError(
                f"src/dst must be 1-D arrays of equal length, got shapes "
                f"{u.shape} and {v.shape}"
            )
        if weights is None:
            w = np.ones(u.size, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != u.shape:
                raise StreamError(
                    f"weights must match the edge arrays ({u.size} entries), "
                    f"got shape {w.shape}"
                )
        if num_nodes is None:
            num_nodes = int(max(u.max(), v.max())) + 1 if u.size else 0
        super().__init__(range(num_nodes), accounting=accounting)
        self._u, self._v, self._w = u, v, w
        self._num_nodes = num_nodes
        self.dense_ids = dense_ids

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def _generate(self) -> Iterator[EdgeTriple]:
        return zip(self._u.tolist(), self._v.tolist(), self._w.tolist())

    def edge_arrays(self):
        self.accounting.begin_pass()
        self.accounting.count(int(self._u.size), int(self._u.size) * TRIPLE_BYTES)
        return self._u, self._v, self._w

    def compact(self, alive, dst_alive=None) -> "ArrayEdgeStream":
        """One counted pass keeping edges whose endpoints survive.

        ``alive``/``dst_alive`` are boolean masks over the node ids;
        the result shares the universe size and accounting.
        """
        import numpy as np

        src_alive = np.asarray(alive, dtype=bool)
        dst = src_alive if dst_alive is None else np.asarray(dst_alive, dtype=bool)
        u, v, w = self.edge_arrays()
        keep = src_alive[u] & dst[v]
        return ArrayEdgeStream(
            u[keep],
            v[keep],
            w[keep],
            num_nodes=self._num_nodes,
            dense_ids=self.dense_ids,
            accounting=self.accounting,
        )

    def __len__(self) -> int:
        return int(self._u.size)


class GeneratorEdgeStream(EdgeStream):
    """Stream regenerated from a factory on every pass.

    ``factory()`` must return an iterator of ``(u, v, weight)`` triples
    and must be deterministic (same edges every pass) — e.g. a seeded
    synthetic generator.  This allows experiments on streams much larger
    than memory without materializing them.
    """

    def __init__(
        self,
        factory: Callable[[], Iterable[EdgeTriple]],
        nodes: Optional[Iterable[Node]] = None,
    ) -> None:
        super().__init__(nodes)
        self._factory = factory

    def _generate(self) -> Iterator[EdgeTriple]:
        return iter(self._factory())
