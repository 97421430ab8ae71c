"""The semi-streaming chunk scan: stream-order sums on any weights.

The exact streaming engines add every surviving edge's weight to its
degree counters and to the running pass weight one edge at a time, in
the order the edges are read (``repro_scan_edges`` in C, ``np.add.at``
without the C tier).  So on non-dyadic weights, whose float sums
depend on the order of the additions, the answer no longer depends on
where the chunk boundaries fall:

* a scan with memory-sink compaction against one without;
* a 7-shard store against one array of the same edges in the same order;
* a str-labelled stream (read in 65,536-edge record chunks) against the
  int-labelled one (one array chunk).

Out of scope: spill-sink compaction.  The spill writer re-shards the
survivors by ``stable_hash_int64(u) % num_shards``, which reorders the
stream, so on non-dyadic weights a spilled run can still differ from an
uncompacted one in the last float bits.

The C loop and its numpy fallback also give the same bits on each
scan, and both raise :class:`~repro.errors.StreamError` for an id
outside the node universe.  Both write a compaction pass's survivors
straight into the sink's buffer; the tests below also cover a memory
sink that spills in the middle of a scan, the sink's abort on a bad id,
and a short ``emit`` buffer refused before anything is written.
"""

import numpy as np
import pytest

from repro.errors import GraphError, StreamError
from repro.kernels import native
from repro.store import ShardedEdgeStore
from repro.streaming import compaction
from repro.streaming.compaction import CompactionPolicy
from repro.streaming.engine import (
    _StreamScanner,
    stream_densest_subgraph,
    stream_densest_subgraph_atleast_k,
    stream_densest_subgraph_directed,
)
from repro.streaming.stream import (
    ArrayEdgeStream,
    MemoryEdgeStream,
    ShardEdgeStream,
)

N = 4000
EPSILONS = (0.1, 0.5)

#: Runs a test on the C tier, then with ``REPRO_NATIVE=off``.
on_both_tiers = pytest.mark.usefixtures("kernel_tier")


def _edges(seed=11, n=N, m=150_000):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    return u, v, rng.uniform(0.1, 3.1, size=u.size)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A non-dyadic U[0.1, 3.1) store, 7 shards (7 scan chunks)."""
    path = tmp_path_factory.mktemp("scan") / "store"
    return ShardedEdgeStore.write(
        str(path), _edges(), directed=False, num_shards=7, num_nodes=N
    )


@pytest.fixture(scope="module")
def directed_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "directed"
    return ShardedEdgeStore.write(
        str(path), _edges(seed=12), directed=True, num_shards=7, num_nodes=N
    )


def assert_identical(a, b):
    assert a.nodes == b.nodes
    assert a.density == b.density
    assert a.passes == b.passes
    assert a.best_pass == b.best_pass
    assert a.trace == b.trace


# ----------------------------------------------------------------------
# Non-dyadic results do not depend on chunk boundaries
# ----------------------------------------------------------------------
@on_both_tiers
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_memory_compaction_matches_uncompacted(store, epsilon):
    plain = ShardEdgeStream(store)
    compacted = ShardEdgeStream(store)
    a = stream_densest_subgraph(plain, epsilon)
    b = stream_densest_subgraph(
        compacted, epsilon, compaction=CompactionPolicy(threshold=1.0)
    )
    assert_identical(a, b)
    if epsilon == 0.1:  # deep enough a peel for the rewrite to fire
        assert compacted.accounting.bytes_scanned < plain.accounting.bytes_scanned


@on_both_tiers
def test_memory_compaction_matches_uncompacted_atleast_k(store):
    plain = ShardEdgeStream(store)
    compacted = ShardEdgeStream(store)
    a = stream_densest_subgraph_atleast_k(plain, 50, 0.1)
    b = stream_densest_subgraph_atleast_k(
        compacted, 50, 0.1, compaction=CompactionPolicy(threshold=1.0)
    )
    assert_identical(a, b)
    assert compacted.accounting.bytes_scanned < plain.accounting.bytes_scanned


@on_both_tiers
def test_memory_compaction_matches_uncompacted_directed(directed_store):
    plain = ShardEdgeStream(directed_store)
    compacted = ShardEdgeStream(directed_store)
    a = stream_densest_subgraph_directed(plain, 2.0, 0.1)
    b = stream_densest_subgraph_directed(
        compacted, 2.0, 0.1, compaction=CompactionPolicy(threshold=1.0)
    )
    assert (a.s_nodes, a.t_nodes) == (b.s_nodes, b.t_nodes)
    assert a.density == b.density
    assert a.passes == b.passes
    assert a.best_pass == b.best_pass
    assert a.trace == b.trace
    assert compacted.accounting.bytes_scanned < plain.accounting.bytes_scanned


@on_both_tiers
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_store_matches_one_array_chunk(store, epsilon):
    arrays = ArrayEdgeStream(*store.edge_arrays(), num_nodes=N)
    assert_identical(
        stream_densest_subgraph(ShardEdgeStream(store), epsilon),
        stream_densest_subgraph(arrays, epsilon),
    )


@on_both_tiers
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_str_labels_match_int_labels(epsilon):
    u, v, w = _edges(seed=13)
    assert u.size > 65_536  # several record chunks against one array chunk
    triples = list(zip(u.tolist(), v.tolist(), w.tolist()))
    by_int = stream_densest_subgraph(
        MemoryEdgeStream(triples, nodes=range(N)), epsilon
    )
    by_str = stream_densest_subgraph(
        MemoryEdgeStream(
            [(f"n{a}", f"n{b}", x) for a, b, x in triples],
            nodes=[f"n{i}" for i in range(N)],
        ),
        epsilon,
    )
    assert by_str.nodes == {f"n{i}" for i in by_int.nodes}
    assert by_str.density == by_int.density
    assert by_str.passes == by_int.passes
    assert by_str.best_pass == by_int.best_pass
    assert by_str.trace == by_int.trace


# ----------------------------------------------------------------------
# C loop vs numpy fallback on single scans
# ----------------------------------------------------------------------
def _on_tier(monkeypatch, tier, fn):
    if tier == "off":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    else:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
    native.reset_backend_cache()
    try:
        return fn()
    finally:
        native.reset_backend_cache()


class _ListSink:
    """Hands out a fresh triple per chunk and keeps what is committed."""

    def __init__(self):
        self.chunks = []

    def reserve(self, size):
        self._emit = (
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.float64),
        )
        return self._emit

    def commit(self, kept):
        self.chunks.append(tuple(a[:kept] for a in self._emit))

    def survivors(self):
        return tuple(np.concatenate(c) for c in zip(*self.chunks))


def _masks(alive_fraction, seed=5):
    if alive_fraction == 1.0:
        return np.ones(N, dtype=bool), np.ones(N, dtype=bool)
    rng = np.random.default_rng(seed)
    return rng.random(N) < alive_fraction, rng.random(N) < alive_fraction


def _assert_tiers_equal(monkeypatch, run):
    if _on_tier(monkeypatch, "c", native.available_backend) != "c":
        pytest.skip("C kernel backend unavailable (no compiler)")
    c = _on_tier(monkeypatch, "c", run)
    off = _on_tier(monkeypatch, "off", run)
    assert len(c) == len(off)
    for a, b in zip(c, off):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("alive_fraction", [1.0, 0.6])
@pytest.mark.parametrize("with_sink", [False, True])
def test_scan_undirected_tiers_bit_identical(
    monkeypatch, store, alive_fraction, with_sink
):
    alive, _ = _masks(alive_fraction)

    def run():
        sink = _ListSink() if with_sink else None
        scanner = _StreamScanner(range(N))
        degrees, weight = scanner.scan_undirected(ShardEdgeStream(store), alive, sink)
        kept = (scanner.last_scanned, scanner.last_kept)
        return (degrees, weight, kept) + (sink.survivors() if sink else ())

    _assert_tiers_equal(monkeypatch, run)


@pytest.mark.parametrize("alive_fraction", [1.0, 0.6])
@pytest.mark.parametrize("with_sink", [False, True])
def test_scan_directed_tiers_bit_identical(
    monkeypatch, directed_store, alive_fraction, with_sink
):
    in_s, in_t = _masks(alive_fraction)

    def run():
        sink = _ListSink() if with_sink else None
        scanner = _StreamScanner(range(N))
        out_to_t, in_from_s, weight = scanner.scan_directed(
            ShardEdgeStream(directed_store), in_s, in_t, sink
        )
        kept = (scanner.last_scanned, scanner.last_kept)
        return (out_to_t, in_from_s, weight, kept) + (
            sink.survivors() if sink else ()
        )

    _assert_tiers_equal(monkeypatch, run)


@on_both_tiers
def test_sink_gets_exactly_the_survivors(store):
    alive, _ = _masks(0.6)
    sink = _ListSink()
    scanner = _StreamScanner(range(N))
    _, weight = scanner.scan_undirected(ShardEdgeStream(store), alive, sink)
    u, v, w = store.edge_arrays()
    live = alive[u] & alive[v]
    su, sv, sw = sink.survivors()
    np.testing.assert_array_equal(su, u[live])
    np.testing.assert_array_equal(sv, v[live])
    np.testing.assert_array_equal(sw, w[live])
    assert scanner.last_kept == int(live.sum())
    assert weight == pytest.approx(float(w[live].sum()), rel=1e-12)


# ----------------------------------------------------------------------
# The memory sink's spill upgrade and its abort path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dyadic_store(tmp_path_factory):
    """Quarter-integer weights, 64 shards of ~2.3k edges each (the
    first rewrite keeps ~8.7k edges)."""
    u, v, _ = _edges(seed=14)
    w = np.random.default_rng(15).integers(1, 13, size=u.size) / 4.0
    path = tmp_path_factory.mktemp("scan") / "dyadic"
    return ShardedEdgeStore.write(
        str(path), (u, v, w), directed=False, num_shards=64, num_nodes=N
    )


@on_both_tiers
def test_memory_sink_spills_mid_scan(monkeypatch, tmp_path, dyadic_store):
    chunk = max(dyadic_store.manifest.shard_edges)
    upgrades = []
    original = compaction._MemorySink._upgrade

    def recording_upgrade(sink):
        upgrades.append(sink.edges_written)
        original(sink)

    monkeypatch.setattr(compaction._MemorySink, "_upgrade", recording_upgrade)
    spill_root = tmp_path / "spill"
    spill_root.mkdir()
    # Above one chunk, below the first rewrite's survivors: the sink
    # fills its buffer for a few chunks, then replays it into a store.
    memory_edges = 2 * chunk
    policy = CompactionPolicy(
        threshold=1.0, memory_edges=memory_edges, spill_dir=str(spill_root)
    )
    plain = stream_densest_subgraph(ShardEdgeStream(dyadic_store), 0.1)
    compacted = stream_densest_subgraph(
        ShardEdgeStream(dyadic_store), 0.1, compaction=policy
    )
    assert_identical(plain, compacted)
    assert upgrades and all(chunk <= n <= memory_edges for n in upgrades)
    assert list(spill_root.iterdir()) == []


class _BadIdShardStream(ShardEdgeStream):
    """Turns one id of chunk 3 into ``N + 5`` from pass 2 on — the
    first pass that carries a compaction sink at threshold 1.0."""

    def edge_array_chunks(self, alive=None, dst_alive=None):
        chunks = super().edge_array_chunks(alive, dst_alive)
        if self.accounting.passes_made < 2:
            return chunks

        def corrupted():
            for i, (u, v, w) in enumerate(chunks):
                if i == 3:
                    v = np.array(v)
                    v[-1] = N + 5
                yield u, v, w

        return corrupted()


@on_both_tiers
@pytest.mark.parametrize("memory_edges", [0, 10**6])
def test_bad_id_aborts_the_sink(monkeypatch, tmp_path, store, memory_edges):
    aborted = []
    original = compaction._MemorySink.abort

    def recording_abort(sink):
        aborted.append(sink.spilled)
        original(sink)

    monkeypatch.setattr(compaction._MemorySink, "abort", recording_abort)
    spill_root = tmp_path / "spill"
    spill_root.mkdir()
    policy = CompactionPolicy(
        threshold=1.0, min_edges=0, memory_edges=memory_edges,
        spill_dir=str(spill_root),
    )
    with pytest.raises(StreamError, match=rf"endpoint {N + 5} outside"):
        stream_densest_subgraph(_BadIdShardStream(store), 0.1, compaction=policy)
    assert aborted == [memory_edges == 0]
    assert list(spill_root.iterdir()) == []


@on_both_tiers
@pytest.mark.parametrize("short", [0, 1, 2])
def test_scan_edges_rejects_short_emit(short):
    u = np.array([0, 1, 2], dtype=np.int64)
    v = np.array([1, 2, 3], dtype=np.int64)
    w = np.array([0.5, 1.5, 2.5])
    emit = [np.full(3, -7, dtype=np.int64), np.full(3, -7, dtype=np.int64),
            np.full(3, -7.0)]
    emit[short] = emit[short][:2]
    degrees = np.zeros(N)
    with pytest.raises(GraphError, match="at least 3 entries"):
        native.scan_edges(degrees, degrees, u, v, w, None, None, 0.0, tuple(emit))
    assert not degrees.any()
    assert all((a == -7).all() for a in emit)


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
@on_both_tiers
@pytest.mark.parametrize("bad", [N, -1])
def test_dense_ids_outside_universe_raise(bad):
    u = np.array([0, 1, 2, bad, 3], dtype=np.int64)
    v = np.array([1, 2, 3, 0, 0], dtype=np.int64)
    stream = ArrayEdgeStream(u, v, num_nodes=N, dense_ids=True)
    message = rf"endpoint {bad} outside the node universe"
    with pytest.raises(StreamError, match=message):
        stream_densest_subgraph(stream, 0.5)


@on_both_tiers
def test_store_sized_universe_id_outside_raises(store):
    u, v, w = store.edge_arrays()
    v = v.copy()
    v[-1] = N + 7  # a declared universe smaller than the ids
    stream = ArrayEdgeStream(u, v, w, num_nodes=N)
    message = rf"endpoint {N + 7} outside the node universe"
    with pytest.raises(StreamError, match=message):
        stream_densest_subgraph(stream, 0.5)
