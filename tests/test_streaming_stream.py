"""Unit tests for repro.streaming.stream."""

import pytest

from repro.errors import StreamError
from repro.graph.generators import gnm_random
from repro.graph.io import write_undirected
from repro.streaming.stream import (
    DirectedGraphEdgeStream,
    FileEdgeStream,
    GeneratorEdgeStream,
    GraphEdgeStream,
    MemoryEdgeStream,
)


class TestMemoryEdgeStream:
    def test_yields_triples(self):
        s = MemoryEdgeStream([(0, 1), (1, 2, 2.5)])
        triples = list(s.edges())
        assert triples == [(0, 1, 1.0), (1, 2, 2.5)]

    def test_bad_tuple_raises(self):
        with pytest.raises(StreamError):
            MemoryEdgeStream([(0, 1, 2, 3)])

    def test_pass_accounting(self):
        s = MemoryEdgeStream([(0, 1), (1, 2)])
        assert s.passes_made == 0
        list(s.edges())
        list(s.edges())
        assert s.passes_made == 2
        assert s.edges_streamed == 4

    def test_reset_accounting(self):
        s = MemoryEdgeStream([(0, 1)])
        list(s.edges())
        s.reset_accounting()
        assert s.passes_made == 0
        assert s.edges_streamed == 0

    def test_explicit_nodes(self):
        s = MemoryEdgeStream([(0, 1)], nodes=[0, 1, 2, 3])
        assert s.num_nodes == 4
        assert s.passes_made == 0  # no discovery pass needed

    def test_discovery_pass_counted(self):
        s = MemoryEdgeStream([(0, 1), (1, 2)])
        nodes = s.nodes()
        assert sorted(nodes) == [0, 1, 2]
        assert s.passes_made == 1
        # Second call reuses the cached universe.
        s.nodes()
        assert s.passes_made == 1

    def test_len(self):
        assert len(MemoryEdgeStream([(0, 1), (1, 2)])) == 2

    def test_iter_protocol(self):
        s = MemoryEdgeStream([(0, 1)])
        assert list(iter(s)) == [(0, 1, 1.0)]
        assert s.passes_made == 1


class TestGraphEdgeStream:
    def test_streams_graph(self, triangle):
        s = GraphEdgeStream(triangle)
        triples = list(s.edges())
        assert len(triples) == 3
        assert s.num_nodes == 3
        assert s.passes_made == 1

    def test_reiterable(self, triangle):
        s = GraphEdgeStream(triangle)
        assert len(list(s.edges())) == len(list(s.edges()))

    def test_directed_stream(self, directed_bowtie):
        s = DirectedGraphEdgeStream(directed_bowtie)
        triples = list(s.edges())
        assert (0, 10, 1.0) in triples
        assert s.num_nodes == directed_bowtie.num_nodes


class TestFileEdgeStream:
    def test_round_trip(self, tmp_path):
        g = gnm_random(20, 50, seed=1)
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        s = FileEdgeStream(path)
        triples = list(s.edges())
        assert len(triples) == 50

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StreamError):
            FileEdgeStream(tmp_path / "nope.txt")

    def test_multiple_passes_reread(self, tmp_path):
        g = gnm_random(10, 20, seed=2)
        path = tmp_path / "g.txt"
        write_undirected(g, path)
        s = FileEdgeStream(path)
        a = sorted(s.edges())
        b = sorted(s.edges())
        assert a == b
        assert s.passes_made == 2


class TestGeneratorEdgeStream:
    def test_regenerates_each_pass(self):
        def factory():
            return [(0, 1, 1.0), (1, 2, 1.0)]

        s = GeneratorEdgeStream(factory, nodes=[0, 1, 2])
        assert list(s.edges()) == list(s.edges())
        assert s.passes_made == 2

    def test_supports_lazy_generators(self):
        def factory():
            return ((i, i + 1, 1.0) for i in range(5))

        s = GeneratorEdgeStream(factory, nodes=range(6))
        assert len(list(s.edges())) == 5


class TestStreamAccounting:
    def test_per_pass_breakdown(self):
        s = MemoryEdgeStream([(1, 2), (2, 3), (3, 1)])
        list(s.edges())
        list(s.edges())
        acct = s.accounting
        assert acct.pass_edges == [3, 3]
        assert acct.pass_bytes == [72, 72]
        assert s.bytes_scanned == 144
        s.reset_accounting()
        assert acct.pass_edges == [] and s.bytes_scanned == 0

    def test_array_pass_counts_bytes(self):
        s = MemoryEdgeStream([(1, 2), (2, 3)])
        assert s.edge_arrays() is not None
        assert s.accounting.pass_edges == [2]
        assert s.bytes_scanned == 48

    def test_shared_accounting_spans_compaction(self):
        s = MemoryEdgeStream([(1, 2), (2, 3), (3, 4)])
        compacted = s.compact({1, 2, 3})
        assert compacted.accounting is s.accounting
        assert s.passes_made == 1  # the compaction pass was counted
        list(compacted.edges())
        assert s.passes_made == 2  # a pass on the child counts on the parent


class TestCompactProtocol:
    def test_base_stream_declines(self):
        s = GeneratorEdgeStream(lambda: [(1, 2, 1.0)], nodes=[1, 2])
        assert s.compact({1, 2}) is None
        assert s.has_array_chunks() is False

    def test_memory_compact_set_and_mask(self):
        import numpy as np

        edges = [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0)]
        s = MemoryEdgeStream(edges, nodes=range(4))
        by_set = s.compact({0, 1, 2})
        assert list(by_set._generate()) == [(0, 1, 2.0), (1, 2, 1.0)]
        mask = np.array([True, True, True, False])
        by_mask = MemoryEdgeStream(edges, nodes=range(4)).compact(mask)
        assert list(by_mask._generate()) == [(0, 1, 2.0), (1, 2, 1.0)]

    def test_memory_compact_directed_masks(self):
        edges = [(0, 1, 1.0), (1, 0, 1.0)]
        s = MemoryEdgeStream(edges)
        out = s.compact({0}, {1})  # source must be 0, destination 1
        assert list(out._generate()) == [(0, 1, 1.0)]


class TestArrayEdgeStream:
    def test_basics(self):
        import numpy as np

        from repro.streaming.stream import ArrayEdgeStream

        s = ArrayEdgeStream([0, 1, 2], [1, 2, 3], [1.0, 2.0, 0.5])
        assert s.num_nodes == 4 and len(s) == 3
        assert sorted(s.nodes()) == [0, 1, 2, 3]
        triples = list(s.edges())
        assert triples == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]
        u, v, w = s.edge_arrays()
        assert u.tolist() == [0, 1, 2]
        assert s.passes_made == 2

    def test_compact_masks(self):
        import numpy as np

        from repro.streaming.stream import ArrayEdgeStream

        s = ArrayEdgeStream([0, 1, 2], [1, 2, 3])
        alive = np.array([True, True, True, False])
        out = s.compact(alive)
        assert len(out) == 2 and out.num_nodes == 4
        assert out.accounting is s.accounting

    def test_validation(self):
        from repro.streaming.stream import ArrayEdgeStream

        with pytest.raises(StreamError, match="equal length"):
            ArrayEdgeStream([0, 1], [1])
        with pytest.raises(StreamError, match="weights"):
            ArrayEdgeStream([0, 1], [1, 2], [1.0])


class TestShardStreamCompact:
    def test_round_trip(self, tmp_path):
        import numpy as np

        from repro.store import ShardedEdgeStore
        from repro.streaming.stream import ShardEdgeStream

        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 4])
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst), directed=False, num_shards=2, num_nodes=5
        )
        s = ShardEdgeStream(store)
        alive = np.array([True, True, True, False, False])
        compacted = s.compact(alive, spill_dir=str(tmp_path / "compacted"))
        assert compacted.accounting is s.accounting
        assert len(compacted) == 2  # (0,1) and (1,2)
        assert compacted.num_nodes == 5  # universe preserved
        kept = sorted((u, v) for u, v, _ in compacted.store.iter_edges())
        assert kept == [(0, 1), (1, 2)]
        # compacted stores carry skip summaries
        assert any(
            compacted.store.shard_summary(i) is not None
            for i in range(compacted.store.num_shards)
        )


# ----------------------------------------------------------------------
# Stream inputs are checked like every other ingest path: bad weights
# raise StreamError, self-loops are dropped.
# ----------------------------------------------------------------------
def _stream_of(kind, triples, tmp_path):
    """One stream class over ``triples`` (int node ids)."""
    import numpy as np

    from repro.streaming.stream import ArrayEdgeStream

    if kind == "array":
        u, v, w = (np.array(col) for col in zip(*triples))
        return ArrayEdgeStream(u, v, w)
    if kind == "memory":
        return MemoryEdgeStream(triples)
    if kind == "generator":
        return GeneratorEdgeStream(lambda: iter(triples))
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in triples))
    return FileEdgeStream(path)


STREAM_KINDS = ["array", "memory", "file", "generator"]


class TestStreamInputValidation:
    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_nan_weight_raises_instead_of_hanging(self, kind, tmp_path):
        from repro.api import DensestSubgraph, solve

        triples = [(0, 1, float("nan")), (1, 2, 1.0), (0, 2, 1.0)]
        # max_passes bounds the solve, so a regression fails, not hangs.
        with pytest.raises(StreamError, match="positive and finite"):
            solve(
                DensestSubgraph(_stream_of(kind, triples, tmp_path), max_passes=3),
                backend="streaming",
            )

    @pytest.mark.parametrize("backend", ["streaming", "sketch"])
    @pytest.mark.parametrize("bad", [float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_non_finite_or_non_positive_weight_raises(
        self, kind, bad, backend, tmp_path
    ):
        from repro.api import DensestSubgraph, solve

        triples = [(0, 1, 1.0), (1, 2, bad), (0, 2, 1.0)]
        with pytest.raises(StreamError, match="positive and finite"):
            solve(
                DensestSubgraph(_stream_of(kind, triples, tmp_path), max_passes=3),
                backend=backend,
            )

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_self_loops_dropped_like_the_store(self, kind, tmp_path):
        import numpy as np

        from repro.api import DensestSubgraph, solve
        from repro.store import ShardedEdgeStore

        triples = [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]
        u, v, w = (np.array(col) for col in zip(*triples))
        store = ShardedEdgeStore.write(
            str(tmp_path / "store"), (u, v, w), directed=False, num_shards=2
        )
        from_store = solve(DensestSubgraph(store), backend="streaming")
        from_stream = solve(
            DensestSubgraph(_stream_of(kind, triples, tmp_path)), backend="streaming"
        )
        assert from_store.density == pytest.approx(2 / 3)
        assert from_stream.density == from_store.density
        assert from_stream.nodes == from_store.nodes
