"""Tests for the sharded edge store and its engine consumers."""

import gzip

import numpy as np
import pytest

from repro.api import DensestSubgraph, ExecutionContext, available_backends, solve
from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.errors import ParameterError, StoreError
from repro.graph.undirected import UndirectedGraph
from repro.kernels import CSRDigraph, CSRGraph
from repro.mapreduce.columnar import stable_hash_int64
from repro.store import SHARD_DTYPE, ShardWriter, ShardedEdgeStore, write_edge_list_store
from repro.streaming.stream import GraphEdgeStream, ShardEdgeStream
from repro.streaming.engine import (
    stream_densest_subgraph,
    stream_densest_subgraph_atleast_k,
)


def _undirected_arrays(seed=0, n=300, m=2000, dyadic=True):
    """Duplicate-free canonical undirected edge arrays (+ dyadic weights)."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, n, (m, 2))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    if dyadic:
        w = rng.choice([0.25, 0.5, 1.0, 2.0], size=src.size)
    else:
        w = np.ones(src.size)
    return src, dst, w, n


def _directed_arrays(seed=0, n=300, m=2500):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    key, idx = np.unique(src[keep] * n + dst[keep], return_index=True)
    src, dst = src[keep][idx].astype(np.int64), dst[keep][idx].astype(np.int64)
    w = rng.choice([0.5, 1.0, 4.0], size=src.size)
    return src, dst, w, n


class TestShardWriter:
    def test_roundtrip_and_manifest(self, tmp_path):
        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False, num_shards=4, num_nodes=n
        )
        assert store.num_nodes == n
        assert store.num_edges == src.size
        assert store.num_shards == 4
        assert not store.directed and store.weighted
        assert store.total_weight == pytest.approx(w.sum())
        assert store.nbytes() == src.size * SHARD_DTYPE.itemsize
        u2, v2, w2 = store.edge_arrays()
        assert np.sort(u2 * n + v2).tolist() == (src * n + dst).tolist()
        assert w2.sum() == pytest.approx(w.sum())

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        with pytest.raises(StoreError, match="finite"):
            ShardedEdgeStore.write(
                tmp_path / "st",
                (np.array([0, 1]), np.array([1, 2]), np.array([1.0, weight])),
                directed=False,
            )
        assert not (tmp_path / "st" / "manifest.json").exists()

    def test_shard_assignment_is_stable_hash(self, tmp_path):
        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst), directed=False, num_shards=3, num_nodes=n
        )
        for shard, (u, v, _) in enumerate(store.iter_shard_arrays()):
            assert (stable_hash_int64(np.asarray(u)) % 3 == shard).all()

    def test_readers_are_memmapped(self, tmp_path):
        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst), directed=False, num_shards=2, num_nodes=n
        )
        rec = np.load(store.shard_path(0), mmap_mode="r")
        assert isinstance(rec, np.memmap)
        assert rec.dtype == SHARD_DTYPE

    def test_self_loops_dropped(self, tmp_path):
        store = ShardedEdgeStore.write(
            tmp_path / "st",
            (np.array([0, 1, 2]), np.array([0, 2, 2])),
            directed=False,
            num_shards=2,
        )
        assert store.num_edges == 1
        assert store.num_nodes == 3  # derived max id + 1

    def test_spill_budget_matches_one_shot(self, tmp_path):
        src, dst, w, n = _undirected_arrays(seed=3)
        one_shot = ShardedEdgeStore.write(
            tmp_path / "a", (src, dst, w), directed=False, num_shards=4, num_nodes=n
        )
        with ShardWriter(
            tmp_path / "b",
            directed=False,
            num_shards=4,
            num_nodes=n,
            memory_budget=1024,  # forces many flushes
        ) as writer:
            for start in range(0, src.size, 137):
                s = slice(start, start + 137)
                writer.append_arrays(src[s], dst[s], w[s])
        spilled = ShardedEdgeStore.open(tmp_path / "b")
        for a, b in zip(one_shot.iter_shard_arrays(), spilled.iter_shard_arrays()):
            for x, y in zip(a, b):
                assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_empty_store(self, tmp_path):
        store = ShardedEdgeStore.write(
            tmp_path / "st",
            (np.empty(0, np.int64), np.empty(0, np.int64)),
            directed=False,
            num_shards=2,
            num_nodes=5,
        )
        assert store.num_edges == 0 and store.num_nodes == 5
        assert all(u.size == 0 for u, _, _ in store.iter_shard_arrays())

    def test_rejects_negative_ids(self, tmp_path):
        with pytest.raises(StoreError, match=">= 0"):
            ShardedEdgeStore.write(
                tmp_path / "st",
                (np.array([-1, 0]), np.array([1, 2])),
                directed=False,
            )

    def test_rejects_ids_outside_declared_universe(self, tmp_path):
        with pytest.raises(StoreError, match="outside the declared universe"):
            ShardedEdgeStore.write(
                tmp_path / "st",
                (np.array([0, 9]), np.array([1, 2])),
                directed=False,
                num_nodes=5,
            )

    def test_rejects_existing_store(self, tmp_path):
        ShardedEdgeStore.write(
            tmp_path / "st", (np.array([0]), np.array([1])), directed=False
        )
        with pytest.raises(StoreError, match="already holds"):
            ShardWriter(tmp_path / "st", directed=False)

    def test_open_missing(self, tmp_path):
        with pytest.raises(StoreError, match="no shard store"):
            ShardedEdgeStore.open(tmp_path / "nope")


class TestFromShards:
    def test_undirected_bit_parity(self, tmp_path):
        src, dst, w, n = _undirected_arrays(seed=5)
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False, num_shards=5, num_nodes=n
        )
        a = CSRGraph.from_edge_arrays(src, dst, w, num_nodes=n)
        b = CSRGraph.from_shards(store)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.degrees, b.degrees)
        assert a.total_weight == b.total_weight
        for eps in (0.0, 0.1, 0.5):
            ra = densest_subgraph(a, eps, engine="numpy")
            rb = densest_subgraph(b, eps, engine="numpy")
            assert ra.nodes == rb.nodes and ra.trace == rb.trace

    def test_directed_bit_parity(self, tmp_path):
        src, dst, w, n = _directed_arrays(seed=6)
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=True, num_shards=3, num_nodes=n
        )
        a = CSRDigraph.from_edge_arrays(src, dst, w, num_nodes=n)
        b = CSRDigraph.from_shards(store)
        for attr in (
            "out_indptr", "out_indices", "out_weights",
            "in_indptr", "in_indices", "in_weights",
        ):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
        ra = densest_subgraph_directed(a, ratio=1.0, epsilon=0.5, engine="numpy")
        rb = densest_subgraph_directed(b, ratio=1.0, epsilon=0.5, engine="numpy")
        assert ra.s_nodes == rb.s_nodes and ra.t_nodes == rb.t_nodes
        assert ra.trace == rb.trace

    def test_orientation_mismatch_rejected(self, tmp_path):
        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst), directed=False, num_shards=2, num_nodes=n
        )
        with pytest.raises(Exception, match="CSRDigraph.from_shards|undirected"):
            CSRDigraph.from_shards(store)


def _parallel_duplicate_arrays(seed, n=120, m=1500):
    """Edge arrays full of parallel records in both orientations, e.g.
    ``(1, 2, w1)`` and ``(2, 1, w2)``, with non-dyadic weights."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    flip = m // 3
    src = np.concatenate([src, dst[:flip], src[:flip]])
    dst = np.concatenate([dst, src[:flip], dst[:flip]])
    w = rng.random(src.size) * 3.0 + 0.1
    return src.astype(np.int64), dst.astype(np.int64), w, n


def _reference_csr(n, rows, cols, weights):
    """CSR of COO entries ordered by row, then column, ties in entry
    order — the order ``from_shards`` must reproduce."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order].astype(np.int32), weights[order]


class TestFromShardsFill:
    """``from_shards`` fills rows in shard order and keeps parallel
    duplicates.  Both kernel tiers must match one reference byte for
    byte, so the C and the ``REPRO_NATIVE=off`` builds are identical."""

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_undirected_parallel_duplicates(self, tmp_path, kernel_tier, num_shards):
        src, dst, w, n = _parallel_duplicate_arrays(seed=21)
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False,
            num_shards=num_shards, num_nodes=n,
        )
        csr = CSRGraph.from_shards(store)
        shards = list(store.iter_shard_arrays())
        u = np.concatenate([a for a, _, _ in shards])
        v = np.concatenate([b for _, b, _ in shards])
        ws = np.concatenate([c for _, _, c in shards])
        assert u.size == src.size - np.count_nonzero(src == dst)
        # per shard: the u->v entries of a row precede its v->u entries
        rows = np.concatenate([np.concatenate([a, b]) for a, b, _ in shards])
        cols = np.concatenate([np.concatenate([b, a]) for a, b, _ in shards])
        both = np.concatenate([np.concatenate([c, c]) for _, _, c in shards])
        indptr, indices, data = _reference_csr(n, rows, cols, both)
        assert csr.indptr.tobytes() == indptr.tobytes()
        assert csr.indices.tobytes() == indices.tobytes()
        assert csr.weights.tobytes() == data.tobytes()
        degrees = np.zeros(n)
        for a, b, c in shards:
            degrees += np.bincount(a, weights=c, minlength=n)
            degrees += np.bincount(b, weights=c, minlength=n)
        assert csr.degrees.tobytes() == degrees.tobytes()
        assert csr.total_weight == pytest.approx(ws.sum())

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_directed_parallel_duplicates(self, tmp_path, kernel_tier, num_shards):
        src, dst, w, n = _parallel_duplicate_arrays(seed=22)
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=True,
            num_shards=num_shards, num_nodes=n,
        )
        csr = CSRDigraph.from_shards(store)
        shards = list(store.iter_shard_arrays())
        u = np.concatenate([a for a, _, _ in shards])
        v = np.concatenate([b for _, b, _ in shards])
        ws = np.concatenate([c for _, _, c in shards])
        for side, rows, cols in (("out", u, v), ("in", v, u)):
            indptr, indices, data = _reference_csr(n, rows, cols, ws)
            degrees = np.zeros(n)
            for a, b, c in shards:
                degrees += np.bincount(a if side == "out" else b, weights=c, minlength=n)
            assert getattr(csr, f"{side}_indptr").tobytes() == indptr.tobytes()
            assert getattr(csr, f"{side}_indices").tobytes() == indices.tobytes()
            assert getattr(csr, f"{side}_weights").tobytes() == data.tobytes()
            assert getattr(csr, f"{side}_degrees").tobytes() == degrees.tobytes()


class TestCsrFillSafety:
    """A bad record raises GraphError from ``csr_fill`` instead of
    writing outside the CSR arrays."""

    def _arrays(self, n=4, slots=(2, 1, 0, 1)):
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(slots, out=indptr[1:])
        cursor = indptr[:-1].astype(np.int64)
        indices = np.full(int(indptr[-1]), -7, dtype=np.int32)
        data = np.full(indices.size, -7.0)
        return indptr, cursor, indices, data

    def test_fills_rows_in_input_order(self, kernel_tier):
        from repro.kernels import native

        indptr, cursor, indices, data = self._arrays()
        native.csr_fill(
            np.array([0, 3, 0, 1]), np.array([2, 0, 1, 3]),
            np.array([0.1, 0.2, 0.3, 0.4]), indptr, cursor, indices, data,
        )
        assert indices.tolist() == [2, 1, 3, 0]
        assert data.tolist() == [0.1, 0.3, 0.4, 0.2]
        assert cursor.tolist() == indptr[1:].tolist()

    @pytest.mark.parametrize(
        "rows, cols",
        [([0, 4], [1, 1]), ([0, -1], [1, 1]), ([0, 1], [4, 1]),
         ([0, 1], [1, -5]), ([2**40], [0])],
    )
    def test_out_of_range_id(self, kernel_tier, rows, cols):
        from repro.errors import GraphError
        from repro.kernels import native

        indptr, cursor, indices, data = self._arrays()
        with pytest.raises(GraphError):
            native.csr_fill(
                np.array(rows), np.array(cols), np.ones(len(rows)),
                indptr, cursor, indices, data,
            )

    @pytest.mark.parametrize("rows", [[1, 1], [2], [0, 0, 0], [3, 1, 3]])
    def test_row_overflow(self, kernel_tier, rows):
        from repro.errors import GraphError
        from repro.kernels import native

        indptr, cursor, indices, data = self._arrays()
        with pytest.raises(GraphError):
            native.csr_fill(
                np.array(rows), np.zeros(len(rows), dtype=np.int64),
                np.ones(len(rows)), indptr, cursor, indices, data,
            )

    def test_overflow_after_earlier_fill(self, kernel_tier):
        from repro.errors import GraphError
        from repro.kernels import native

        indptr, cursor, indices, data = self._arrays()
        native.csr_fill(np.array([1]), np.array([0]), np.ones(1),
                        indptr, cursor, indices, data)
        with pytest.raises(GraphError):
            native.csr_fill(np.array([1]), np.array([2]), np.ones(1),
                            indptr, cursor, indices, data)


class TestShardEdgeStream:
    def _graph_and_store(self, tmp_path, dyadic=True):
        src, dst, w, n = _undirected_arrays(seed=7, dyadic=dyadic)
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False, num_shards=4, num_nodes=n
        )
        graph = UndirectedGraph()
        graph.add_nodes_from(range(n))
        for u, v, weight in zip(src.tolist(), dst.tolist(), w.tolist()):
            graph.add_edge(u, v, weight)
        return graph, store

    def test_node_universe_without_discovery_pass(self, tmp_path):
        _, store = self._graph_and_store(tmp_path)
        stream = ShardEdgeStream(store)
        assert stream.num_nodes == store.num_nodes
        assert stream.passes_made == 0  # manifest, not a discovery pass
        assert len(stream) == store.num_edges

    def test_accepts_path(self, tmp_path):
        _, store = self._graph_and_store(tmp_path)
        stream = ShardEdgeStream(store.path)
        assert stream.num_nodes == store.num_nodes

    def test_chunked_pass_accounting(self, tmp_path):
        _, store = self._graph_and_store(tmp_path)
        stream = ShardEdgeStream(store)
        chunks = stream.edge_array_chunks()
        total = sum(int(u.size) for u, _, _ in chunks)
        assert total == store.num_edges
        assert stream.passes_made == 1
        assert stream.edges_streamed == store.num_edges

    def test_streaming_engine_parity(self, tmp_path):
        graph, store = self._graph_and_store(tmp_path)
        ref = stream_densest_subgraph(GraphEdgeStream(graph), 0.2)
        got = stream_densest_subgraph(ShardEdgeStream(store), 0.2)
        assert ref.nodes == got.nodes
        assert ref.trace == got.trace
        assert ref.passes == got.passes

    def test_atleast_k_parity(self, tmp_path):
        graph, store = self._graph_and_store(tmp_path)
        ref = stream_densest_subgraph_atleast_k(GraphEdgeStream(graph), 40, 0.3)
        got = stream_densest_subgraph_atleast_k(ShardEdgeStream(store), 40, 0.3)
        assert ref.nodes == got.nodes and ref.trace == got.trace


class TestEdgeListConversion:
    def _write_list(self, path, gz=False):
        lines = "# comment\n0 1\n1 2\n2 0\n2 0\n3 3\n10 11 2.5\n"
        if gz:
            with gzip.open(path, "wt", encoding="utf-8") as handle:
                handle.write(lines)
        else:
            path.write_text(lines)

    def test_convert_plain(self, tmp_path):
        edge_list = tmp_path / "g.txt"
        self._write_list(edge_list)
        store = write_edge_list_store(
            edge_list, tmp_path / "st", directed=False, num_shards=2
        )
        # self-loop dropped, duplicate line dedup'd first-wins (the
        # SNAP-reader semantics)
        assert store.num_edges == 4
        assert store.num_nodes == 12
        assert store.weighted
        assert store.total_weight == pytest.approx(3 * 1.0 + 2.5)

    def test_convert_gzip(self, tmp_path):
        edge_list = tmp_path / "g.txt.gz"
        self._write_list(edge_list, gz=True)
        store = write_edge_list_store(
            edge_list, tmp_path / "st", directed=True, num_shards=2
        )
        assert store.num_edges == 4 and store.directed

    def test_both_orientations_match_snap_reader(self, tmp_path):
        """A SNAP dump listing both orientations answers identically on
        the dict and sharded pipelines (the readers' first-wins dedup)."""
        from repro.graph.io import read_undirected
        from repro.streaming.engine import stream_densest_subgraph
        from repro.streaming.stream import GraphEdgeStream

        edge_list = tmp_path / "g.txt"
        lines = []
        for u in range(4):
            for v in range(4):
                if u != v:
                    lines.append(f"{u} {v}")  # every edge, both ways
        edge_list.write_text("\n".join(lines) + "\n")
        graph = read_undirected(edge_list)
        store = write_edge_list_store(
            edge_list, tmp_path / "st", directed=False, num_shards=3
        )
        assert store.num_edges == graph.num_edges == 6
        ref = stream_densest_subgraph(GraphEdgeStream(graph), 0.2)
        got = stream_densest_subgraph(ShardEdgeStream(store), 0.2)
        assert ref.density == got.density == 1.5

    def test_keep_policy_stores_duplicates_verbatim(self, tmp_path):
        store = ShardedEdgeStore.write(
            tmp_path / "st",
            (np.array([0, 1, 0]), np.array([1, 0, 1])),
            directed=False,
            num_shards=2,
        )
        assert store.num_edges == 3  # additive semantics, canonical (0, 1)
        u, v, _ = store.edge_arrays()
        assert u.tolist() == [0, 0, 0] and v.tolist() == [1, 1, 1]

    def test_rejects_string_ids(self, tmp_path):
        edge_list = tmp_path / "g.txt"
        edge_list.write_text("a b\n")
        with pytest.raises(StoreError, match="integer node ids"):
            write_edge_list_store(edge_list, tmp_path / "st", directed=False)


class TestStoreProblems:
    def _store(self, tmp_path, directed=False):
        if directed:
            src, dst, w, n = _directed_arrays(seed=8)
        else:
            src, dst, w, n = _undirected_arrays(seed=8)
        return ShardedEdgeStore.write(
            tmp_path / ("d" if directed else "u"),
            (src, dst, w),
            directed=directed,
            num_shards=3,
            num_nodes=n,
        ), (src, dst, w, n)

    def test_input_mode_and_backends(self, tmp_path):
        store, _ = self._store(tmp_path)
        problem = DensestSubgraph(store, epsilon=0.3)
        assert problem.input_mode == "shards"
        assert available_backends(problem) == [
            "core",
            "streaming",
            "sketch",
            "mapreduce",
        ]

    def test_direction_validation(self, tmp_path):
        directed_store, _ = self._store(tmp_path, directed=True)
        with pytest.raises(ParameterError, match="DirectedDensest"):
            DensestSubgraph(directed_store)
        undirected_store, _ = self._store(tmp_path)
        from repro.api import DirectedDensest

        with pytest.raises(ParameterError, match="directed input"):
            DirectedDensest(undirected_store)

    def test_solve_parity_store_vs_csr(self, tmp_path):
        store, (src, dst, w, n) = self._store(tmp_path)
        csr = CSRGraph.from_edge_arrays(src, dst, w, num_nodes=n)
        for backend in ("core", "streaming", "mapreduce"):
            for eps in (0.0, 0.1, 0.5):
                a = solve(DensestSubgraph(store, epsilon=eps), backend=backend)
                b = solve(DensestSubgraph(csr, epsilon=eps), backend=backend)
                assert a.nodes == b.nodes, (backend, eps)
                assert a.density == b.density, (backend, eps)
                assert a.certificate == b.certificate, (backend, eps)

    def test_auto_dispatch_respects_memory_budget(self, tmp_path):
        store, (_, _, _, n) = self._store(tmp_path)
        problem = DensestSubgraph(store, epsilon=0.5)
        assert solve(problem).backend == "core"
        # A budget below the CSR footprint forces the O(n) streaming engine.
        assert solve(problem, memory_budget=5 * n).backend == "streaming"
        assert (
            solve(problem, context=ExecutionContext(memory_budget=5 * n)).backend
            == "streaming"
        )

    def test_auto_dispatch_runs_native_tier(self, tmp_path, monkeypatch):
        """A store past the native cutoff runs ``core`` on the C tier,
        with the numpy tier's nodes, passes and integer trace fields."""
        from repro.kernels import NATIVE_SIZE_CUTOFF, native, native_backend

        if native_backend() is None:
            pytest.skip("no compiled kernel backend in this environment")
        src, dst, w, n = _undirected_arrays(seed=4, n=NATIVE_SIZE_CUTOFF + 500, m=12000)
        store = ShardedEdgeStore.write(
            tmp_path / "big", (src, dst, w), directed=False, num_shards=3, num_nodes=n
        )
        calls = []
        real = native.peel_undirected
        monkeypatch.setattr(
            native,
            "peel_undirected",
            lambda *a, **kw: calls.append(a) or real(*a, **kw),
        )
        for eps in (0.1, 0.5):
            problem = DensestSubgraph(store, epsilon=eps)
            auto = solve(problem)
            assert auto.backend == "core"
            assert len(calls) == 1
            calls.clear()
            ref = solve(problem, backend="core", engine="numpy")
            assert not calls
            assert auto.nodes == ref.nodes
            assert auto.cost.passes == ref.cost.passes
            assert [
                (p.nodes_before, p.removed, p.nodes_after) for p in auto.certificate
            ] == [(p.nodes_before, p.removed, p.nodes_after) for p in ref.certificate]


class TestSkipSummaries:
    """Per-shard skip indices: min/max + endpoint bitmaps (manifest)."""

    def _summarized_store(self, tmp_path, n=40, num_shards=4):
        from repro.store.shards import ShardWriter

        rng = np.random.default_rng(5)
        src = rng.integers(0, n, size=300)
        dst = rng.integers(0, n, size=300)
        keep = src != dst
        with ShardWriter(
            tmp_path / "summarized",
            directed=False,
            num_shards=num_shards,
            num_nodes=n,
            skip_summaries=True,
        ) as writer:
            writer.append_arrays(src[keep], dst[keep])
        return ShardedEdgeStore.open(tmp_path / "summarized"), n

    def test_manifest_round_trip(self, tmp_path):
        store, n = self._summarized_store(tmp_path)
        reopened = ShardedEdgeStore.open(store.path)
        for shard in range(store.num_shards):
            summary = reopened.shard_summary(shard)
            if store.manifest.shard_edges[shard] == 0:
                continue
            u, v, _ = store.shard_arrays(shard)
            endpoints = np.union1d(u, v)
            assert summary.min_node == int(endpoints.min())
            assert summary.max_node == int(endpoints.max())
            unpacked = np.unpackbits(summary.nodes)[:n].astype(bool)
            assert np.array_equal(np.flatnonzero(unpacked), endpoints)

    def test_alive_filter_preserves_surviving_edges(self, tmp_path):
        store, n = self._summarized_store(tmp_path)
        rng = np.random.default_rng(11)
        alive = rng.random(n) < 0.2
        survivors = sorted(
            (int(u), int(v))
            for u, v, _ in store.iter_edges()
            if alive[u] and alive[v]
        )
        scanned = []
        for u, v, _ in store.iter_shard_arrays(alive=alive):
            keep = alive[u] & alive[v]
            scanned.extend(zip(u[keep].tolist(), v[keep].tolist()))
        assert sorted(scanned) == survivors

    def test_dead_shards_not_opened(self, tmp_path, monkeypatch):
        store, n = self._summarized_store(tmp_path)
        # Kill every endpoint of shard 0: the scan must skip it.
        u, v, _ = store.shard_arrays(0)
        alive = np.ones(n, dtype=bool)
        alive[np.union1d(u, v)] = False
        opened = []
        original = ShardedEdgeStore.shard_arrays

        def spy(self, shard):
            opened.append(shard)
            return original(self, shard)

        monkeypatch.setattr(ShardedEdgeStore, "shard_arrays", spy)
        list(store.iter_shard_arrays(alive=alive))
        assert 0 not in opened

    def test_all_dead_scans_nothing(self, tmp_path):
        store, n = self._summarized_store(tmp_path)
        assert store.alive_shards(np.zeros(n, dtype=bool)) == []

    def test_directed_two_mask_rule(self, tmp_path):
        from repro.store.shards import ShardWriter

        n = 10
        with ShardWriter(
            tmp_path / "directed-skip",
            directed=True,
            num_shards=1,
            num_nodes=n,
            skip_summaries=True,
        ) as writer:
            writer.append_arrays(np.array([1, 2]), np.array([3, 4]))
        store = ShardedEdgeStore.open(tmp_path / "directed-skip")
        src_alive = np.zeros(n, dtype=bool)
        dst_alive = np.zeros(n, dtype=bool)
        src_alive[1] = True  # a source endpoint survives...
        assert store.alive_shards(src_alive, dst_alive) == []  # ...but no dest
        dst_alive[3] = True
        assert store.alive_shards(src_alive, dst_alive) == [0]

    def test_stores_without_summaries_scan_everything(self, tmp_path):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        store = ShardedEdgeStore.write(
            tmp_path / "plain", (src, dst), directed=False, num_shards=2
        )
        assert store.shard_summary(0) is None
        alive = np.zeros(4, dtype=bool)  # everything dead, no proof
        nonempty = [
            s for s in range(store.num_shards)
            if store.manifest.shard_edges[s] > 0
        ]
        assert store.alive_shards(alive) == nonempty


class TestFingerprint:
    """Content fingerprints: order- and partition-independent hashes."""

    def test_shard_order_and_count_independent(self, tmp_path):
        # The satellite contract: two stores built from the same edges in
        # different append orders (and even different shard counts) must
        # fingerprint identically — the hash covers *content*, not layout.
        src, dst, w, n = _undirected_arrays()
        rng = np.random.default_rng(7)
        perm = rng.permutation(src.size)
        a = ShardedEdgeStore.write(
            tmp_path / "a", (src, dst, w), directed=False, num_shards=4, num_nodes=n
        )
        b = ShardedEdgeStore.write(
            tmp_path / "b", (src[perm], dst[perm], w[perm]),
            directed=False, num_shards=7, num_nodes=n,
        )
        assert a.fingerprint() == b.fingerprint()

    def test_content_changes_fingerprint(self, tmp_path):
        src, dst, w, n = _undirected_arrays()
        a = ShardedEdgeStore.write(
            tmp_path / "a", (src, dst, w), directed=False, num_nodes=n
        )
        w2 = w.copy()
        w2[0] *= 2.0
        b = ShardedEdgeStore.write(
            tmp_path / "b", (src, dst, w2), directed=False, num_nodes=n
        )
        assert a.fingerprint() != b.fingerprint()

    def test_directedness_changes_fingerprint(self, tmp_path):
        src, dst, w, n = _directed_arrays()
        a = ShardedEdgeStore.write(
            tmp_path / "a", (src, dst, w), directed=True, num_nodes=n
        )
        b = ShardedEdgeStore.write(
            tmp_path / "b", (src, dst, w), directed=False, num_nodes=n
        )
        assert a.fingerprint() != b.fingerprint()

    def test_cached_in_manifest_and_reused_on_reopen(self, tmp_path):
        import json

        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False, num_nodes=n
        )
        manifest = json.loads((tmp_path / "st" / "manifest.json").read_text())
        assert "fingerprint" not in manifest  # not computed yet
        fp = store.fingerprint()
        manifest = json.loads((tmp_path / "st" / "manifest.json").read_text())
        assert manifest["fingerprint"] == fp  # cached on first compute
        reopened = ShardedEdgeStore.open(tmp_path / "st")
        assert reopened.manifest.fingerprint == fp
        assert reopened.fingerprint() == fp

    def test_rewrite_invalidates_cache(self, tmp_path):
        # A compaction rewrite produces a new store; its manifest must
        # not carry the source's (now stale) fingerprint forward.
        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False, num_nodes=n
        )
        fp = store.fingerprint()
        alive = np.zeros(n, dtype=bool)
        alive[: n // 2] = True
        compacted = ShardEdgeStream(store).compact(
            alive, spill_dir=tmp_path / "st2"
        )
        assert compacted.store.manifest.fingerprint is None
        assert compacted.store.fingerprint() != fp

    def test_uncached_compute_leaves_manifest_alone(self, tmp_path):
        src, dst, w, n = _undirected_arrays()
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=False, num_nodes=n
        )
        fp = store.fingerprint(cache=False)
        assert store.fingerprint(cache=False) == fp
        import json

        manifest = json.loads((tmp_path / "st" / "manifest.json").read_text())
        assert "fingerprint" not in manifest


class TestCsrSidecar:
    """The CSR snapshot a store keeps beside its shards answers bit for
    bit like a fresh ``from_shards`` build."""

    @staticmethod
    def _problem(store, epsilon):
        from repro.api import DirectedDensest

        if store.directed:
            return DirectedDensest(store, epsilon=epsilon, ratio_grid=(0.5, 1.0, 2.0))
        return DensestSubgraph(store, epsilon=epsilon)

    @staticmethod
    def _answer(solution):
        return (
            solution.nodes,
            solution.s_nodes,
            solution.t_nodes,
            solution.density,
            solution.cost.passes,
            solution.certificate,
        )

    @pytest.mark.parametrize("backend", ["core", "mapreduce"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_absent_written_and_reopened_answer_identically(
        self, tmp_path, monkeypatch, backend, directed
    ):
        from repro.store.sidecar import SIDECAR_NAME

        src, dst, w, n = _parallel_duplicate_arrays(seed=11)
        root = tmp_path / "st"
        store = ShardedEdgeStore.write(
            root, (src, dst, w), directed=directed, num_shards=3, num_nodes=n
        )
        assert not (root / SIDECAR_NAME).exists()
        built = [
            self._answer(solve(self._problem(store, eps), backend=backend))
            for eps in (0.1, 0.5)
        ]
        assert (root / SIDECAR_NAME).exists()

        def no_rebuild(cls, store):
            raise AssertionError("solve rebuilt the CSR instead of mapping it")

        cls = CSRDigraph if directed else CSRGraph
        monkeypatch.setattr(cls, "from_shards", classmethod(no_rebuild))
        for handle in (store, ShardedEdgeStore.open(root)):
            mapped = [
                self._answer(solve(self._problem(handle, eps), backend=backend))
                for eps in (0.1, 0.5)
            ]
            assert mapped == built

    @pytest.mark.parametrize("directed", [False, True])
    def test_mapped_arrays_equal_the_build_and_are_read_only(self, tmp_path, directed):
        from repro.store.sidecar import csr_snapshot

        src, dst, w, n = _parallel_duplicate_arrays(seed=12)
        store = ShardedEdgeStore.write(
            tmp_path / "st", (src, dst, w), directed=directed, num_shards=4, num_nodes=n
        )
        cls = CSRDigraph if directed else CSRGraph
        built = csr_snapshot(store, cls)  # absent: builds and writes
        mapped = csr_snapshot(ShardedEdgeStore.open(tmp_path / "st"), cls)
        assert isinstance(mapped, cls)
        assert mapped.labels == built.labels == list(range(n))
        assert mapped.total_weight == built.total_weight
        for name in cls.ARRAYS:
            array = getattr(mapped, name)
            assert isinstance(array, np.memmap) and not array.flags.writeable
            assert array.dtype == getattr(built, name).dtype
            assert np.array_equal(array, getattr(built, name))
