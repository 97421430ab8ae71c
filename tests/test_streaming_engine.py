"""Tests for the semi-streaming engines: equivalence with the in-memory
reference implementations, pass accounting, and memory accounting."""

import pytest

from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.errors import ParameterError, StreamError
from repro.graph.generators import chung_lu, directed_power_law, gnm_random
from repro.streaming.engine import (
    stream_densest_subgraph,
    stream_densest_subgraph_atleast_k,
    stream_densest_subgraph_directed,
)
from repro.streaming.memory import MemoryAccountant
from repro.streaming.stream import (
    DirectedGraphEdgeStream,
    GraphEdgeStream,
    MemoryEdgeStream,
)


@pytest.fixture(scope="module")
def social():
    return chung_lu(1200, exponent=2.3, average_degree=8, seed=11)


@pytest.fixture(scope="module")
def directed_social():
    return directed_power_law(800, 4800, seed=7)


class TestAlgorithm1Equivalence:
    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0, 2.0])
    def test_matches_reference(self, social, epsilon):
        ref = densest_subgraph(social, epsilon)
        result = stream_densest_subgraph(GraphEdgeStream(social), epsilon)
        assert result.nodes == ref.nodes
        assert result.density == pytest.approx(ref.density)
        assert result.passes == ref.passes
        assert result.best_pass == ref.best_pass
        assert len(result.trace) == len(ref.trace)
        for ours, theirs in zip(result.trace, ref.trace):
            assert ours.nodes_before == theirs.nodes_before
            assert ours.removed == theirs.removed
            assert ours.edges_before == pytest.approx(theirs.edges_before)
            assert ours.density_after == pytest.approx(theirs.density_after)

    def test_one_stream_pass_per_peel_pass(self, social):
        stream = GraphEdgeStream(social)
        result = stream_densest_subgraph(stream, 0.5)
        assert stream.passes_made == result.passes

    def test_max_passes_costs_one_extra(self, social):
        stream = GraphEdgeStream(social)
        result = stream_densest_subgraph(stream, 0.5, max_passes=2)
        assert result.passes == 2
        assert stream.passes_made == 3  # final-state valuation pass

    def test_empty_universe_raises(self):
        with pytest.raises(StreamError):
            stream_densest_subgraph(MemoryEdgeStream([], nodes=[]), 0.5)

    def test_weighted_stream(self):
        stream = MemoryEdgeStream(
            [("a", "b", 10.0), ("b", "c", 1.0)], nodes=["a", "b", "c"]
        )
        result = stream_densest_subgraph(stream, 0.1)
        assert result.nodes == frozenset({"a", "b"})
        assert result.density == pytest.approx(5.0)


class TestAlgorithm2Equivalence:
    @pytest.mark.parametrize("k", [10, 100, 600])
    def test_matches_reference(self, social, k):
        ref = densest_subgraph_atleast_k(social, k, 0.5)
        result = stream_densest_subgraph_atleast_k(
            GraphEdgeStream(social), k, 0.5
        )
        assert result.nodes == ref.nodes
        assert result.density == pytest.approx(ref.density)
        assert result.passes == ref.passes

    def test_k_exceeds_universe_raises(self, social):
        with pytest.raises(ParameterError):
            stream_densest_subgraph_atleast_k(
                GraphEdgeStream(social), social.num_nodes + 1, 0.5
            )

    def test_result_at_least_k(self, social):
        result = stream_densest_subgraph_atleast_k(GraphEdgeStream(social), 200, 1.0)
        assert len(result.nodes) >= 200


class TestAlgorithm3Equivalence:
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("epsilon", [0.2, 1.0])
    def test_matches_reference(self, directed_social, ratio, epsilon):
        ref = densest_subgraph_directed(directed_social, ratio, epsilon)
        result = stream_densest_subgraph_directed(
            DirectedGraphEdgeStream(directed_social), ratio, epsilon
        )
        assert result.s_nodes == ref.s_nodes
        assert result.t_nodes == ref.t_nodes
        assert result.density == pytest.approx(ref.density)
        assert result.passes == ref.passes
        for ours, theirs in zip(result.trace, ref.trace):
            assert ours.side == theirs.side
            assert ours.removed == theirs.removed

    def test_one_stream_pass_per_peel_pass(self, directed_social):
        stream = DirectedGraphEdgeStream(directed_social)
        result = stream_densest_subgraph_directed(stream, 1.0, 0.5)
        assert stream.passes_made == result.passes


class TestMemoryAccounting:
    def test_exact_engine_is_linear(self, social):
        acc = MemoryAccountant()
        stream_densest_subgraph(GraphEdgeStream(social), 0.5, accountant=acc)
        n = social.num_nodes
        # degrees (n) + alive list (n) + vectorized-scan label index
        # (2n) dominate; bitmaps add n/32 total.  Still O(n).
        assert acc.total_words == pytest.approx(4 * n + 2 * n / 64 + 4)

    def test_directed_engine_charges_both_sides(self, directed_social):
        acc = MemoryAccountant()
        stream_densest_subgraph_directed(
            DirectedGraphEdgeStream(directed_social), 1.0, 0.5, accountant=acc
        )
        n = directed_social.num_nodes
        assert acc.total_words >= 2 * n

    def test_accountant_api(self):
        a = MemoryAccountant()
        a.charge_words("x", 10)
        a.charge_bits("y", 640)
        assert a.total_words == 20
        b = MemoryAccountant()
        b.charge_words("z", 40)
        assert a.ratio_to(b) == pytest.approx(0.5)
        assert "x=10" in a.summary()

    def test_accountant_validation(self):
        a = MemoryAccountant()
        with pytest.raises(ValueError):
            a.charge_words("x", -1)
        with pytest.raises(ValueError):
            a.ratio_to(MemoryAccountant())


class TestInterruptedCompactionScan:
    """A scan that fails mid-pass aborts its compaction sink, in every
    engine (one shared compaction helper)."""

    @pytest.mark.parametrize("engine", ["algorithm1", "directed", "sketch"])
    def test_sink_aborted(self, tmp_path, monkeypatch, engine):
        import numpy as np

        from repro.store import ShardedEdgeStore
        from repro.streaming import compaction
        from repro.streaming.sketch_engine import sketch_densest_subgraph
        from repro.streaming.stream import ShardEdgeStream

        class FailingShardStream(ShardEdgeStream):
            """Raises after two chunks of its second pass — the
            first pass that carries a compaction sink."""

            def edge_array_chunks(self, alive=None, dst_alive=None):
                chunks = super().edge_array_chunks(alive, dst_alive)
                if self.accounting.passes_made < 2:
                    return chunks

                def failing():
                    for i, chunk in enumerate(chunks):
                        if i == 2:
                            raise OSError("shard read failed")
                        yield chunk

                return failing()

        aborted = []
        original_abort = compaction._MemorySink.abort

        def recording_abort(sink):
            aborted.append(sink.edges_written)
            original_abort(sink)

        monkeypatch.setattr(compaction._MemorySink, "abort", recording_abort)
        rng = np.random.default_rng(4)
        u = rng.integers(0, 300, 4000)
        v = rng.integers(0, 300, 4000)
        store = ShardedEdgeStore.write(
            str(tmp_path / "store"), (u, v), directed=engine == "directed",
            num_shards=4,
        )
        spill_root = tmp_path / "spill"
        spill_root.mkdir()
        # threshold 1.0: compaction is due from pass 2 on; memory_edges=0
        # makes the sink spill to disk at its first append.
        policy = compaction.CompactionPolicy(
            threshold=1.0, min_edges=0, memory_edges=0, spill_dir=str(spill_root)
        )
        stream = FailingShardStream(store)
        with pytest.raises(OSError, match="shard read failed"):
            if engine == "algorithm1":
                stream_densest_subgraph(stream, 0.05, compaction=policy)
            elif engine == "directed":
                stream_densest_subgraph_directed(stream, 1.0, 0.05, compaction=policy)
            else:
                sketch_densest_subgraph(stream, 0.05, compaction=policy)
        assert len(aborted) == 1 and aborted[0] > 0
        assert list(spill_root.iterdir()) == []
