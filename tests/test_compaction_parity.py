"""Pass compaction must be invisible except in the byte accounting.

The acceptance bar of the compaction layer: engines running with
compaction return *identical* node sets, densities, traces, and pass
counts to the non-compacting scan — across weighted (dyadic) and
unweighted inputs, directed and undirected, eps ∈ {0, 0.1, 0.5}, both
sink flavors (in-memory arrays and spill-backed shard stores), and
under ``max_passes`` truncation — while scanning monotonically
non-increasing edges per pass and strictly fewer total bytes.
"""

import numpy as np
import pytest

from repro.api import (
    DensestSubgraph,
    DirectedDensest,
    ExecutionContext,
    solve,
)
from repro.datasets.synthetic import synthetic_edge_arrays
from repro.errors import ParameterError
from repro.store import ShardedEdgeStore
from repro.streaming.compaction import CompactionPolicy, context_policy
from repro.streaming.engine import (
    stream_densest_subgraph,
    stream_densest_subgraph_atleast_k,
    stream_densest_subgraph_directed,
)
from repro.streaming.sketch_engine import sketch_densest_subgraph
from repro.streaming.stream import ArrayEdgeStream, MemoryEdgeStream, ShardEdgeStream
from repro.streaming.sweep import stream_ratio_sweep

EPSILONS = [0.0, 0.1, 0.5]

#: Aggressive policies exercising both sink flavors; min_edges=0 so the
#: tiny test fixtures actually trigger rewrites.
MEMORY_SINK = CompactionPolicy(min_edges=0)
SPILL_SINK = CompactionPolicy(min_edges=0, memory_edges=0)


def _dyadic_weights(m, seed):
    # Power-of-two weights: float accumulation is exact, so parity is
    # bit-exact regardless of chunk boundaries (same convention as the
    # columnar-MapReduce and process-pool parity suites).
    rng = np.random.default_rng(seed)
    return rng.choice([0.5, 1.0, 2.0, 4.0], size=m)


def _store(tmp_path, *, directed, weighted, seed=7):
    name = "twitter_sim" if directed else "im_sim"
    src, dst, n, _ = synthetic_edge_arrays(name, scale=0.05, seed=seed)
    weights = _dyadic_weights(src.size, seed) if weighted else None
    source = (src, dst, weights) if weighted else (src, dst)
    store = ShardedEdgeStore.write(
        tmp_path / f"{'d' if directed else 'u'}-{'w' if weighted else 'p'}",
        source,
        directed=directed,
        num_shards=4,
        num_nodes=n,
    )
    return store


def _assert_same_run(baseline, compacted):
    assert compacted.nodes == baseline.nodes
    assert compacted.density == baseline.density
    assert compacted.passes == baseline.passes
    assert compacted.best_pass == baseline.best_pass
    assert compacted.trace == baseline.trace


class TestUndirectedParity:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("policy", [MEMORY_SINK, SPILL_SINK, CompactionPolicy(threshold=1.0, min_edges=0)])
    def test_store_input(self, tmp_path, weighted, epsilon, policy):
        store = _store(tmp_path, directed=False, weighted=weighted)
        baseline = stream_densest_subgraph(ShardEdgeStream(store), epsilon)
        compacted = stream_densest_subgraph(
            ShardEdgeStream(store), epsilon, compaction=policy
        )
        _assert_same_run(baseline, compacted)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_memory_stream_input(self, epsilon):
        src, dst, n, _ = synthetic_edge_arrays("im_sim", scale=0.05, seed=3)
        edges = list(zip(src.tolist(), dst.tolist()))
        baseline = stream_densest_subgraph(MemoryEdgeStream(edges), epsilon)
        compacted = stream_densest_subgraph(
            MemoryEdgeStream(edges), epsilon, compaction=MEMORY_SINK
        )
        _assert_same_run(baseline, compacted)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_str_labelled_input(self, epsilon):
        # Non-int labels are relabelled at the scanner, so their rewrites
        # hold dense ids like any other: same run, fewer bytes.
        src, dst, n, _ = synthetic_edge_arrays("im_sim", scale=0.05, seed=3)
        edges = [(f"n{u}", f"n{v}") for u, v in zip(src.tolist(), dst.tolist())]
        full = MemoryEdgeStream(edges)
        baseline = stream_densest_subgraph(full, epsilon)
        stream = MemoryEdgeStream(edges)
        compacted = stream_densest_subgraph(stream, epsilon, compaction=MEMORY_SINK)
        _assert_same_run(baseline, compacted)
        assert stream.bytes_scanned < full.bytes_scanned

    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    def test_atleast_k(self, tmp_path, epsilon):
        store = _store(tmp_path, directed=False, weighted=True)
        k = max(2, store.num_nodes // 10)
        baseline = stream_densest_subgraph_atleast_k(
            ShardEdgeStream(store), k, epsilon
        )
        compacted = stream_densest_subgraph_atleast_k(
            ShardEdgeStream(store), k, epsilon, compaction=SPILL_SINK
        )
        _assert_same_run(baseline, compacted)


class TestDirectedParity:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_fixed_ratio(self, tmp_path, weighted, epsilon):
        store = _store(tmp_path, directed=True, weighted=weighted)
        baseline = stream_densest_subgraph_directed(
            ShardEdgeStream(store), 1.0, epsilon
        )
        compacted = stream_densest_subgraph_directed(
            ShardEdgeStream(store), 1.0, epsilon, compaction=MEMORY_SINK
        )
        assert compacted.s_nodes == baseline.s_nodes
        assert compacted.t_nodes == baseline.t_nodes
        assert compacted.density == baseline.density
        assert compacted.passes == baseline.passes
        assert compacted.trace == baseline.trace

    def test_ratio_sweep(self, tmp_path):
        store = _store(tmp_path, directed=True, weighted=False)
        ratios = [0.5, 1.0, 2.0]
        baseline = stream_ratio_sweep(
            ShardEdgeStream(store), 0.5, ratios=ratios
        )
        compacted = stream_ratio_sweep(
            ShardEdgeStream(store), 0.5, ratios=ratios, compaction=SPILL_SINK
        )
        assert compacted.best.ratio == baseline.best.ratio
        for base_run, comp_run in zip(baseline.by_ratio, compacted.by_ratio):
            assert comp_run.s_nodes == base_run.s_nodes
            assert comp_run.t_nodes == base_run.t_nodes
            assert comp_run.trace == base_run.trace


class TestSketchParity:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    def test_store_input(self, tmp_path, epsilon):
        store = _store(tmp_path, directed=False, weighted=False)
        full = ShardEdgeStream(store)
        baseline = sketch_densest_subgraph(full, epsilon, seed=11)
        compacted_stream = ShardEdgeStream(store)
        compacted = sketch_densest_subgraph(
            compacted_stream, epsilon, seed=11, compaction=SPILL_SINK
        )
        _assert_same_run(baseline, compacted)
        # The sketch scan must feed the trigger real kept counts: a
        # compacted run scans strictly fewer bytes than the rescan.
        assert compacted_stream.bytes_scanned < full.bytes_scanned


class TestTruncationParity:
    """max_passes truncation × compaction (satellite task)."""

    @pytest.mark.parametrize("max_passes", [1, 2, 3, 5])
    def test_exact_engine(self, tmp_path, max_passes):
        store = _store(tmp_path, directed=False, weighted=True)
        baseline = stream_densest_subgraph(
            ShardEdgeStream(store), 0.1, max_passes=max_passes
        )
        compacted = stream_densest_subgraph(
            ShardEdgeStream(store),
            0.1,
            max_passes=max_passes,
            compaction=CompactionPolicy(threshold=1.0, min_edges=0),
        )
        _assert_same_run(baseline, compacted)
        assert compacted.passes <= max_passes

    @pytest.mark.parametrize("max_passes", [1, 3])
    def test_sketch_engine(self, tmp_path, max_passes):
        store = _store(tmp_path, directed=False, weighted=False)
        baseline = sketch_densest_subgraph(
            ShardEdgeStream(store), 0.5, seed=2, max_passes=max_passes
        )
        compacted = sketch_densest_subgraph(
            ShardEdgeStream(store),
            0.5,
            seed=2,
            max_passes=max_passes,
            compaction=SPILL_SINK,
        )
        _assert_same_run(baseline, compacted)


class TestAccounting:
    """Pass/edge/byte accounting under compaction (satellite task)."""

    def test_edges_per_pass_non_increasing(self, tmp_path):
        store = _store(tmp_path, directed=False, weighted=False)
        stream = ShardEdgeStream(store)
        stream_densest_subgraph(stream, 0.5, compaction=MEMORY_SINK)
        per_pass = stream.accounting.pass_edges
        assert len(per_pass) == stream.passes_made
        assert all(a >= b for a, b in zip(per_pass, per_pass[1:])), per_pass
        assert sum(per_pass) == stream.edges_streamed

    @pytest.mark.parametrize("policy", [MEMORY_SINK, SPILL_SINK])
    def test_total_bytes_bounded_by_full_rescan(self, tmp_path, policy):
        store = _store(tmp_path, directed=False, weighted=False)
        full = ShardEdgeStream(store)
        baseline = stream_densest_subgraph(full, 0.5)
        compacted_stream = ShardEdgeStream(store)
        compacted = stream_densest_subgraph(
            compacted_stream, 0.5, compaction=policy
        )
        _assert_same_run(baseline, compacted)
        assert compacted_stream.passes_made == full.passes_made
        assert compacted_stream.bytes_scanned < full.bytes_scanned
        assert compacted_stream.edges_streamed < full.edges_streamed
        assert (
            sum(compacted_stream.accounting.pass_bytes)
            == compacted_stream.bytes_scanned
        )

    def test_cost_report_bytes(self, tmp_path):
        store = _store(tmp_path, directed=False, weighted=False)
        problem = DensestSubgraph(store, epsilon=0.5)
        plain = solve(problem, backend="streaming")
        compacted = solve(problem, backend="streaming", compaction=True)
        assert compacted.nodes == plain.nodes
        assert compacted.cost.bytes_scanned is not None
        assert compacted.cost.bytes_scanned <= plain.cost.bytes_scanned


class TestSpillLifecycle:
    def test_spill_dirs_reaped(self, tmp_path):
        store = _store(tmp_path, directed=False, weighted=False)
        spill_root = tmp_path / "spill"
        spill_root.mkdir()
        policy = CompactionPolicy(
            min_edges=0, memory_edges=0, spill_dir=str(spill_root)
        )
        stream_densest_subgraph(ShardEdgeStream(store), 0.5, compaction=policy)
        # Every compaction store the run wrote under spill_dir is gone.
        assert list(spill_root.iterdir()) == []

    def test_multiple_rewrites_keep_at_most_one_store(self, tmp_path):
        # threshold=1.0 rewrites on every shrinking pass; the engine
        # keeps only the newest spill store while running, and zero
        # after.  (Indirectly observable: the run succeeds and the
        # spill root is empty afterwards.)
        store = _store(tmp_path, directed=False, weighted=True)
        spill_root = tmp_path / "spill2"
        spill_root.mkdir()
        policy = CompactionPolicy(
            threshold=1.0, min_edges=0, memory_edges=0,
            spill_dir=str(spill_root),
        )
        baseline = stream_densest_subgraph(ShardEdgeStream(store), 0.0)
        compacted = stream_densest_subgraph(
            ShardEdgeStream(store), 0.0, compaction=policy
        )
        _assert_same_run(baseline, compacted)
        assert list(spill_root.iterdir()) == []


class TestPolicy:
    def test_coerce_forms(self):
        assert CompactionPolicy.coerce(None) is None
        assert CompactionPolicy.coerce(False) is None
        assert CompactionPolicy.coerce(True) == CompactionPolicy()
        assert CompactionPolicy.coerce(0.25).threshold == 0.25
        policy = CompactionPolicy(threshold=0.75)
        assert CompactionPolicy.coerce(policy) is policy
        with pytest.raises(ParameterError):
            CompactionPolicy.coerce("yes")

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            CompactionPolicy(threshold=0.0)
        with pytest.raises(ParameterError):
            CompactionPolicy(threshold=1.5)
        with pytest.raises(ParameterError):
            ExecutionContext(compaction_threshold=2.0)

    def test_context_auto_enable_rules(self, tmp_path):
        ctx_plain = ExecutionContext()
        ctx_budget = ExecutionContext(memory_budget=1000)
        ctx_thresh = ExecutionContext(compaction_threshold=0.75)
        # auto: off without an envelope, off for non-shard inputs
        assert context_policy(None, ctx_plain, shard_input=True) is None
        assert context_policy(None, ctx_budget, shard_input=False) is None
        # auto: on for shard inputs under an envelope
        policy = context_policy(None, ctx_budget, shard_input=True)
        assert policy is not None
        thresh = context_policy(None, ctx_thresh, shard_input=True)
        assert thresh.threshold == 0.75
        # explicit always wins
        assert context_policy(False, ctx_budget, shard_input=True) is None
        assert context_policy(True, ctx_plain, shard_input=False) is not None
        # an explicit numeric threshold beats the context's
        assert context_policy(0.3, ctx_thresh, shard_input=True).threshold == 0.3


class TestDirectedProblemAPI:
    def test_solve_directed_with_compaction(self, tmp_path):
        store = _store(tmp_path, directed=True, weighted=False)
        problem = DirectedDensest(store, ratio=1.0, epsilon=0.5)
        plain = solve(problem, backend="streaming")
        compacted = solve(problem, backend="streaming", compaction=True)
        assert compacted.s_nodes == plain.s_nodes
        assert compacted.t_nodes == plain.t_nodes
        assert compacted.cost.bytes_scanned <= plain.cost.bytes_scanned
