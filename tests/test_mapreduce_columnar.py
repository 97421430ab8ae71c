"""The columnar MapReduce engine: batch primitives, drivers vs the core
reference, boundary relabelling, closed-form counters, batch retries.

The §5.2 drivers must be observationally equivalent to the in-memory
reference peels of :mod:`repro.core` run on the interpreted
(``engine="python"``) engine: identical node sets, densities, pass
counts, and per-pass traces, for int labels and for labels the drivers
relabel to dense ids (str, tuple, ints beyond ±2**62).  Weights in the
weighted fixtures are dyadic rationals so floating-point sums are exact
in any association order and both sides make bit-identical threshold
decisions.
"""

import random

import numpy as np
import pytest

from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.errors import MapReduceError
from repro.graph.directed import DirectedGraph
from repro.graph.generators import chung_lu, directed_power_law, gnm_random
from repro.graph.undirected import UndirectedGraph
from repro.kernels import CSRDigraph, CSRGraph
from repro.mapreduce.columnar import ColumnarKV, stable_hash_int64
from repro.mapreduce.densest import (
    DEGREE_JOB,
    mr_densest_subgraph,
    mr_densest_subgraph_atleast_k,
    mr_densest_subgraph_directed,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import MapReduceRuntime, TransientTaskError


def _scalar_hash(key: int) -> int:
    """The partition hash, written out as a scalar formula."""
    return key * 2654435761 % 2**32


def _dyadic_weight(u, v) -> float:
    return 1.0 + ((u + v) % 4) / 4.0


@pytest.fixture(scope="module")
def social():
    return chung_lu(400, exponent=2.3, average_degree=7, seed=31)


@pytest.fixture(scope="module")
def social_weighted(social):
    graph = UndirectedGraph()
    graph.add_nodes_from(social.nodes())
    for u, v, _ in social.weighted_edges():
        graph.add_edge(u, v, _dyadic_weight(u, v))
    return graph


@pytest.fixture(scope="module")
def directed_social():
    return directed_power_law(300, 1800, seed=32)


@pytest.fixture(scope="module")
def directed_weighted(directed_social):
    graph = DirectedGraph()
    graph.add_nodes_from(directed_social.nodes())
    for u, v, _ in directed_social.weighted_edges():
        graph.add_edge(u, v, _dyadic_weight(u, v))
    return graph


def _assert_matches_reference(result, reference):
    """MR driver result == core reference result, trace included."""
    if hasattr(reference, "s_nodes"):
        assert result.s_nodes == reference.s_nodes
        assert result.t_nodes == reference.t_nodes
    else:
        assert result.nodes == reference.nodes
    assert result.density == pytest.approx(reference.density)
    assert result.passes == reference.passes
    assert result.best_pass == reference.best_pass
    assert len(result.trace) == len(reference.trace)
    for ours, theirs in zip(result.trace, reference.trace):
        for field in theirs.__dataclass_fields__:
            va, vb = getattr(ours, field), getattr(theirs, field)
            if isinstance(vb, float):
                assert va == pytest.approx(vb), field
            else:
                assert va == vb, field


class TestColumnarKV:
    def _batch(self):
        return ColumnarKV(
            np.array([5, 3, 5, 8, 1], dtype=np.int64),
            {
                "v": np.array([1, 2, 3, 4, 5], dtype=np.int64),
                "w": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            },
        )

    def test_pairs_roundtrip(self):
        pairs = [(5, (1, 1.0)), (3, (2, 2.0)), (5, (3, 3.0))]
        batch = ColumnarKV.from_pairs(pairs, names=("v", "w"))
        assert batch.to_pairs() == pairs

    def test_split_matches_record_round_robin(self):
        batch = self._batch()
        pairs = batch.to_pairs()
        splits = batch.split(3)
        record_splits = [[] for _ in range(3)]
        for i, pair in enumerate(pairs):
            record_splits[i % 3].append(pair)
        assert [s.to_pairs() for s in splits] == record_splits

    def test_partition_matches_stable_hash(self):
        batch = self._batch()
        parts = batch.partition(4)
        for p, part in enumerate(parts):
            for key, _ in part.to_pairs():
                assert _scalar_hash(int(key)) % 4 == p
        assert sum(p.num_records for p in parts) == batch.num_records

    def test_vectorized_hash_matches_scalar_everywhere(self):
        keys = np.array(
            [0, 1, -1, 7, -7, 2**40, -(2**40), 2**62, -(2**62)], dtype=np.int64
        )
        hashed = stable_hash_int64(keys)
        for key, h in zip(keys.tolist(), hashed.tolist()):
            assert _scalar_hash(key) == h

    def test_group_boundaries_and_segments(self):
        grouped = self._batch().group()
        assert grouped.keys.tolist() == [1, 3, 5, 8]
        assert grouped.counts.tolist() == [1, 1, 2, 1]
        assert grouped.segment_sum("w").tolist() == [5.0, 2.0, 4.0, 4.0]
        # Stable sort: key 5's rows keep arrival order.
        assert grouped.rows.columns["v"].tolist() == [5, 2, 1, 3, 4]

    def test_group_empty(self):
        batch = self._batch().take(np.zeros(5, dtype=bool))
        grouped = batch.group()
        assert grouped.num_groups == 0
        assert grouped.segment_sum("w").size == 0

    def test_byte_size_per_dtype(self):
        batch = ColumnarKV(
            np.array([1, 2], dtype=np.int64),
            {
                "v": np.array([3, 4], dtype=np.int64),
                "w": np.array([1.0, 2.0]),
                "m": np.zeros(2, dtype=bool),
            },
        )
        # Per record: 8 (key) + 8 (int64) + 8 (float64) + 1 (bool).
        assert batch.byte_size() == 2 * (8 + 8 + 8 + 1)

    def test_column_shape_mismatch_rejected(self):
        with pytest.raises(MapReduceError):
            ColumnarKV(np.array([1, 2]), {"v": np.array([1.0])})

    def test_concat_column_mismatch_rejected(self):
        a = ColumnarKV(np.array([1]), {"v": np.array([1.0])})
        b = ColumnarKV(np.array([1]), {"x": np.array([1.0])})
        with pytest.raises(MapReduceError):
            ColumnarKV.concat([a, b])

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([1.5, 2.7, -0.5]),
            np.array([1.0, 2.0]),
            np.array([True, False]),
            np.array(["a", "b"]),
            np.array([("t", 1), 2], dtype=object),
            np.array([2**63 + 5, 1], dtype=np.uint64),
        ],
        ids=["float", "integral-float", "bool", "str", "object", "uint-2**63"],
    )
    def test_non_int64_keys_rejected(self, keys):
        with pytest.raises(MapReduceError, match="int64"):
            ColumnarKV(keys, {"w": np.ones(keys.size)})

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([3, -1], dtype=np.int32),
            np.array([3, 2**63 - 1], dtype=np.uint64),
            [4, 5],
        ],
        ids=["int32", "uint-below-2**63", "list"],
    )
    def test_integer_keys_accepted(self, keys):
        batch = ColumnarKV(keys, {"w": np.ones(2)})
        assert batch.keys.dtype == np.int64
        assert batch.keys.tolist() == [int(k) for k in keys]

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.str_, object])
    def test_empty_keys_of_any_dtype_accepted(self, dtype):
        batch = ColumnarKV(np.empty(0, dtype=dtype), {"w": np.empty(0)})
        assert batch.keys.dtype == np.int64
        assert batch.num_records == 0


class TestRuntimeDispatch:
    def test_batch_input_needs_batch_callables(self):
        """A job written record-style (emitting a list of pairs) fails
        with a typed error naming the offending stage."""
        job = MapReduceJob(
            name="record-style",
            mapper=lambda batch: batch.to_pairs(),
            reducer=lambda grouped: grouped.rows,
        )
        batch = ColumnarKV(np.array([1, 2]), {"w": np.array([1.0, 2.0])})
        with pytest.raises(MapReduceError, match="mapper must emit a ColumnarKV"):
            MapReduceRuntime(2, 2).run(job, batch)

    def test_degree_job_output_matches_bincount(self):
        u = np.array([0, 1, 2, 0, 1, 5], dtype=np.int64)
        v = np.array([1, 2, 3, 3, 3, 6], dtype=np.int64)
        w = 1.0 + (u % 2) / 2
        batch = ColumnarKV(u, {"v": v, "w": w, "m": np.zeros(u.size, dtype=bool)})
        out, counters = MapReduceRuntime(3, 2, seed=5).run(DEGREE_JOB, batch)
        expected = np.bincount(u, w, minlength=7) + np.bincount(v, w, minlength=7)
        degrees = np.zeros(7)
        degrees[out.keys] = out.columns["w"]
        assert degrees.tolist() == expected.tolist()
        assert sorted(out.keys.tolist()) == np.flatnonzero(expected).tolist()
        assert counters.map_input_records == u.size
        assert counters.map_output_records == 2 * u.size
        assert counters.reduce_groups == counters.reduce_output_records == 6

    def test_columnar_shuffle_bytes_deterministic(self):
        edges = [(u, (u + 1, 1.0)) for u in range(50)]
        batch = ColumnarKV.from_pairs(edges, names=("v", "w"))
        batch = ColumnarKV(
            batch.keys,
            {**batch.columns, "m": np.zeros(batch.num_records, dtype=bool)},
        )
        runs = [
            MapReduceRuntime(4, 4, seed=s).run(DEGREE_JOB, batch)[1].shuffle_bytes
            for s in (0, 1, 2)
        ]
        assert runs[0] == runs[1] == runs[2] > 0


class TestDriverParity:
    """Every driver agrees with the interpreted core reference peel."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_undirected(self, social, social_weighted, epsilon, weighted):
        graph = social_weighted if weighted else social
        reference = densest_subgraph(graph, epsilon, engine="python")
        report = mr_densest_subgraph(
            graph, epsilon, runtime=MapReduceRuntime(5, 3, seed=1)
        )
        _assert_matches_reference(report.result, reference)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    def test_atleast_k(self, social_weighted, epsilon):
        reference = densest_subgraph_atleast_k(
            social_weighted, 25, epsilon, engine="python"
        )
        report = mr_densest_subgraph_atleast_k(
            social_weighted, 25, epsilon, runtime=MapReduceRuntime(4, 4, seed=2)
        )
        _assert_matches_reference(report.result, reference)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_directed(self, directed_social, directed_weighted, epsilon, weighted):
        graph = directed_weighted if weighted else directed_social
        reference = densest_subgraph_directed(graph, 1.0, epsilon, engine="python")
        report = mr_densest_subgraph_directed(
            graph, 1.0, epsilon, runtime=MapReduceRuntime(4, 4, seed=3)
        )
        _assert_matches_reference(report.result, reference)

    def test_csr_snapshot_input(self, social):
        csr = CSRGraph.from_undirected(social)
        from_csr = mr_densest_subgraph(
            csr, 0.5, runtime=MapReduceRuntime(4, 4, seed=4)
        )
        from_dict = mr_densest_subgraph(
            social, 0.5, runtime=MapReduceRuntime(4, 4, seed=4)
        )
        _assert_matches_reference(
            from_csr.result, densest_subgraph(social, 0.5, engine="python")
        )
        assert from_csr.result.nodes == from_dict.result.nodes
        assert from_csr.rounds_per_pass == from_dict.rounds_per_pass

    def test_csr_digraph_input(self, directed_social):
        csr = CSRDigraph.from_directed(directed_social)
        report = mr_densest_subgraph_directed(
            csr, 1.0, 0.5, runtime=MapReduceRuntime(4, 4, seed=4)
        )
        _assert_matches_reference(
            report.result,
            densest_subgraph_directed(directed_social, 1.0, 0.5, engine="python"),
        )

    def test_task_parallelism_does_not_change_columnar_answer(self, social):
        a = mr_densest_subgraph(social, 1.0, runtime=MapReduceRuntime(1, 1)).result
        b = mr_densest_subgraph(social, 1.0, runtime=MapReduceRuntime(16, 16)).result
        assert a.nodes == b.nodes
        assert a.density == pytest.approx(b.density)


def _undirected_csr(weighted: bool, n=90, m=700, seed=1):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, n, (m, 2))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    # Dyadic weights: exact float sums in any association order, so the
    # combiner-local sums and the core peel's totals agree bit for bit.
    w = rng.choice([0.25, 0.5, 1.0, 2.0], size=src.size) if weighted else None
    return CSRGraph.from_edge_arrays(src, dst, w, num_nodes=n)


def _directed_csr(weighted: bool, n=90, m=900, seed=2):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    _, idx = np.unique(src[keep] * n + dst[keep], return_index=True)
    src = src[keep][idx].astype(np.int64)
    dst = dst[keep][idx].astype(np.int64)
    w = rng.choice([0.5, 1.0, 4.0], size=src.size) if weighted else None
    return CSRDigraph.from_edge_arrays(src, dst, w, num_nodes=n)


def _csr_runtime():
    return MapReduceRuntime(num_mappers=4, num_reducers=4, seed=11)


class TestClassicMatchesCore:
    """On CSR snapshots with dyadic weights the drivers' results equal
    the core peel's exactly (``==``, trace included) on either core
    engine, with the §5.2 round shape per pass."""

    @pytest.mark.parametrize("reference_engine", ["python", "numpy"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_undirected(self, reference_engine, weighted):
        graph = _undirected_csr(weighted)
        report = mr_densest_subgraph(graph, 0.5, runtime=_csr_runtime())
        assert report.result == densest_subgraph(graph, 0.5, engine=reference_engine)
        # A degree round plus the two-round removal filter per pass.
        assert all(len(rounds) == 3 for rounds in report.rounds_per_pass)

    @pytest.mark.parametrize("reference_engine", ["python", "numpy"])
    def test_atleast_k(self, reference_engine):
        graph = _undirected_csr(True)
        report = mr_densest_subgraph_atleast_k(graph, 30, 0.5, runtime=_csr_runtime())
        assert report.result == densest_subgraph_atleast_k(
            graph, 30, 0.5, engine=reference_engine
        )

    @pytest.mark.parametrize("reference_engine", ["python", "numpy"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_directed(self, reference_engine, weighted):
        graph = _directed_csr(weighted)
        report = mr_densest_subgraph_directed(graph, 1.0, 0.5, runtime=_csr_runtime())
        assert report.result == densest_subgraph_directed(
            graph, 1.0, 0.5, engine=reference_engine
        )
        # A degree round plus one removal round on the peeled side.
        assert all(len(rounds) == 2 for rounds in report.rounds_per_pass)


class TestClosedFormCounters:
    """Record counts in closed form (unweighted: weight == edge count)."""

    def test_undirected_counters(self):
        graph = _undirected_csr(False)
        report = mr_densest_subgraph(graph, 0.1, runtime=_csr_runtime())
        for record, rounds in zip(report.result.trace, report.rounds_per_pass):
            alive = int(record.edges_before)
            degree, first_removal, second_removal = rounds
            assert degree.job_name == "degree"
            assert degree.map_input_records == alive
            assert degree.map_output_records == 2 * alive
            # Surviving edges plus one marker row per removed node.
            assert first_removal.map_input_records == alive + record.removed
            assert second_removal.map_output_records == (
                second_removal.map_input_records
            )
            assert second_removal.reduce_output_records == int(record.edges_after)

    def test_directed_counters(self):
        graph = _directed_csr(False)
        report = mr_densest_subgraph_directed(graph, 1.0, 0.5, runtime=_csr_runtime())
        for record, (degree, removal) in zip(
            report.result.trace, report.rounds_per_pass
        ):
            alive = int(record.edges_before)
            assert degree.job_name == "directed-degree"
            assert degree.map_input_records == alive
            assert degree.map_output_records == 2 * alive
            assert removal.map_input_records == alive + record.removed
            assert removal.reduce_output_records == int(record.edges_after)


# ----------------------------------------------------------------------
# Boundary relabelling: labels that cannot be shuffle keys themselves
# ----------------------------------------------------------------------
#: Label maps for graphs the drivers must relabel to dense ids: str,
#: tuple, and ints outside [-2**62, 2**62) (the directed degree job
#: bit-packs a side tag into the key, so those would overflow int64).
RELABELS = {
    "str": lambda u: f"n{u}",
    "tuple": lambda u: ("node", u),
    "huge-int": lambda u: 2**62 + u,
    "negative-huge-int": lambda u: -(2**62) - 1 - u,
}


def _relabel(graph, name, order_seed=None):
    """``graph`` with labels mapped through ``RELABELS[name]`` and
    (optionally) nodes inserted in a shuffled order."""
    fn = RELABELS[name]
    out = DirectedGraph() if isinstance(graph, DirectedGraph) else UndirectedGraph()
    nodes = list(graph.nodes())
    if order_seed is not None:
        random.Random(order_seed).shuffle(nodes)
    out.add_nodes_from(fn(u) for u in nodes)
    for u, v, w in graph.weighted_edges():
        out.add_edge(fn(u), fn(v), w)
    return out


class TestBoundaryRelabelling:
    @pytest.mark.parametrize("labels", sorted(RELABELS))
    def test_undirected(self, social_weighted, labels):
        graph = _relabel(social_weighted, labels)
        report = mr_densest_subgraph(
            graph, 0.1, runtime=MapReduceRuntime(4, 3, seed=1)
        )
        _assert_matches_reference(
            report.result, densest_subgraph(graph, 0.1, engine="python")
        )

    @pytest.mark.parametrize("labels", sorted(RELABELS))
    def test_atleast_k(self, social_weighted, labels):
        graph = _relabel(social_weighted, labels)
        report = mr_densest_subgraph_atleast_k(
            graph, 25, 0.5, runtime=MapReduceRuntime(4, 3, seed=2)
        )
        _assert_matches_reference(
            report.result,
            densest_subgraph_atleast_k(graph, 25, 0.5, engine="python"),
        )

    @pytest.mark.parametrize("labels", sorted(RELABELS))
    def test_directed(self, directed_weighted, labels):
        graph = _relabel(directed_weighted, labels)
        for ratio in (0.5, 2.0):
            report = mr_densest_subgraph_directed(
                graph, ratio, 0.5, runtime=MapReduceRuntime(3, 4, seed=3)
            )
            _assert_matches_reference(
                report.result,
                densest_subgraph_directed(graph, ratio, 0.5, engine="python"),
            )

    @pytest.mark.parametrize("labels", ["str", "tuple"])
    def test_csr_snapshot_with_relabelled_labels(self, social, directed_social, labels):
        graph = _relabel(social, labels)
        report = mr_densest_subgraph(
            CSRGraph.from_undirected(graph), 0.5, runtime=MapReduceRuntime(4, 4)
        )
        _assert_matches_reference(
            report.result, densest_subgraph(graph, 0.5, engine="python")
        )
        digraph = _relabel(directed_social, labels)
        report = mr_densest_subgraph_directed(
            CSRDigraph.from_directed(digraph), 1.0, 0.5,
            runtime=MapReduceRuntime(4, 4),
        )
        _assert_matches_reference(
            report.result,
            densest_subgraph_directed(digraph, 1.0, 0.5, engine="python"),
        )

    @pytest.mark.parametrize("labels", ["str", "tuple"])
    def test_atleast_k_tie_break_follows_node_order(self, labels):
        """On an unweighted graph full of degree ties, which candidates
        Algorithm 2 removes depends on ``graph.nodes()`` order; the
        relabelled drivers must break ties exactly as the core peel."""
        base = gnm_random(12, 22, seed=125)
        answers = set()
        for order_seed in range(6):
            graph = _relabel(base, labels, order_seed=order_seed)
            reference = densest_subgraph_atleast_k(graph, 5, 1.0, engine="python")
            report = mr_densest_subgraph_atleast_k(
                graph, 5, 1.0, runtime=MapReduceRuntime(3, 2)
            )
            _assert_matches_reference(report.result, reference)
            answers.add(reference.nodes)
        # The fixture is sensitive to the tie-break: orders disagree.
        assert len(answers) > 1

    def test_mixed_int_and_str_labels(self):
        graph = UndirectedGraph()
        for u, v in [(0, "a"), ("a", 1), (1, 0), (0, "b"), ("b", "a"), (1, "b")]:
            graph.add_edge(u, v, 1.0)
        graph.add_edge(2, "c", 1.0)
        report = mr_densest_subgraph(graph, 0.1)
        _assert_matches_reference(
            report.result, densest_subgraph(graph, 0.1, engine="python")
        )
        assert report.result.nodes == frozenset({0, 1, "a", "b"})

    def test_int_labels_are_their_own_keys(self):
        """Ints within ±2**62 key the shuffle unchanged (so int-labeled
        runs meter exactly as before); one label outside the bound
        relabels the whole graph to positions in nodes() order."""
        from repro.mapreduce.densest import _columnar_state

        graph = UndirectedGraph()
        graph.add_edge(7, -3, 1.0)
        graph.add_edge(-3, 2**62 - 1, 1.0)
        _, keys, _, _, edges = _columnar_state(graph)
        assert keys.tolist() == [7, -3, 2**62 - 1]
        endpoints = edges.keys.tolist() + edges.columns["v"].tolist()
        assert sorted(endpoints) == sorted([7, -3, -3, 2**62 - 1])
        graph.add_edge(2**62, 7, 1.0)
        _, keys, _, _, edges = _columnar_state(graph)
        assert keys.tolist() == [0, 1, 2, 3]
        endpoints = edges.keys.tolist() + edges.columns["v"].tolist()
        assert sorted(endpoints) == [0, 0, 1, 1, 2, 3]


class TestEngineResolution:
    def test_unknown_engine_rejected(self, social):
        """The drivers have no engine knob, and the backend rejects
        engine names it does not run."""
        from repro.api import DensestSubgraph, solve
        from repro.errors import SolverError

        with pytest.raises(TypeError):
            mr_densest_subgraph(social, 0.5, engine="numpy")
        with pytest.raises(SolverError):
            solve(
                DensestSubgraph(social, epsilon=0.5), backend="mapreduce",
                engine="fortran",
            )


class TestBatchTaskRetries:
    """TransientTaskError semantics for batch tasks."""

    def _flaky(self, fn, failures):
        state = {"remaining": failures}

        def wrapped(arg):
            if state["remaining"] > 0:
                state["remaining"] -= 1
                raise TransientTaskError("injected batch failure")
            return fn(arg)

        return wrapped

    def _job(self, flaky_map_failures=0, flaky_reduce_failures=0):
        from repro.mapreduce.densest import _degree_mapper, _sum_reducer

        return MapReduceJob(
            name="flaky-batch",
            mapper=self._flaky(_degree_mapper, flaky_map_failures),
            reducer=self._flaky(_sum_reducer, flaky_reduce_failures),
        )

    def _edges(self):
        return ColumnarKV(
            np.array([0, 1, 2], dtype=np.int64),
            {
                "v": np.array([1, 2, 0], dtype=np.int64),
                "w": np.ones(3, dtype=np.float64),
            },
        )

    def test_flaky_batch_mapper_retried(self):
        runtime = MapReduceRuntime(1, 1, max_task_retries=3)
        out, counters = runtime.run(self._job(flaky_map_failures=2), self._edges())
        assert runtime.task_retries == 2
        assert sorted(out.to_pairs()) == [(0, 2.0), (1, 2.0), (2, 2.0)]
        assert counters.map_output_records == 6  # counted once, post-retry

    def test_flaky_batch_reducer_retried(self):
        runtime = MapReduceRuntime(1, 1, max_task_retries=2)
        out, counters = runtime.run(self._job(flaky_reduce_failures=1), self._edges())
        assert runtime.task_retries == 1
        assert counters.reduce_groups == 3  # counted once, pre-retry
        assert sorted(out.to_pairs()) == [(0, 2.0), (1, 2.0), (2, 2.0)]

    def test_batch_retries_exhausted_fails_job(self):
        runtime = MapReduceRuntime(1, 1, max_task_retries=1)
        with pytest.raises(MapReduceError, match="failed after 2 attempts"):
            runtime.run(self._job(flaky_map_failures=5), self._edges())

    def test_driver_survives_transient_batch_failures(self, social):
        """A driver run with fault injection matches a clean run."""
        from repro.mapreduce import densest

        clean = mr_densest_subgraph(social, 0.5, runtime=MapReduceRuntime(4, 4, seed=6))
        state = {"failures": 3}
        original_job = densest.DEGREE_JOB

        def flaky_degree_mapper(batch):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise TransientTaskError("injected")
            return original_job.mapper(batch)

        runtime = MapReduceRuntime(4, 4, seed=6, max_task_retries=3)
        try:
            densest.DEGREE_JOB = MapReduceJob(
                name="degree",
                mapper=flaky_degree_mapper,
                reducer=original_job.reducer,
                combiner=original_job.combiner,
            )
            flaky = densest.mr_densest_subgraph(social, 0.5, runtime=runtime)
        finally:
            densest.DEGREE_JOB = original_job
        assert runtime.task_retries == 3
        assert flaky.result.nodes == clean.result.nodes


class TestBackendEngineOption:
    def test_fused_option_rejected(self, social):
        """``fused`` is not an option of the backend: it fails like any
        other unknown option, and the drivers take no such keyword."""
        from repro.api import DensestSubgraph, solve
        from repro.errors import SolverError

        with pytest.raises(SolverError, match=r"unsupported options \['fused'\]"):
            solve(DensestSubgraph(social, epsilon=0.5), backend="mapreduce", fused=True)
        with pytest.raises(TypeError):
            mr_densest_subgraph(social, 0.5, fused=True)

    def test_mapreduce_backend_advertises_engines(self):
        from repro.api import get_backend

        assert get_backend("mapreduce").capabilities().engines == ("numpy",)
        assert "numpy" in get_backend("sketch").capabilities().engines

    @pytest.mark.parametrize("backend", ["mapreduce", "sketch"])
    @pytest.mark.parametrize("engine", ["auto", "python", "numpy", "native"])
    def test_engine_option_rejected(self, social, backend, engine):
        """MapReduce and the sketch each have one engine: ``engine``
        fails like any other unknown option, and the engine functions
        take no such keyword."""
        from repro.api import DensestSubgraph, solve
        from repro.errors import SolverError
        from repro.streaming.sketch_engine import sketch_densest_subgraph
        from repro.streaming.stream import GraphEdgeStream

        with pytest.raises(SolverError, match=r"unsupported options \['engine'\]"):
            solve(DensestSubgraph(social, epsilon=0.5), backend=backend, engine=engine)
        with pytest.raises(TypeError):
            if backend == "sketch":
                sketch_densest_subgraph(GraphEdgeStream(social), 0.5, engine=engine)
            else:
                mr_densest_subgraph(social, 0.5, engine=engine)
