"""Fused peel rounds: one broadcast-parameter degree round per pass.

``fused=True`` keeps the edge input static and broadcasts the
cumulative kill set as a per-round job parameter, so each peeling pass
is a single map/reduce round instead of degree + removal rounds.  The
contract: fused runs must produce identical results and traces to the
classic pipeline and to the :mod:`repro.core` reference peel (dyadic
weights, so float sums are exact in any association order), meter the
closed-form record counts of their round shapes, and — the point of the
optimization — shuffle at most 0.6x the classic pipeline's bytes.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.kernels import CSRDigraph, CSRGraph
from repro.mapreduce.densest import (
    mr_densest_subgraph,
    mr_densest_subgraph_atleast_k,
    mr_densest_subgraph_directed,
)
from repro.mapreduce.runtime import MapReduceRuntime

#: Record-count fields of :class:`JobCounters`.
COUNT_FIELDS = (
    "map_input_records",
    "map_output_records",
    "combine_output_records",
    "shuffle_records",
    "reduce_groups",
    "reduce_output_records",
)


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    ) as executor:
        yield executor


def _runtime(pool=None, **kwargs):
    if pool is None:
        return MapReduceRuntime(num_mappers=4, num_reducers=4, seed=11, **kwargs)
    return MapReduceRuntime(
        num_mappers=4, num_reducers=4, seed=11,
        executor="process", pool=pool, **kwargs,
    )


def _undirected_csr(weighted: bool, n=90, m=700, seed=1):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, n, (m, 2))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    # Dyadic weights: exact float sums in any association order, so
    # fused (whole-pass) and classic (shrinking-input) rounds make
    # bit-identical threshold decisions.
    w = rng.choice([0.25, 0.5, 1.0, 2.0], size=src.size) if weighted else None
    return CSRGraph.from_edge_arrays(src, dst, w, num_nodes=n)


def _directed_csr(weighted: bool, n=90, m=900, seed=2):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    key, idx = np.unique(src[keep] * n + dst[keep], return_index=True)
    src = src[keep][idx].astype(np.int64)
    dst = dst[keep][idx].astype(np.int64)
    w = rng.choice([0.5, 1.0, 4.0], size=src.size) if weighted else None
    return CSRDigraph.from_edge_arrays(src, dst, w, num_nodes=n)


def _count_tuples(report, fields=COUNT_FIELDS):
    return [
        tuple(getattr(c, f) for f in fields)
        for rounds in report.rounds_per_pass
        for c in rounds
    ]


def _total_shuffle_bytes(report):
    return sum(
        c.shuffle_bytes for rounds in report.rounds_per_pass for c in rounds
    )


# ----------------------------------------------------------------------
# Fused == classic == the core reference peel (on either core engine)
# ----------------------------------------------------------------------
class TestFusedMatchesClassic:
    @pytest.mark.parametrize("reference_engine", ["python", "numpy"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_undirected(self, reference_engine, weighted):
        graph = _undirected_csr(weighted)
        classic = mr_densest_subgraph(graph, 0.5, runtime=_runtime())
        fused = mr_densest_subgraph(graph, 0.5, runtime=_runtime(), fused=True)
        assert fused.result == classic.result
        assert fused.result.trace == classic.result.trace
        assert classic.result == densest_subgraph(graph, 0.5, engine=reference_engine)
        # One round per pass instead of three.
        assert all(len(rounds) == 1 for rounds in fused.rounds_per_pass[:-1])

    @pytest.mark.parametrize("reference_engine", ["python", "numpy"])
    def test_atleast_k(self, reference_engine):
        graph = _undirected_csr(True)
        classic = mr_densest_subgraph_atleast_k(graph, 30, 0.5, runtime=_runtime())
        fused = mr_densest_subgraph_atleast_k(
            graph, 30, 0.5, runtime=_runtime(), fused=True
        )
        assert fused.result == classic.result
        assert fused.result.trace == classic.result.trace
        assert classic.result == densest_subgraph_atleast_k(
            graph, 30, 0.5, engine=reference_engine
        )

    @pytest.mark.parametrize("reference_engine", ["python", "numpy"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_directed(self, reference_engine, weighted):
        graph = _directed_csr(weighted)
        classic = mr_densest_subgraph_directed(graph, 1.0, 0.5, runtime=_runtime())
        fused = mr_densest_subgraph_directed(
            graph, 1.0, 0.5, runtime=_runtime(), fused=True
        )
        assert fused.result == classic.result
        assert fused.result.trace == classic.result.trace
        assert classic.result == densest_subgraph_directed(
            graph, 1.0, 0.5, engine=reference_engine
        )
        assert all(len(rounds) == 1 for rounds in fused.rounds_per_pass)


# ----------------------------------------------------------------------
# Record counts in closed form (unweighted: weight == edge count)
# ----------------------------------------------------------------------
class TestClosedFormCounters:
    def test_undirected_counters(self):
        graph = _undirected_csr(False)
        m = graph.num_edges
        classic = mr_densest_subgraph(graph, 0.1, runtime=_runtime())
        fused = mr_densest_subgraph(graph, 0.1, runtime=_runtime(), fused=True)
        assert fused.result.trace == classic.result.trace
        for record, rounds in zip(classic.result.trace, classic.rounds_per_pass):
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
        for record, (degree,) in zip(fused.result.trace, fused.rounds_per_pass):
            assert degree.job_name == "fused-degree"
            assert degree.map_input_records == m  # the static input
            assert degree.map_output_records == 2 * int(record.edges_before)

    def test_directed_counters(self):
        graph = _directed_csr(False)
        m = graph.num_edges
        classic = mr_densest_subgraph_directed(graph, 1.0, 0.5, runtime=_runtime())
        fused = mr_densest_subgraph_directed(
            graph, 1.0, 0.5, runtime=_runtime(), fused=True
        )
        assert fused.result.trace == classic.result.trace
        for record, (degree, removal) in zip(
            classic.result.trace, classic.rounds_per_pass
        ):
            alive = int(record.edges_before)
            assert degree.map_input_records == alive
            assert degree.map_output_records == 2 * alive
            assert removal.map_input_records == alive + record.removed
            assert removal.reduce_output_records == int(record.edges_after)
        for record, (degree,) in zip(fused.result.trace, fused.rounds_per_pass):
            assert degree.map_input_records == m
            assert degree.map_output_records == 2 * int(record.edges_before)


# ----------------------------------------------------------------------
# The optimization claim: fused shuffles ≤ 0.6x the classic bytes
# ----------------------------------------------------------------------
class TestFusedShufflesLess:
    @pytest.mark.parametrize(
        "driver",
        ["undirected", "atleast_k", "directed"],
    )
    def test_byte_ratio(self, driver):
        if driver == "undirected":
            run = lambda fused: mr_densest_subgraph(
                _undirected_csr(True), 0.5,
                runtime=_runtime(), fused=fused,
            )
        elif driver == "atleast_k":
            run = lambda fused: mr_densest_subgraph_atleast_k(
                _undirected_csr(True), 30, 0.5,
                runtime=_runtime(), fused=fused,
            )
        else:
            run = lambda fused: mr_densest_subgraph_directed(
                _directed_csr(True), 1.0, 0.5,
                runtime=_runtime(), fused=fused,
            )
        classic_bytes = _total_shuffle_bytes(run(False))
        fused_bytes = _total_shuffle_bytes(run(True))
        assert fused_bytes <= 0.6 * classic_bytes, (
            f"{driver}: fused shuffled {fused_bytes} bytes, classic "
            f"{classic_bytes} ({fused_bytes / classic_bytes:.2f}x > 0.6x)"
        )


# ----------------------------------------------------------------------
# Fused under the process pool and the file-backed shuffle
# ----------------------------------------------------------------------
class TestFusedDistributed:
    def test_process_file_shuffle_matches_serial(self, pool, tmp_path):
        graph = _undirected_csr(True)
        serial = mr_densest_subgraph(
            graph, 0.1, runtime=_runtime(), fused=True
        )
        runtime = _runtime(pool, shuffle_dir=str(tmp_path))
        got = mr_densest_subgraph(
            graph, 0.1, runtime=runtime, fused=True
        )
        assert got.result == serial.result
        assert got.result.trace == serial.result.trace
        fields = COUNT_FIELDS + ("shuffle_bytes",)
        assert _count_tuples(got, fields) == _count_tuples(serial, fields)
        # The static edge input was spilled once up front (the
        # peel-input splits) and the trailing round dirs are gone.
        assert runtime.spilled_runs > 0
        import os

        assert os.listdir(tmp_path) == []

    def test_directed_process_file_shuffle_matches_serial(self, pool, tmp_path):
        graph = _directed_csr(False)
        serial = mr_densest_subgraph_directed(
            graph, 1.0, 0.5, runtime=_runtime(), fused=True
        )
        got = mr_densest_subgraph_directed(
            graph, 1.0, 0.5,
            runtime=_runtime(pool, shuffle_dir=str(tmp_path)),
            fused=True,
        )
        assert got.result == serial.result
        assert _count_tuples(got) == _count_tuples(serial)

    def test_solve_fused_option(self):
        from repro.api import DensestSubgraph, solve

        graph = _undirected_csr(True)
        problem = DensestSubgraph(graph, epsilon=0.1)
        classic = solve(problem, backend="mapreduce")
        fused = solve(problem, backend="mapreduce", fused=True)
        assert classic.nodes == fused.nodes
        assert classic.density == fused.density
        assert fused.cost.mapreduce_rounds < classic.cost.mapreduce_rounds
