"""Serial vs process-pool executor parity for the columnar MR runtime.

The acceptance bar of the execution substrate: ``executor="process"``
must produce bit-identical node sets, traces, and per-round record
counters to the serial columnar path — across weighted (dyadic) and
unweighted inputs, directed and undirected drivers, and
eps ∈ {0, 0.1, 0.5}.  One spawn-context pool is shared across the
module (runtimes borrow it via ``pool=``), so the suite pays the
worker start-up cost once.
"""

import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api import DensestSubgraph, ExecutionContext, solve
from repro.errors import MapReduceError
from repro.kernels import CSRDigraph, CSRGraph
from repro.mapreduce.densest import (
    mr_densest_subgraph,
    mr_densest_subgraph_atleast_k,
    mr_densest_subgraph_directed,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import MapReduceRuntime, TransientTaskError, register_job

#: Flag-file path handed to spawned workers through the environment
#: (set before the pool starts so children inherit it).
_FLAKY_ENV = "REPRO_TEST_FLAKY_FLAG"
if _FLAKY_ENV not in os.environ:
    os.environ[_FLAKY_ENV] = os.path.join(
        tempfile.gettempdir(), f"repro-flaky-{os.getpid()}"
    )


def _flaky_mapper_batch(batch):
    flag = os.environ[_FLAKY_ENV]
    if os.path.exists(flag):
        try:
            os.remove(flag)
        except FileNotFoundError:  # another task consumed the failure
            return batch
        raise TransientTaskError("injected worker failure")
    return batch


def _flaky_reducer_batch(grouped):
    return grouped.rows


FLAKY_JOB = register_job(
    MapReduceJob(
        name="test-flaky-batch",
        mapper=_flaky_mapper_batch,
        reducer=_flaky_reducer_batch,
    )
)

UNREGISTERED_JOB = MapReduceJob(
    name="test-unregistered-batch",
    mapper=_flaky_mapper_batch,
    reducer=_flaky_reducer_batch,
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


def _counters(report):
    return [
        (
            c.job_name,
            c.map_input_records,
            c.map_output_records,
            c.combine_output_records,
            c.shuffle_records,
            c.shuffle_bytes,
            c.reduce_groups,
            c.reduce_output_records,
        )
        for rounds in report.rounds_per_pass
        for c in rounds
    ]


class TestSerialProcessParity:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_undirected(self, pool, weighted, eps):
        graph = _undirected_csr(weighted)
        serial = mr_densest_subgraph(
            graph, eps, runtime=_runtime()
        )
        proc = mr_densest_subgraph(
            graph, eps, runtime=_runtime(pool)
        )
        assert serial.result.nodes == proc.result.nodes
        assert serial.result.trace == proc.result.trace
        assert _counters(serial) == _counters(proc)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_directed(self, pool, weighted, eps):
        graph = _directed_csr(weighted)
        serial = mr_densest_subgraph_directed(
            graph, 1.0, eps, runtime=_runtime()
        )
        proc = mr_densest_subgraph_directed(
            graph, 1.0, eps, runtime=_runtime(pool)
        )
        assert serial.result.s_nodes == proc.result.s_nodes
        assert serial.result.t_nodes == proc.result.t_nodes
        assert serial.result.trace == proc.result.trace
        assert _counters(serial) == _counters(proc)

    def test_atleast_k(self, pool):
        graph = _undirected_csr(True)
        serial = mr_densest_subgraph_atleast_k(
            graph, 30, 0.5, runtime=_runtime()
        )
        proc = mr_densest_subgraph_atleast_k(
            graph, 30, 0.5, runtime=_runtime(pool)
        )
        assert serial.result.nodes == proc.result.nodes
        assert serial.result.trace == proc.result.trace
        assert _counters(serial) == _counters(proc)


class TestProcessExecutorContract:
    def test_transient_failure_is_retried_across_processes(self, pool):
        from repro.mapreduce.columnar import ColumnarKV

        batch = ColumnarKV(
            np.arange(40, dtype=np.int64) % 7, {"v": np.arange(40, dtype=np.int64)}
        )
        clean_runtime = _runtime(pool)
        clean, _ = clean_runtime.run(FLAKY_JOB, batch)
        flag = os.environ[_FLAKY_ENV]
        open(flag, "w").close()
        try:
            flaky_runtime = _runtime(pool)
            out, _ = flaky_runtime.run(FLAKY_JOB, batch)
        finally:
            if os.path.exists(flag):
                os.remove(flag)
        assert flaky_runtime.task_retries >= 1
        assert out.to_pairs() == clean.to_pairs()

    def test_exhausted_retries_fail_the_job(self, pool):
        from repro.mapreduce.columnar import ColumnarKV

        batch = ColumnarKV(np.arange(8, dtype=np.int64), {"v": np.arange(8)})
        flag = os.environ[_FLAKY_ENV]
        runtime = MapReduceRuntime(
            num_mappers=1, num_reducers=1, seed=0,
            executor="process", pool=pool, max_task_retries=0,
        )
        open(flag, "w").close()
        try:
            with pytest.raises(MapReduceError, match="failed after 1 attempts"):
                runtime.run(FLAKY_JOB, batch)
        finally:
            if os.path.exists(flag):
                os.remove(flag)

    def test_unregistered_job_is_rejected(self, pool):
        from repro.mapreduce.columnar import ColumnarKV

        batch = ColumnarKV(np.arange(8, dtype=np.int64), {"v": np.arange(8)})
        runtime = _runtime(pool)
        with pytest.raises(MapReduceError, match="not registered"):
            runtime.run(UNREGISTERED_JOB, batch)

    def test_conflicting_registration_rejected(self):
        with pytest.raises(MapReduceError, match="already registered"):
            register_job(
                MapReduceJob(
                    name="test-flaky-batch",
                    mapper=_flaky_mapper_batch,
                    reducer=_flaky_reducer_batch,
                )
            )

    def test_owned_pool_lifecycle(self):
        runtime = MapReduceRuntime(executor="process", workers=1)
        assert runtime._pool is None
        runtime._ensure_pool()
        assert runtime._pool is not None and runtime._owns_pool
        runtime.close()
        assert runtime._pool is None

    def test_invalid_executor_rejected(self):
        with pytest.raises(Exception, match="executor"):
            MapReduceRuntime(executor="threads")


class TestSolveWithContext:
    def test_mapreduce_workers_parity(self):
        graph = _undirected_csr(True)
        problem = DensestSubgraph(graph, epsilon=0.1)
        serial = solve(problem, backend="mapreduce")
        parallel = solve(
            problem,
            backend="mapreduce",
            context=ExecutionContext(workers=2),
        )
        assert serial.nodes == parallel.nodes
        assert serial.density == parallel.density
        assert serial.certificate == parallel.certificate

    def test_context_ignored_by_other_backends(self):
        graph = _undirected_csr(False)
        ctx = ExecutionContext(workers=4)
        a = solve(DensestSubgraph(graph, epsilon=0.5), backend="core")
        b = solve(DensestSubgraph(graph, epsilon=0.5), backend="core", context=ctx)
        assert a.nodes == b.nodes and a.density == b.density
