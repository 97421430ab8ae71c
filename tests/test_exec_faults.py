"""Executor failure paths: lost workers, deadlines, exhausted retries.

The contract under test: a SIGKILLed worker mid-job is survived by
respawning the owned pool and resubmitting in-flight tasks, and the
recovered run is *bit-identical* to a fault-free run — same node set,
same trace, same per-round counters.  Failures that cannot be healed
(retry budget exhausted, borrowed pool broken) surface as typed
:class:`MapReduceError`, never hangs or partial answers.
"""

import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import MapReduceError, ParameterError
from repro.faults import FaultPlan, FaultPoint
from repro.kernels import CSRGraph
from repro.mapreduce.columnar import ColumnarKV
from repro.mapreduce.densest import mr_densest_subgraph
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import MapReduceRuntime, register_job

#: Flag-file path handed to spawned workers through the environment
#: (set before any pool starts so children inherit it).
_SLEEP_ENV = "REPRO_TEST_SLEEP_FLAG"
if _SLEEP_ENV not in os.environ:
    os.environ[_SLEEP_ENV] = os.path.join(
        tempfile.gettempdir(), f"repro-sleepy-{os.getpid()}"
    )


def _sleepy_mapper_batch(batch):
    # Stall only while the flag file exists so a test that expects a
    # deadline can unstick the worker afterwards (pool teardown joins
    # worker processes; an unconditional long sleep would block exit).
    flag = os.environ[_SLEEP_ENV]
    deadline = time.monotonic() + 30.0
    while os.path.exists(flag) and time.monotonic() < deadline:
        time.sleep(0.05)
    return batch


def _sleepy_reducer_batch(grouped):
    return grouped.rows


SLEEPY_JOB = register_job(
    MapReduceJob(
        name="test-sleepy-batch",
        mapper=_sleepy_mapper_batch,
        reducer=_sleepy_reducer_batch,
    )
)


def _graph(n=120, m=900, seed=4):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, n, (m, 2))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return CSRGraph.from_edge_arrays(src, dst, num_nodes=n)


def _counters(report):
    return [
        (c.job_name, c.map_input_records, c.shuffle_records, c.reduce_groups)
        for rounds in report.rounds_per_pass
        for c in rounds
    ]


def _serial_reference(graph, eps=0.1):
    runtime = MapReduceRuntime(num_mappers=4, num_reducers=4, seed=11)
    return mr_densest_subgraph(graph, eps, runtime=runtime)


class TestWorkerLossRecovery:
    def test_sigkilled_worker_recovers_bit_identical(self):
        graph = _graph()
        ref = _serial_reference(graph)
        plan = FaultPlan.kill_worker_at("map", 1)
        with MapReduceRuntime(
            num_mappers=4, num_reducers=4, seed=11,
            executor="process", workers=2,
            fault_plan=plan, retry_backoff=0.0,
        ) as runtime:
            got = mr_densest_subgraph(graph, 0.1, runtime=runtime)
            assert got.result.nodes == ref.result.nodes
            assert got.result.density == ref.result.density
            assert got.result.trace == ref.result.trace
            assert _counters(got) == _counters(ref)
            assert runtime.workers_lost == 1
            assert runtime.tasks_retried >= 1
        assert plan.pending() == []
        assert plan.fired[0]["mode"] == "kill_worker"

    def test_injected_raise_in_reduce_is_retried(self):
        graph = _graph()
        ref = _serial_reference(graph)
        plan = FaultPlan([FaultPoint("mapreduce.reduce", 2, "raise")])
        with MapReduceRuntime(
            num_mappers=4, num_reducers=4, seed=11,
            executor="process", workers=2,
            fault_plan=plan, retry_backoff=0.0,
        ) as runtime:
            got = mr_densest_subgraph(graph, 0.1, runtime=runtime)
            assert got.result.nodes == ref.result.nodes
            assert got.result.trace == ref.result.trace
            assert runtime.task_retries == 1
            assert runtime.workers_lost == 0
        assert plan.pending() == []

    def test_fault_log_records_recovery(self, tmp_path):
        graph = _graph(n=60, m=300)
        plan = FaultPlan.kill_worker_at("map", 0, seed=3)
        with MapReduceRuntime(
            num_mappers=2, num_reducers=2, seed=11,
            executor="process", workers=2,
            fault_plan=plan, retry_backoff=0.0,
        ) as runtime:
            mr_densest_subgraph(graph, 0.5, runtime=runtime)
        log = tmp_path / "plan.json"
        plan.save_log(log)
        import json

        payload = json.loads(log.read_text())
        assert payload["pending"] == []
        assert payload["fired"][0]["site"] == "mapreduce.map"


class TestUnhealableFailures:
    def test_exhausted_retries_raise_cleanly(self):
        graph = _graph(n=60, m=300)
        plan = FaultPlan.kill_worker_at("map", 0)
        with MapReduceRuntime(
            num_mappers=2, num_reducers=2, seed=11,
            executor="process", workers=2,
            max_task_retries=0, fault_plan=plan, retry_backoff=0.0,
        ) as runtime:
            with pytest.raises(
                MapReduceError, match=r"failed after 1 attempts.*worker lost"
            ):
                mr_densest_subgraph(graph, 0.5, runtime=runtime)

    def test_borrowed_broken_pool_is_refused(self):
        graph = _graph(n=60, m=300)
        pool = ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")
        )
        try:
            runtime = MapReduceRuntime(
                num_mappers=2, num_reducers=2, seed=11,
                executor="process", pool=pool,
                fault_plan=FaultPlan.kill_worker_at("map", 0),
                retry_backoff=0.0,
            )
            with pytest.raises(MapReduceError, match="cannot respawn"):
                mr_densest_subgraph(
                    graph, 0.5, runtime=runtime
                )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def test_task_deadline_exceeded_raises_typed(self):
        batch = ColumnarKV(
            np.arange(16, dtype=np.int64) % 3,
            {"v": np.arange(16, dtype=np.int64)},
        )
        flag = os.environ[_SLEEP_ENV]
        open(flag, "w").close()
        try:
            # The flag stays set until the finally block, so the worker
            # is still stuck when the runtime gives up: the block exits
            # promptly only if the stuck worker is terminated rather
            # than joined by close().
            start = time.monotonic()
            with MapReduceRuntime(
                num_mappers=1, num_reducers=1, seed=0,
                executor="process", workers=1,
                max_task_retries=0, task_timeout=0.3, retry_backoff=0.0,
            ) as runtime:
                with pytest.raises(
                    MapReduceError, match="task deadline exceeded"
                ):
                    runtime.run(SLEEPY_JOB, batch)
                assert runtime.workers_lost == 1
            assert time.monotonic() - start < 5.0
        finally:
            if os.path.exists(flag):
                os.remove(flag)

    def test_deadline_retry_then_success(self):
        batch = ColumnarKV(
            np.arange(16, dtype=np.int64) % 3,
            {"v": np.arange(16, dtype=np.int64)},
        )
        clean = MapReduceRuntime(num_mappers=1, num_reducers=1, seed=0)
        expected, _ = clean.run(SLEEPY_JOB, batch)
        flag = os.environ[_SLEEP_ENV]
        open(flag, "w").close()
        remover = None
        try:
            import threading

            # first attempt must exceed the deadline; the flag is gone
            # by the time the respawned worker retries, so the retry
            # finishes well inside its own window (the window must
            # absorb spawn-worker start-up, hence seconds not millis)
            remover = threading.Timer(
                3.5, lambda: os.path.exists(flag) and os.remove(flag)
            )
            remover.start()
            with MapReduceRuntime(
                num_mappers=1, num_reducers=1, seed=0,
                executor="process", workers=1,
                task_timeout=3.0, retry_backoff=0.0,
            ) as runtime:
                out, _ = runtime.run(SLEEPY_JOB, batch)
                assert runtime.workers_lost >= 1
            assert out.to_pairs() == expected.to_pairs()
        finally:
            if remover is not None:
                remover.cancel()
            if os.path.exists(flag):
                os.remove(flag)


class TestParameterValidation:
    def test_task_timeout_must_be_positive(self):
        with pytest.raises(ParameterError, match="task_timeout"):
            MapReduceRuntime(task_timeout=0)

    def test_retry_backoff_must_be_nonnegative(self):
        with pytest.raises(ParameterError, match="retry_backoff"):
            MapReduceRuntime(retry_backoff=-0.1)
