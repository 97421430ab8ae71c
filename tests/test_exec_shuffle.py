"""File-backed distributed shuffle: parity, metering, faults, lifecycle.

The tentpole contract: with ``shuffle_dir`` set, map tasks spill
hash-partitioned columnar runs to disk and reduce tasks memmap only
their own partition's runs — and everything observable (node sets,
traces, per-round counters *including shuffle_bytes*) stays
bit-identical to the serial in-memory path.  The shuffle directory is
transient state: cleaned after success, after retried transient
failures, after a SIGKILLed worker's recovery, and after a corruption
abort, with no orphaned ``*.tmp`` debris.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api import DensestSubgraph, ExecutionContext, solve
from repro.errors import StoreCorruptionError, StoreError
from repro.faults import FaultPlan, FaultPoint
from repro.kernels import CSRDigraph, CSRGraph
from repro.mapreduce.columnar import ColumnarKV
from repro.mapreduce.densest import mr_densest_subgraph, mr_densest_subgraph_directed
from repro.mapreduce.runtime import MapReduceRuntime, shuffle_size
from repro.store import corrupt_run_file, read_run_file, write_run_file


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


def _tree(root):
    """Every path under ``root`` (the lifecycle-cleanliness probe)."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            found.append(os.path.join(dirpath, name))
    return sorted(found)


def _batch(n=64, mod=9):
    keys = np.arange(n, dtype=np.int64) % mod
    return ColumnarKV(
        keys, {"v": np.arange(n, dtype=np.int64), "w": np.linspace(0, 1, n)}
    )


# ----------------------------------------------------------------------
# Run-file format: write / read / corrupt round trip
# ----------------------------------------------------------------------
class TestRunFiles:
    def test_round_trip_and_crc(self, tmp_path):
        batch = _batch()
        path = str(tmp_path / "run.npy")
        records, nbytes, crc = write_run_file(path, batch.keys, batch.columns)
        assert records == batch.num_records
        # The manifest's payload size IS the in-memory metering size:
        # packed structured dtype, 8-byte key + column itemsizes.
        assert nbytes == batch.byte_size()
        keys, columns = read_run_file(path, expected_crc=crc)
        np.testing.assert_array_equal(keys, batch.keys)
        for name, col in batch.columns.items():
            np.testing.assert_array_equal(columns[name], col)

    def test_read_is_memmapped(self, tmp_path):
        batch = _batch()
        path = str(tmp_path / "run.npy")
        write_run_file(path, batch.keys, batch.columns)
        keys, _ = read_run_file(path)
        assert isinstance(keys.base, np.memmap) or isinstance(keys, np.memmap)

    def test_corrupt_byte_is_caught(self, tmp_path):
        batch = _batch()
        path = str(tmp_path / "run.npy")
        _, _, crc = write_run_file(path, batch.keys, batch.columns)
        corrupt_run_file(path)
        with pytest.raises(StoreCorruptionError, match="checksum"):
            read_run_file(path, expected_crc=crc)

    def test_empty_run_round_trip(self, tmp_path):
        empty = ColumnarKV.empty((("v", "<i8"), ("w", "<f8")))
        path = str(tmp_path / "empty.npy")
        records, nbytes, crc = write_run_file(path, empty.keys, empty.columns)
        assert (records, nbytes) == (0, 0)
        keys, columns = read_run_file(path, expected_crc=crc)
        assert keys.size == 0 and columns["w"].size == 0

    def test_corrupting_empty_run_is_an_error(self, tmp_path):
        empty = ColumnarKV.empty((("v", "<i8"),))
        path = str(tmp_path / "empty.npy")
        write_run_file(path, empty.keys, empty.columns)
        with pytest.raises(StoreError, match="no payload"):
            corrupt_run_file(path)

    def test_reserved_key_column_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="collides"):
            write_run_file(
                str(tmp_path / "bad.npy"),
                np.arange(3, dtype=np.int64),
                {"k": np.arange(3)},
            )


# ----------------------------------------------------------------------
# Unified shuffle-byte metering (satellite 1)
# ----------------------------------------------------------------------
class TestShuffleMetering:
    def test_record_and_columnar_partitions_meter_identically(self):
        batch = _batch()
        pairs = batch.to_pairs()
        col_records, col_bytes = shuffle_size(batch)
        assert col_records == len(pairs) == batch.num_records
        # The record view's per-type size — 8 bytes per int/float
        # scalar: int64 key + int64 v + float64 w — is what the
        # columnar partition is metered at.
        rec_bytes = sum(8 + 8 * len(value) for _, value in pairs)
        assert col_bytes == rec_bytes == batch.byte_size()

    def test_serial_and_process_counters_identical(self, pool, tmp_path):
        graph = _undirected_csr(True)
        serial = mr_densest_subgraph(graph, 0.1, runtime=_runtime())
        shuffled = mr_densest_subgraph(
            graph, 0.1,
            runtime=_runtime(pool, shuffle_dir=str(tmp_path)),
        )
        assert _counters(serial) == _counters(shuffled)


# ----------------------------------------------------------------------
# File-shuffle parity: bit-exact against the serial columnar path
# ----------------------------------------------------------------------
class TestFileShuffleParity:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_undirected(self, pool, tmp_path, weighted):
        graph = _undirected_csr(weighted)
        serial = mr_densest_subgraph(graph, 0.5, runtime=_runtime())
        runtime = _runtime(pool, shuffle_dir=str(tmp_path))
        assert runtime.executor == "process"
        assert runtime.shuffle_dir == str(tmp_path)
        got = mr_densest_subgraph(graph, 0.5, runtime=runtime)
        assert got.result.nodes == serial.result.nodes
        assert got.result.trace == serial.result.trace
        assert _counters(got) == _counters(serial)
        assert runtime.spilled_runs > 0

    def test_directed(self, pool, tmp_path):
        graph = _directed_csr(True)
        serial = mr_densest_subgraph_directed(
            graph, 1.0, 0.5, runtime=_runtime()
        )
        got = mr_densest_subgraph_directed(
            graph, 1.0, 0.5,
            runtime=_runtime(pool, shuffle_dir=str(tmp_path)),
        )
        assert got.result.s_nodes == serial.result.s_nodes
        assert got.result.t_nodes == serial.result.t_nodes
        assert got.result.trace == serial.result.trace
        assert _counters(got) == _counters(serial)

    def test_serial_runtime_ignores_shuffle_dir(self, tmp_path):
        runtime = _runtime(shuffle_dir=str(tmp_path))
        assert runtime.executor == "serial"
        assert runtime.shuffle_dir == str(tmp_path)
        graph = _undirected_csr(False)
        ref = mr_densest_subgraph(graph, 0.5, runtime=_runtime())
        got = mr_densest_subgraph(graph, 0.5, runtime=runtime)
        assert got.result == ref.result
        assert _tree(tmp_path) == []

    def test_solve_context_shuffle_dir(self, tmp_path):
        graph = _undirected_csr(True)
        problem = DensestSubgraph(graph, epsilon=0.1)
        serial = solve(problem, backend="mapreduce")
        shuffled = solve(
            problem,
            backend="mapreduce",
            context=ExecutionContext(workers=2, shuffle_dir=str(tmp_path)),
        )
        assert serial.nodes == shuffled.nodes
        assert serial.density == shuffled.density
        assert _tree(tmp_path) == []


# ----------------------------------------------------------------------
# Shuffle-dir lifecycle under faults (satellites 2 + 3)
# ----------------------------------------------------------------------
class TestShuffleLifecycle:
    def test_clean_after_success(self, pool, tmp_path):
        graph = _undirected_csr(False)
        runtime = _runtime(pool, shuffle_dir=str(tmp_path))
        mr_densest_subgraph(graph, 0.5, runtime=runtime)
        assert _tree(tmp_path) == []

    def test_transient_spill_failure_retries_bit_identical(self, pool, tmp_path):
        graph = _undirected_csr(True)
        ref = mr_densest_subgraph(graph, 0.1, runtime=_runtime())
        plan = FaultPlan([FaultPoint("mapreduce.shuffle", 1, "raise")])
        runtime = _runtime(
            pool, shuffle_dir=str(tmp_path), fault_plan=plan, retry_backoff=0.0
        )
        got = mr_densest_subgraph(graph, 0.1, runtime=runtime)
        assert got.result.nodes == ref.result.nodes
        assert got.result.trace == ref.result.trace
        assert _counters(got) == _counters(ref)
        assert runtime.task_retries >= 1
        assert plan.pending() == []
        assert _tree(tmp_path) == []

    def test_killed_worker_mid_spill_recovers(self, tmp_path):
        graph = _undirected_csr(False, n=60, m=400, seed=5)
        ref = mr_densest_subgraph(graph, 0.5, runtime=_runtime())
        plan = FaultPlan([FaultPoint("mapreduce.shuffle", 1, "kill_worker")])
        with MapReduceRuntime(
            num_mappers=4, num_reducers=4, seed=11,
            executor="process", workers=2,
            shuffle_dir=str(tmp_path), fault_plan=plan, retry_backoff=0.0,
        ) as runtime:
            got = mr_densest_subgraph(graph, 0.5, runtime=runtime)
            assert got.result.nodes == ref.result.nodes
            assert got.result.trace == ref.result.trace
            assert _counters(got) == _counters(ref)
            assert runtime.workers_lost == 1
            assert runtime.tasks_retried >= 1
        assert plan.fired[0]["mode"] == "kill_worker"
        assert _tree(tmp_path) == []

    def test_corrupted_run_surfaces_typed_and_cleans_up(self, pool, tmp_path):
        graph = _undirected_csr(True)
        plan = FaultPlan.corrupt_run_at(0)
        runtime = _runtime(
            pool, shuffle_dir=str(tmp_path), fault_plan=plan, retry_backoff=0.0
        )
        with pytest.raises(StoreCorruptionError, match="checksum"):
            mr_densest_subgraph(graph, 0.1, runtime=runtime)
        # The job aborts (no silent wrong answer), the round directory
        # is still torn down, and nothing half-written lingers.
        assert _tree(tmp_path) == []

    def test_round_dir_entry_sweeps_orphan_tmp_debris(self, pool, tmp_path):
        # A "previous crashed driver" left half-written runs behind.
        orphan_dir = tmp_path / "round-0001"
        orphan_dir.mkdir()
        orphan = orphan_dir / "map-0000-p0000.npy.tmp"
        orphan.write_bytes(b"garbage")
        graph = _undirected_csr(False, n=60, m=400, seed=5)
        runtime = _runtime(pool, shuffle_dir=str(tmp_path))
        mr_densest_subgraph(graph, 0.5, runtime=runtime)
        assert not orphan.exists()
        assert _tree(tmp_path) == []
