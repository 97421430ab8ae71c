"""Unit tests for the MapReduce simulator (runtime, jobs, counters, cost)."""

import numpy as np
import pytest

from repro.errors import MapReduceError, ParameterError
from repro.mapreduce.columnar import ColumnarKV, stable_hash_int64
from repro.mapreduce.cost import CostModel
from repro.mapreduce.job import JobCounters, MapReduceJob
from repro.mapreduce.runtime import MapReduceRuntime, TransientTaskError


def _count_words(batch):
    """Re-key each record on its int word with a count of 1."""
    return ColumnarKV(batch.columns["word"], {"n": np.ones(batch.num_records)})


def _sum_counts(grouped):
    return ColumnarKV(grouped.keys, {"n": grouped.segment_sum("n")})


def wordcount_job(with_combiner=False):
    return MapReduceJob(
        name="wordcount",
        mapper=_count_words,
        reducer=_sum_counts,
        combiner=_sum_counts if with_combiner else None,
    )


def words_batch(words):
    """A batch of int words keyed by position."""
    words = np.asarray(words, dtype=np.int64)
    return ColumnarKV(np.arange(words.size), {"word": words})


def as_dict(output):
    return {int(k): v for k, v in output.to_pairs()}


class TestRuntime:
    def test_wordcount(self):
        runtime = MapReduceRuntime(num_mappers=3, num_reducers=2)
        output, counters = runtime.run(wordcount_job(), words_batch([1, 2, 1, 3, 2, 1]))
        assert as_dict(output) == {1: 3.0, 2: 2.0, 3: 1.0}
        assert counters.map_input_records == 6
        assert counters.map_output_records == 6
        assert counters.reduce_groups == 3

    def test_combiner_reduces_shuffle(self):
        batch = words_batch([1] * 50 + [2] * 50)
        without = MapReduceRuntime(num_mappers=4, num_reducers=2).run(
            wordcount_job(False), batch
        )[1]
        with_comb = MapReduceRuntime(num_mappers=4, num_reducers=2).run(
            wordcount_job(True), batch
        )[1]
        assert with_comb.shuffle_records < without.shuffle_records
        # Same final answer either way.
        assert with_comb.reduce_groups == without.reduce_groups == 2

    def test_output_independent_of_task_count(self):
        batch = words_batch([i % 7 for i in range(100)])
        results = []
        for mappers, reducers in [(1, 1), (3, 2), (16, 16)]:
            runtime = MapReduceRuntime(num_mappers=mappers, num_reducers=reducers)
            output, _ = runtime.run(wordcount_job(True), batch)
            results.append(sorted(output.to_pairs()))
        assert results[0] == results[1] == results[2]

    def test_output_independent_of_task_order_seed(self):
        batch = words_batch([i % 5 for i in range(40)])
        outs = [
            MapReduceRuntime(4, 4, seed=s).run(wordcount_job(), batch)[0].to_pairs()
            for s in (0, 1, 2)
        ]
        assert outs[0] == outs[1] == outs[2]

    def test_bad_mapper_output_raises(self):
        job = MapReduceJob(
            name="bad", mapper=lambda batch: ["oops"], reducer=_sum_counts
        )
        with pytest.raises(MapReduceError, match="mapper must emit a ColumnarKV"):
            MapReduceRuntime(2, 2).run(job, words_batch([1]))

    def test_bad_reducer_output_raises(self):
        job = MapReduceJob(
            name="bad", mapper=_count_words, reducer=lambda grouped: grouped.keys
        )
        with pytest.raises(MapReduceError, match="reducer must emit a ColumnarKV"):
            MapReduceRuntime(2, 2).run(job, words_batch([1]))

    def test_unhashable_key_type_raises(self):
        """A mapper emitting float keys fails with a typed error instead
        of having its keys silently truncated to ints."""
        job = MapReduceJob(
            name="floatkey",
            mapper=lambda batch: ColumnarKV(
                batch.keys + 0.5, {"n": np.ones(batch.num_records)}
            ),
            reducer=_sum_counts,
        )
        with pytest.raises(MapReduceError, match="int64"):
            MapReduceRuntime(2, 2).run(job, words_batch([1, 2, 3]))

    def test_list_of_pairs_rejected(self):
        with pytest.raises(MapReduceError, match="ColumnarKV"):
            MapReduceRuntime(2, 2).run(wordcount_job(), [(0, 1), (1, 2)])

    def test_run_chain(self):
        # Chain: wordcount, then keep counts >= 2.
        job2 = MapReduceJob(
            name="filter",
            mapper=lambda batch: batch.take(batch.columns["n"] >= 2),
            reducer=lambda grouped: grouped.rows,
        )
        runtime = MapReduceRuntime(2, 2)
        output, counters = runtime.run_chain(
            [wordcount_job(), job2], words_batch([1, 1, 2])
        )
        assert as_dict(output) == {1: 2.0}
        assert len(counters) == 2

    def test_history(self):
        runtime = MapReduceRuntime(2, 2)
        runtime.run(wordcount_job(), words_batch([1]))
        runtime.run(wordcount_job(), words_batch([2]))
        assert len(runtime.history) == 2
        runtime.reset_history()
        assert runtime.history == []

    def test_parallelism_validation(self):
        with pytest.raises(ParameterError):
            MapReduceRuntime(num_mappers=0)


class TestFaultTolerance:
    """Hadoop-style task retries via TransientTaskError injection."""

    def _flaky(self, fn, failures_left):
        state = {"remaining": failures_left}

        def wrapped(arg):
            if state["remaining"] > 0:
                state["remaining"] -= 1
                raise TransientTaskError("injected failure")
            return fn(arg)

        return wrapped

    def test_map_task_retried_and_succeeds(self):
        job = MapReduceJob(
            name="flaky", mapper=self._flaky(_count_words, 2), reducer=_sum_counts
        )
        runtime = MapReduceRuntime(num_mappers=1, num_reducers=1, max_task_retries=3)
        output, _ = runtime.run(job, words_batch([4, 4]))
        assert as_dict(output) == {4: 2.0}
        assert runtime.task_retries == 2

    def test_retries_exhausted_fails_job(self):
        job = MapReduceJob(
            name="hopeless", mapper=self._flaky(_count_words, 10), reducer=_sum_counts
        )
        runtime = MapReduceRuntime(num_mappers=1, num_reducers=1, max_task_retries=2)
        with pytest.raises(MapReduceError, match="failed after 3 attempts"):
            runtime.run(job, words_batch([4]))

    def test_reduce_task_retried(self):
        job = MapReduceJob(
            name="flaky-reduce", mapper=_count_words, reducer=self._flaky(_sum_counts, 1)
        )
        runtime = MapReduceRuntime(num_mappers=2, num_reducers=1)
        output, _ = runtime.run(job, words_batch([9]))
        assert as_dict(output) == {9: 1.0}
        assert runtime.task_retries == 1

    def test_counters_not_double_counted_on_retry(self):
        job = MapReduceJob(
            name="flaky", mapper=self._flaky(_count_words, 1), reducer=_sum_counts
        )
        runtime = MapReduceRuntime(num_mappers=1, num_reducers=1)
        _, counters = runtime.run(job, words_batch([4, 5]))
        assert counters.map_output_records == 2  # counted once, post-retry

    def test_negative_retries_rejected(self):
        with pytest.raises(ParameterError):
            MapReduceRuntime(max_task_retries=-1)


class TestStableHash:
    def test_types(self):
        """Every integer key dtype hashes like the scalar formula
        ``k * 2654435761 % 2**32`` (negative keys included)."""
        keys = [0, 1, 5, -1, -7, 2**31 - 1, 2**40, -(2**40), 2**62, -(2**62)]
        expected = [k * 2654435761 % 2**32 for k in keys]
        assert stable_hash_int64(np.array(keys, dtype=np.int64)).tolist() == expected
        small = [k for k in keys if 0 <= k < 2**31]
        for dtype in (np.int32, np.uint32, np.uint64):
            got = stable_hash_int64(np.array(small, dtype=dtype)).tolist()
            assert got == [k * 2654435761 % 2**32 for k in small], dtype

    def test_spread(self):
        buckets = set((stable_hash_int64(np.arange(1000)) % 16).tolist())
        assert len(buckets) == 16


class TestCounters:
    def test_merge(self):
        a = JobCounters(job_name="x", map_input_records=3, shuffle_bytes=10)
        b = JobCounters(job_name="y", map_input_records=4, shuffle_bytes=5)
        merged = a.merge(b)
        assert merged.job_name == "x"
        assert merged.map_input_records == 7
        assert merged.shuffle_bytes == 15


class TestCostModel:
    def test_round_floor_is_overhead(self):
        model = CostModel(round_overhead_s=30.0)
        empty = JobCounters()
        assert model.round_seconds(empty) == 30.0

    def test_monotone_in_records(self):
        model = CostModel()
        small = JobCounters(map_input_records=10)
        big = JobCounters(map_input_records=10_000_000)
        assert model.round_seconds(big) > model.round_seconds(small)

    def test_parallelism_divides_cost(self):
        slow = CostModel(num_mappers=1, num_reducers=1, round_overhead_s=0.0)
        fast = CostModel(num_mappers=100, num_reducers=100, round_overhead_s=0.0)
        counters = JobCounters(
            map_input_records=10_000, shuffle_bytes=10_000, reduce_groups=100
        )
        assert slow.round_seconds(counters) == pytest.approx(
            100 * fast.round_seconds(counters)
        )

    def test_total_and_pass_seconds(self):
        model = CostModel(round_overhead_s=1.0)
        rounds = [JobCounters(), JobCounters()]
        assert model.total_seconds(rounds) == pytest.approx(2.0)
        assert model.pass_seconds([rounds, rounds]) == [
            pytest.approx(2.0),
            pytest.approx(2.0),
        ]
