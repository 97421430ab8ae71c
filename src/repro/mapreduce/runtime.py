"""The MapReduce execution engine.

Simulates the full model on one process, over columnar batches
(:class:`~repro.mapreduce.columnar.ColumnarKV`: int64 keys plus named
value columns), with every stage a handful of array operations:

1. the input batch is split round-robin into ``num_mappers`` input
   splits (strided slicing: record i lands in split ``i % num_mappers``);
2. each map task applies the mapper to its split, then (optionally) the
   combiner to its local output grouped by key — exactly the Hadoop
   combiner contract;
3. map outputs are hash-partitioned by key into ``num_reducers``
   partitions with one vectorized hash over the whole key array (the
   shuffle; records and bytes are metered here);
4. each reduce task groups its partition by key with a sort-based
   group-by (groups in ascending key order, so output order is
   deterministic) and applies the reducer.

Tasks are executed in a deliberately shuffled order (seeded) so jobs
that accidentally depend on task execution order fail loudly in tests.

The runtime additionally supports a real process-pool executor
(``executor="process"``): map and reduce tasks ship their
:class:`ColumnarKV` batches to ``workers`` spawned worker processes.
Jobs must be *spawn-safe* — callables defined at module level and the
job registered with :func:`register_job` at import time of its
defining module — because workers resolve the job by name after
re-importing that module.  Task results are merged in task-index
order and counters are order-independent sums, so output batches,
record counters, and driver traces are bit-identical to
``executor="serial"``.

With a ``shuffle_dir``, the process executor switches to a
**file-backed distributed shuffle**: each map task hash-partitions its
local output inside the worker and spills one columnar run file per
nonempty partition under a per-round shuffle directory (tmp + atomic
rename, fixed-preamble ``.npy`` — the store's shard conventions), and
each reduce task memmaps only its own partition's runs.  The driver
moves manifests — (path, records, bytes, crc) tuples — never record
bytes, so driver memory is independent of shuffle volume.  Shuffle
counters are metered from the manifests; because a run's payload is
exactly 8 bytes of key plus the column dtypes per record, the metered
bytes are bit-identical to the in-memory path's
:meth:`ColumnarKV.byte_size` model.
"""

from __future__ import annotations

import importlib
import random
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .._validation import check_positive_int
from ..errors import MapReduceError, ParameterError
from .columnar import ColumnarKV
from .job import JobCounters, MapReduceJob

#: Executor kinds accepted by :class:`MapReduceRuntime`.
EXECUTORS = ("serial", "process")


class TransientTaskError(Exception):
    """Raised by user task code to simulate a recoverable task failure.

    The runtime re-executes the failing task up to ``max_task_retries``
    times (Hadoop's retry semantics) before failing the whole job with
    :class:`~repro.errors.MapReduceError`.
    """


# ----------------------------------------------------------------------
# Spawn-safe job registry.  Worker processes cannot receive function
# objects closing over arbitrary state; they receive a (job name,
# defining module) pair, import the module — which re-runs its
# import-time register_job calls — and look the job up here.
# ----------------------------------------------------------------------
_JOB_REGISTRY: Dict[str, MapReduceJob] = {}


def register_job(job: MapReduceJob) -> MapReduceJob:
    """Register a job for process-pool execution (idempotent per object).

    Call at module import time, next to the job definition; the job's
    callables must be module-level functions of that same module so the
    spawned workers can re-import them.  Returns the job, so it can be
    used as ``JOB = register_job(MapReduceJob(...))``.
    """
    existing = _JOB_REGISTRY.get(job.name)
    if existing is not None and existing is not job:
        raise MapReduceError(
            f"a different job named {job.name!r} is already registered"
        )
    _JOB_REGISTRY[job.name] = job
    return job


def _job_module(job: MapReduceJob) -> str:
    """The module whose import registers ``job`` (for worker resolution)."""
    return job.mapper.__module__


def _resolve_job(name: str, module: str) -> MapReduceJob:
    """Worker-side lookup: import the defining module, read the registry."""
    if name not in _JOB_REGISTRY:
        importlib.import_module(module)
    try:
        return _JOB_REGISTRY[name]
    except KeyError:
        raise MapReduceError(
            f"job {name!r} not registered after importing {module!r}; "
            f"process execution requires register_job() at import time"
        ) from None


def _map_task_body(job: MapReduceJob, split) -> tuple:
    """One map task (+ per-task combiner); both executors run exactly
    this, so the serial and process paths cannot drift."""
    local = job.mapper(split)
    _check_batch(local, job.name, "mapper")
    raw_count = local.num_records
    if job.combiner is not None:
        local = job.combiner(local.group())
        _check_batch(local, job.name, "combiner")
    return raw_count, local


def _reduce_task_body(job: MapReduceJob, partition) -> tuple:
    """One reduce task (group-by + reducer), executor-shared."""
    grouped = partition.group()
    out = job.reducer(grouped)
    _check_batch(out, job.name, "reducer")
    return grouped.num_groups, out


# ----------------------------------------------------------------------
# File-backed shuffle: run manifests.
# ----------------------------------------------------------------------
class RunRef(NamedTuple):
    """Manifest entry of one spilled run file.

    This is everything the driver sees of a run: where it is, how many
    records and payload bytes it holds (the shuffle metering source),
    and the payload CRC the reading task re-verifies.
    """

    path: str
    records: int
    byte_size: int
    crc: int


def _load_run(ref: RunRef):
    """Memmap one run file back as a batch, verifying its payload CRC."""
    from ..store.shards import read_run_file

    keys, columns = read_run_file(ref.path, expected_crc=ref.crc)
    return ColumnarKV(keys, dict(columns))


def _apply_worker_fault(fault: Optional[str]) -> None:
    """Honor a fault marker shipped with a task (fault injection only).

    ``"kill_worker"`` SIGKILLs this worker process — the driver then
    observes a broken pool, exactly as a real OOM-kill or crash looks.
    Markers ride only on a task's *first* submission (and fault plans
    are one-shot), so the recovery resubmission runs clean.
    """
    if fault is None:
        return
    if fault == "kill_worker":
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "raise":
        raise TransientTaskError("injected transient task failure")


def _process_map_task(
    name: str, module: str, split, fault: Optional[str] = None
) -> tuple:
    """Worker-process entry: resolve the job, run the shared map body."""
    _apply_worker_fault(fault)
    return _map_task_body(_resolve_job(name, module), split)


def _process_reduce_task(
    name: str, module: str, partition, fault: Optional[str] = None
) -> tuple:
    """Worker-process entry: resolve the job, run the shared reduce body."""
    _apply_worker_fault(fault)
    return _reduce_task_body(_resolve_job(name, module), partition)


def _process_map_spill_task(
    name: str, module: str, payload, fault: Optional[str] = None
) -> tuple:
    """Worker-process entry of the file-backed shuffle's map side.

    Runs the shared map body, hash-partitions the local output inside
    the worker, and spills each nonempty partition as a run file under
    the round directory.  Returns the run *manifest* — counts, payload
    bytes, CRCs — never the records themselves.

    ``"shuffle:*"`` fault markers exercise the ``mapreduce.shuffle``
    site: ``raise``/``kill_worker`` fire between the first run's tmp
    write and its atomic rename (leaving ``*.tmp`` debris, like a real
    mid-spill crash); ``corrupt`` flips a payload byte of the first
    committed run while reporting the pristine CRC, so the damage must
    be caught by the reduce-side checksum.
    """
    shuffle_fault = None
    if isinstance(fault, str) and fault.startswith("shuffle:"):
        shuffle_fault = fault.split(":", 1)[1]
        fault = None
    _apply_worker_fault(fault)
    split, task, num_reducers, round_dir = payload
    job = _resolve_job(name, module)
    raw_count, local = _map_task_body(job, split)

    import os

    from ..errors import InjectedFaultError
    from ..store.shards import corrupt_run_file, write_run_file

    runs: List[Tuple[int, RunRef]] = []
    for part_index, part in enumerate(local.partition(num_reducers)):
        if part.num_records == 0:
            continue
        path = os.path.join(round_dir, f"map-{task:04d}-p{part_index:04d}.npy")
        injected = None
        if not runs and shuffle_fault in ("raise", "kill_worker"):
            injected = shuffle_fault
        try:
            records, nbytes, crc = write_run_file(
                path, part.keys, part.columns, fault=injected
            )
        except InjectedFaultError as exc:
            raise TransientTaskError(str(exc)) from exc
        runs.append((part_index, RunRef(path, records, nbytes, crc)))
    if shuffle_fault == "raise" and not runs:
        raise TransientTaskError("injected shuffle failure (empty map output)")
    if shuffle_fault == "corrupt" and runs:
        corrupt_run_file(runs[0][1].path)
    return raw_count, local.num_records, local.schema(), runs


def _process_reduce_runs_task(
    name: str, module: str, payload, fault: Optional[str] = None
) -> tuple:
    """Worker-process entry of the file-backed shuffle's reduce side.

    Memmaps the partition's runs (verifying each payload CRC — a
    corrupted run surfaces as a typed
    :class:`~repro.errors.StoreCorruptionError`, never as silently
    wrong output), concatenates them in map-task order — the same row
    order the in-memory shuffle produces — and runs the shared reduce
    body.
    """
    _apply_worker_fault(fault)
    runs, schema = payload
    job = _resolve_job(name, module)
    if runs:
        partition = ColumnarKV.concat([_load_run(ref) for ref in runs])
    else:
        partition = ColumnarKV.empty(schema)
    return _reduce_task_body(job, partition)


def shuffle_size(partition: ColumnarKV) -> Tuple[int, int]:
    """``(records, bytes)`` one shuffled partition is metered at.

    The single metering authority for every shuffle flavor: a partition
    is charged its :meth:`ColumnarKV.byte_size`.  File-shuffle manifests
    report a run's payload size, which equals ``byte_size()`` by
    construction (8-byte key field + the column dtypes per record), so
    serial, in-memory process, and file-shuffle process runs all count
    the same bytes.
    """
    return partition.num_records, partition.byte_size()


class MapReduceRuntime:
    """A metered, deterministic MapReduce simulator.

    Parameters
    ----------
    num_mappers / num_reducers:
        Degree of task parallelism being simulated (the paper ran 2000
        of each on Hadoop).
    seed:
        Seed for the task-order shuffling.
    max_task_retries:
        How many times a failed task is re-executed before the job is
        declared failed — Hadoop's speculative/retry semantics.  Task
        failures are injected by raising :class:`TransientTaskError`
        from a mapper/combiner/reducer (tests use this to verify the
        retry path); exhausting the retries raises
        :class:`~repro.errors.MapReduceError`.  Tasks retry whole-batch
        — including across processes, where a failed task is
        resubmitted to the pool.
    executor:
        ``"serial"`` (default) runs every task in this process;
        ``"process"`` ships map/reduce tasks to a pool of
        ``workers`` spawned processes (jobs must be registered, see
        :func:`register_job`).  Output batches, counters, and traces
        are bit-identical between the two.
    workers:
        Process-pool size for ``executor="process"`` (default:
        ``os.cpu_count()``).
    pool:
        Optional pre-built ``concurrent.futures.Executor`` to run
        process tasks on.  The runtime does not own a borrowed pool —
        :meth:`close` leaves it running — which lets benchmarks and
        test suites share one warm pool across many runtimes.
    task_timeout:
        Per-task deadline in seconds for process execution (default:
        none).  A task that has not produced a result within the
        deadline is treated like a lost worker: the pool is recycled
        and the task retried, until ``max_task_retries`` is exhausted.
    retry_backoff:
        Base sleep (seconds) before resubmitting after a worker loss;
        doubles per consecutive loss in a stage (capped at 2 s), so a
        crash-looping task backs off instead of hot-spinning the pool.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; points at site
        ``"mapreduce.map"`` / ``"mapreduce.reduce"`` fire when the
        matching task index is first submitted (``kill_worker`` mode
        SIGKILLs the worker running it; ``raise`` mode raises a
        transient failure).  Points at site ``"mapreduce.shuffle"``
        fire inside a spilling map task (file-backed shuffle only):
        ``raise``/``kill_worker`` strike between a run's tmp write and
        its atomic rename, ``corrupt`` flips a payload byte of a
        committed run so the reduce-side checksum must catch it.
        Plans are one-shot, so recovery retries run clean — used by
        the fault-injection tests.
    shuffle_dir:
        Optional directory enabling the file-backed distributed
        shuffle under ``executor="process"``: map tasks spill
        hash-partitioned columnar runs to a per-round subdirectory,
        reduce tasks memmap only their own partition's runs, and the
        driver handles manifests instead of record bytes.  Outputs,
        traces, and counters stay bit-identical to the in-memory
        shuffle; round directories are swept of ``*.tmp`` debris on
        creation and removed when the round ends (success or failure).
        Ignored by the serial executor.

    Examples
    --------
    Count int "words" (keyed by position; the mapper re-keys each
    record on its word with a count of 1):

    >>> import numpy as np
    >>> from repro.mapreduce.columnar import ColumnarKV
    >>> runtime = MapReduceRuntime(num_mappers=4, num_reducers=2)
    >>> job = MapReduceJob(
    ...     name="wordcount",
    ...     mapper=lambda batch: ColumnarKV(
    ...         batch.columns["word"], {"n": np.ones(batch.num_records)}
    ...     ),
    ...     reducer=lambda grouped: ColumnarKV(
    ...         grouped.keys, {"n": grouped.segment_sum("n")}
    ...     ),
    ... )
    >>> words = np.array([7, 3, 7])
    >>> output, counters = runtime.run(job, ColumnarKV(np.arange(3), {"word": words}))
    >>> sorted(output.to_pairs())
    [(3, 1.0), (7, 2.0)]
    """

    def __init__(
        self,
        num_mappers: int = 8,
        num_reducers: int = 8,
        *,
        seed: int = 0,
        max_task_retries: int = 3,
        executor: str = "serial",
        workers: Optional[int] = None,
        pool=None,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
        fault_plan=None,
        shuffle_dir=None,
    ) -> None:
        check_positive_int(num_mappers, "num_mappers")
        check_positive_int(num_reducers, "num_reducers")
        if max_task_retries < 0:
            raise ParameterError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        if executor not in EXECUTORS:
            raise ParameterError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if workers is not None:
            check_positive_int(workers, "workers")
        if task_timeout is not None and task_timeout <= 0:
            raise ParameterError(
                f"task_timeout must be > 0 seconds, got {task_timeout}"
            )
        if retry_backoff < 0:
            raise ParameterError(
                f"retry_backoff must be >= 0 seconds, got {retry_backoff}"
            )
        self.num_mappers = num_mappers
        self.num_reducers = num_reducers
        self.max_task_retries = max_task_retries
        self.executor = executor
        self.workers = workers
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.fault_plan = fault_plan
        self.shuffle_dir = str(shuffle_dir) if shuffle_dir is not None else None
        self._pool = pool
        self._owns_pool = False
        self._rng = random.Random(seed)
        self._round_seq: int = 0
        self.history: List[JobCounters] = []
        self.task_retries: int = 0
        self.tasks_retried: int = 0
        self.workers_lost: int = 0
        #: Run files spilled by file-shuffle rounds (driver-level, like
        #: ``tasks_retried`` — not in :class:`JobCounters`, whose record
        #: counters stay bit-identical across executors).
        self.spilled_runs: int = 0

    # ------------------------------------------------------------------
    # Process-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """The process pool, created lazily on first parallel stage."""
        if self._pool is None:
            import multiprocessing
            import os
            from concurrent.futures import ProcessPoolExecutor

            # spawn, not fork: workers re-import job modules from a
            # clean interpreter, which is what the registry contract
            # assumes (and the only start method that is safe under
            # threads on every platform).
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers or os.cpu_count() or 1,
                mp_context=multiprocessing.get_context("spawn"),
            )
            self._owns_pool = True
        return self._pool

    def _respawn_pool(self) -> None:
        """Discard a broken/stalled owned pool (lost-worker recovery);
        the next stage submission starts a fresh one.

        The old pool's worker processes are terminated, not abandoned: a
        worker stuck past its deadline would otherwise keep running
        until its task ends, and interpreter exit joins it.  A borrowed
        pool is the caller's to manage: the runtime refuses to recycle
        it and fails the job with a typed error instead.
        """
        pool = self._pool
        if pool is None:
            return
        if not self._owns_pool:
            raise MapReduceError(
                "externally provided process pool is broken or stalled; "
                "the runtime cannot respawn a pool it does not own"
            )
        self._pool = None
        self._owns_pool = False
        # ProcessPoolExecutor has no public handle on its workers before
        # Python 3.14's terminate_workers(); this mirrors that method.
        workers = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        for worker in workers:
            try:
                if worker.is_alive():
                    worker.terminate()
            except (ValueError, ProcessLookupError):  # already reaped
                pass
        for worker in workers:
            try:
                worker.join(timeout=5.0)
            except ValueError:  # pragma: no cover - closed handle
                pass

    def close(self) -> None:
        """Shut down an owned process pool (borrowed pools are left alone)."""
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown()
            self._pool = None
            self._owns_pool = False

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _run_task_with_retries(self, description: str, task_fn):
        """Execute a task body, re-running it on TransientTaskError."""
        attempts = self.max_task_retries + 1
        last_error: Optional[TransientTaskError] = None
        for _ in range(attempts):
            try:
                return task_fn()
            except TransientTaskError as exc:
                self.task_retries += 1
                last_error = exc
        raise MapReduceError(
            f"{description} failed after {attempts} attempts: {last_error}"
        )

    def _run_stage_process(
        self,
        stage: str,
        task_fn,
        job: MapReduceJob,
        inputs,
        *,
        shuffle_faults: bool = False,
    ) -> List[tuple]:
        """Run one stage's tasks on the process pool.

        All tasks are submitted up front (that is the parallelism);
        a task raising :class:`TransientTaskError` is resubmitted with
        the same retry accounting as the serial path.  Results come
        back indexed by task id, so the caller's merge order — and
        therefore the output batch — is identical to serial execution.

        The stage survives lost workers: when a worker dies (SIGKILL,
        OOM, hard crash) every in-flight future on the pool fails with
        ``BrokenExecutor``, so the runtime respawns an owned pool,
        resubmits every unfinished task, and charges one attempt to the
        task it was waiting on — with exponential backoff between
        consecutive losses.  A ``task_timeout`` expiry is handled the
        same way (the stuck worker is terminated with the old pool),
        and an owned pool is recycled before the stage gives up, so
        ``close()`` never joins a stuck worker.
        Counters: ``workers_lost`` counts pool recycles,
        ``tasks_retried`` counts task resubmissions of either kind.
        """
        import time
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        if _JOB_REGISTRY.get(job.name) is not job:
            raise MapReduceError(
                f"job {job.name!r} is not registered for process execution; "
                f"call repro.mapreduce.register_job({job.name!r}) at import "
                f"time of its defining module"
            )
        module = _job_module(job)
        attempts = self.max_task_retries + 1
        results: List[tuple] = [()] * len(inputs)
        tries: List[int] = [0] * len(inputs)
        pending: Dict[int, Any] = {}

        def submit(task: int) -> None:
            fault = None
            if self.fault_plan is not None and tries[task] == 0:
                point = self.fault_plan.take(f"mapreduce.{stage}", task)
                if point is not None:
                    fault = (
                        "kill_worker" if point.mode == "kill_worker" else "raise"
                    )
                elif shuffle_faults:
                    point = self.fault_plan.take("mapreduce.shuffle", task)
                    if point is not None:
                        fault = f"shuffle:{point.mode}"
            pool = self._ensure_pool()
            pending[task] = pool.submit(
                task_fn, job.name, module, inputs[task], fault
            )

        for task in range(len(inputs)):
            submit(task)

        backoff = self.retry_backoff
        for task in range(len(inputs)):
            while True:
                try:
                    results[task] = pending[task].result(timeout=self.task_timeout)
                    del pending[task]
                    break
                except TransientTaskError as exc:
                    self.task_retries += 1
                    self.tasks_retried += 1
                    tries[task] += 1
                    if tries[task] >= attempts:
                        raise MapReduceError(
                            f"job {job.name!r} {stage} task {task} failed "
                            f"after {attempts} attempts: {exc}"
                        )
                    submit(task)
                except (BrokenExecutor, FuturesTimeoutError) as exc:
                    self.workers_lost += 1
                    tries[task] += 1
                    why = (
                        "task deadline exceeded"
                        if isinstance(exc, FuturesTimeoutError)
                        else f"worker lost ({exc or type(exc).__name__})"
                    )
                    if tries[task] >= attempts:
                        if self._owns_pool:
                            self._respawn_pool()
                        raise MapReduceError(
                            f"job {job.name!r} {stage} task {task} failed "
                            f"after {attempts} attempts: {why}"
                        )
                    # Every unfinished future died (or is stuck) with
                    # the old pool; recycle it and resubmit them all.
                    self._respawn_pool()
                    lost = sorted(pending)
                    self.tasks_retried += len(lost)
                    for unfinished in lost:
                        submit(unfinished)
                    if backoff > 0:
                        time.sleep(backoff)
                    backoff = min(max(backoff, 0.01) * 2, 2.0)
        return results

    # ------------------------------------------------------------------
    def run(
        self, job: MapReduceJob, batch: ColumnarKV
    ) -> Tuple[ColumnarKV, JobCounters]:
        """Execute one job; returns (output batch, counters).

        ``batch`` is a :class:`~repro.mapreduce.columnar.ColumnarKV`.

        With ``shuffle_dir`` set under the process executor, the
        shuffle is file-backed: map workers partition and spill their
        local output as run files, reduce workers memmap only their
        own partition's runs, and this driver only aggregates the run
        manifests — identical outputs and counters, O(1) driver memory
        in the shuffle volume.
        """
        if not isinstance(batch, ColumnarKV):
            raise MapReduceError(
                f"job {job.name!r}: run() takes a ColumnarKV batch, "
                f"got {type(batch).__name__}"
            )
        counters = JobCounters(job_name=job.name)
        counters.map_input_records = batch.num_records

        parallel = self.executor == "process"
        file_shuffle = parallel and self.shuffle_dir is not None

        # 1. Round-robin splits via strided slicing (record i goes to
        #    task `i % num_mappers`).
        splits = batch.split(self.num_mappers)

        # 2. Map tasks (+ per-task combiner on the grouped local
        #    output), shuffled order, with retry-on-transient-failure.
        #    The shuffle is drawn under both executors so a seeded
        #    runtime consumes its rng stream identically either way.
        task_order = list(range(self.num_mappers))
        self._rng.shuffle(task_order)
        round_dir = self._new_round_dir() if file_shuffle else None
        try:
            run_lists = schema = None
            if file_shuffle:
                run_lists, schema = self._map_stage_spill(
                    job, splits, round_dir, counters
                )
            elif parallel:
                map_outputs: List[Optional[ColumnarKV]] = [None] * self.num_mappers
                map_results = self._run_stage_process(
                    "map", _process_map_task, job, splits
                )
                for task, (raw_count, local) in enumerate(map_results):
                    counters.map_output_records += raw_count
                    counters.combine_output_records += local.num_records
                    map_outputs[task] = local
            else:
                map_outputs = [None] * self.num_mappers
                for task in task_order:
                    raw_count, local = self._run_task_with_retries(
                        f"job {job.name!r} map task {task}",
                        lambda task=task: _map_task_body(job, splits[task]),
                    )
                    counters.map_output_records += raw_count
                    counters.combine_output_records += local.num_records
                    map_outputs[task] = local

            # 3. Shuffle: one vectorized hash over the concatenated map
            #    output, then partitioning (row order within each
            #    partition follows map-task order).
            #    The file-backed flavor already partitioned inside the
            #    map workers and metered from the run manifests.
            if not file_shuffle:
                combined = ColumnarKV.concat(map_outputs)
                partitions = combined.partition(self.num_reducers)
                for part in partitions:
                    records, nbytes = shuffle_size(part)
                    counters.shuffle_records += records
                    counters.shuffle_bytes += nbytes

            # 4. Reduce tasks: sort-based group-by per partition, groups
            #    in ascending key order.  Under the process executor
            #    the group-by runs inside the worker too — same grouped
            #    rows (the sort is deterministic), so same output and
            #    counters, but the O(p) stable sort leaves the driver.
            reduce_order = list(range(self.num_reducers))
            self._rng.shuffle(reduce_order)
            outputs: List[Optional[ColumnarKV]] = [None] * self.num_reducers
            if file_shuffle:
                payloads = [
                    (run_lists[part], schema) for part in range(self.num_reducers)
                ]
                reduce_results = self._run_stage_process(
                    "reduce", _process_reduce_runs_task, job, payloads
                )
                for task, (num_groups, out) in enumerate(reduce_results):
                    counters.reduce_groups += num_groups
                    counters.reduce_output_records += out.num_records
                    outputs[task] = out
            elif parallel:
                reduce_results = self._run_stage_process(
                    "reduce", _process_reduce_task, job, partitions
                )
                for task, (num_groups, out) in enumerate(reduce_results):
                    counters.reduce_groups += num_groups
                    counters.reduce_output_records += out.num_records
                    outputs[task] = out
            else:
                for task in reduce_order:
                    num_groups, out = self._run_task_with_retries(
                        f"job {job.name!r} reduce task {task}",
                        lambda task=task: _reduce_task_body(job, partitions[task]),
                    )
                    counters.reduce_groups += num_groups
                    counters.reduce_output_records += out.num_records
                    outputs[task] = out
        finally:
            if round_dir is not None:
                import shutil

                shutil.rmtree(round_dir, ignore_errors=True)

        output = ColumnarKV.concat(outputs)
        self.history.append(counters)
        return output, counters

    def _new_round_dir(self) -> str:
        """Create (and debris-sweep) the next round's shuffle directory."""
        from pathlib import Path

        from ..store.shards import _sweep_tmp_debris

        self._round_seq += 1
        round_dir = Path(self.shuffle_dir) / f"round-{self._round_seq:04d}"
        round_dir.mkdir(parents=True, exist_ok=True)
        # The store's open()-sweep convention: a crashed predecessor's
        # half-written runs are plain `*.tmp` files, removed on entry.
        _sweep_tmp_debris(round_dir)
        return str(round_dir)

    def _map_stage_spill(
        self, job: MapReduceJob, splits, round_dir: str, counters
    ) -> Tuple[List[List[RunRef]], tuple]:
        """File-backed map stage: spill per-partition runs, return the
        manifest grouped by reduce partition (in map-task order, the
        same row order the in-memory shuffle concatenates in)."""
        payloads = [
            (split, task, self.num_reducers, round_dir)
            for task, split in enumerate(splits)
        ]
        map_results = self._run_stage_process(
            "map", _process_map_spill_task, job, payloads, shuffle_faults=True
        )
        run_lists: List[List[RunRef]] = [[] for _ in range(self.num_reducers)]
        schema = None
        for raw_count, combined_count, task_schema, runs in map_results:
            counters.map_output_records += raw_count
            counters.combine_output_records += combined_count
            if schema is None:
                schema = task_schema
            for part_index, ref in runs:
                run_lists[part_index].append(ref)
                counters.shuffle_records += ref.records
                counters.shuffle_bytes += ref.byte_size
                self.spilled_runs += 1
        return run_lists, schema

    def run_chain(
        self, jobs: List[MapReduceJob], batch
    ) -> Tuple[ColumnarKV, List[JobCounters]]:
        """Run jobs sequentially, feeding each job's output to the next."""
        counters: List[JobCounters] = []
        for job in jobs:
            batch, c = self.run(job, batch)
            counters.append(c)
        return batch, counters

    def reset_history(self) -> None:
        """Clear the per-job counter history."""
        self.history = []


def _check_batch(out: Any, job: str, stage: str) -> None:
    """Validate that a job function emitted a ColumnarKV."""
    if not isinstance(out, ColumnarKV):
        raise MapReduceError(
            f"job {job!r}: {stage} must emit a ColumnarKV batch, "
            f"got {type(out).__name__}"
        )
