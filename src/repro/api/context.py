"""Execution context: resource knobs threaded through :func:`repro.solve`.

A :class:`Problem` says *what* to solve and a backend name says *which
execution model*; the :class:`ExecutionContext` says *with which
machine resources*.  It is deliberately declarative — a frozen bag of
knobs every backend may read and is free to ignore when a field does
not apply to its execution model:

========== ==========================================================
field       honored by
========== ==========================================================
workers     ``mapreduce`` — ``workers > 1`` runs the columnar runtime
            on a spawned process pool (``executor="process"``)
memory_     ``backend="auto"`` dispatch — same unit (words) and
budget      semantics as ``solve(memory_budget=...)``
spill_dir   callers converting edge sources into shard stores (the
            CLI's ``--spill-dir`` pipeline, ``examples/out_of_core``)
            and the ``streaming``/``sketch`` backends' pass-compaction
            rewrites (spill sinks live under it)
shard_      number of hash partitions for those conversions (and for
count       compaction spill sinks)
shuffle_    ``mapreduce`` — directory for the file-backed distributed
dir         shuffle; with ``workers > 1`` map tasks spill
            hash-partitioned columnar runs under it and reduce tasks
            memmap only their partition's runs, so intermediate data
            never routes through the driver (DESIGN.md §13)
compaction_ ``streaming``/``sketch`` — pass-compaction shrink trigger
threshold   in (0, 1]; setting it (or a memory budget / spill dir) on
            a shard-store input auto-enables compaction
checkpoint_ ``streaming`` — directory for peel checkpoints; long peels
dir         persist their between-pass state every
            ``checkpoint_every`` passes and resume from it (see
            :mod:`repro.streaming.checkpoint`)
checkpoint_ checkpoint interval in passes (default 16; only read when
every       ``checkpoint_dir`` is set)
cancel_     ``streaming`` — a ``threading.Event`` checked between peel
event       passes; setting it unwinds the solve with
            :class:`~repro.errors.JobCancelledError` (the serving
            tier's cooperative DELETE /jobs/<id>)
deadline_   ``streaming`` — wall-clock budget in seconds from solve
seconds     start; overrunning it raises
            :class:`~repro.errors.DeadlineExceededError`.  The serving
            tier also feeds it (min'd with a per-request ``deadline``)
            into the degradation ladder's affordability check
            (DESIGN.md §14)
fault_plan  fault-injection schedule
            (:class:`~repro.faults.FaultPlan`) consulted by the store
            writer, the peel engines, the process executor, and the
            serving tier's ``serve.solve`` / ``catalog.read`` /
            ``catalog.write`` sites; ``None`` (production)
            short-circuits every consultation
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .._validation import check_positive_int
from ..errors import ParameterError


@dataclass(frozen=True)
class ExecutionContext:
    """Resource envelope for one :func:`repro.solve` call.

    Examples
    --------
    >>> ExecutionContext(workers=4).workers
    4
    """

    workers: int = 1
    memory_budget: Optional[int] = None
    spill_dir: Optional[str] = None
    shard_count: int = 8
    shuffle_dir: Optional[str] = None
    compaction_threshold: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 16
    cancel_event: Optional[object] = None
    deadline_seconds: Optional[float] = None
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        check_positive_int(self.workers, "workers")
        check_positive_int(self.shard_count, "shard_count")
        check_positive_int(self.checkpoint_every, "checkpoint_every")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ParameterError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
        if self.compaction_threshold is not None and not (
            0.0 < self.compaction_threshold <= 1.0
        ):
            raise ParameterError(
                f"compaction_threshold must be in (0, 1], got "
                f"{self.compaction_threshold}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ParameterError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
