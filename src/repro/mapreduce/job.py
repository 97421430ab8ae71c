"""MapReduce job specifications and counters.

A job is three pure functions over columnar batches — the
Dean–Ghemawat mapper/combiner/reducer contract, vectorized:

* ``mapper(batch: ColumnarKV) -> ColumnarKV``
* ``combiner(grouped: GroupedKV) -> ColumnarKV`` (optional, run per map
  task on its local output grouped by key, must be reducer-compatible)
* ``reducer(grouped: GroupedKV) -> ColumnarKV``

(:class:`~repro.mapreduce.columnar.ColumnarKV`: int64 keys + named
value columns; :class:`~repro.mapreduce.columnar.GroupedKV`: the same
rows sorted into contiguous per-key segments.)

Jobs must not close over mutable state that they modify — the runtime
may run tasks in any order (it shuffles task order deliberately to
shake out order dependence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Batch callables: ColumnarKV (mapper) or GroupedKV (combiner,
#: reducer) in, ColumnarKV out.
Mapper = Callable[[Any], Any]
Reducer = Callable[[Any], Any]
Combiner = Callable[[Any], Any]


@dataclass(frozen=True)
class MapReduceJob:
    """Specification of one MapReduce round.

    Attributes
    ----------
    name:
        Human-readable job name (appears in reports).
    mapper / reducer / combiner:
        The batch functions; ``combiner`` may be None.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Combiner] = None


@dataclass
class JobCounters:
    """Per-round metering, in records and (approximate) bytes.

    ``shuffle_bytes`` charges each shuffled record its dtype sizes:
    8 bytes for the int64 key plus each value column's itemsize (8 for
    int64/float64, 1 for bool) — see ``ColumnarKV.byte_size``.
    """

    job_name: str = ""
    map_input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    reduce_groups: int = 0
    reduce_output_records: int = 0

    def merge(self, other: "JobCounters") -> "JobCounters":
        """Sum of two counter sets (job_name taken from self)."""
        return JobCounters(
            job_name=self.job_name,
            map_input_records=self.map_input_records + other.map_input_records,
            map_output_records=self.map_output_records + other.map_output_records,
            combine_output_records=self.combine_output_records
            + other.combine_output_records,
            shuffle_records=self.shuffle_records + other.shuffle_records,
            shuffle_bytes=self.shuffle_bytes + other.shuffle_bytes,
            reduce_groups=self.reduce_groups + other.reduce_groups,
            reduce_output_records=self.reduce_output_records
            + other.reduce_output_records,
        )
