"""A faithful single-process MapReduce simulator and the §5.2 jobs.

The paper realizes its algorithms in Hadoop; with no cluster available
we simulate the programming model exactly — user-supplied mappers,
combiners, partitioned shuffle, sorted reduce — and meter every round
(records in/out, shuffle bytes) so a calibrated cost model can
translate counters into simulated wall-clock (Figure 6.7).

* :mod:`~repro.mapreduce.job` — job specifications (batch mapper,
  combiner, reducer) and typed counters.
* :mod:`~repro.mapreduce.runtime` — the execution engine: input splits,
  map tasks, combiner, hash-partitioned shuffle, sorted reduce tasks,
  serially or on a process pool.
* :mod:`~repro.mapreduce.columnar` — the array-native batch
  representation every stage moves (int64 keys + value columns,
  vectorized split/shuffle/group-by).
* :mod:`~repro.mapreduce.cost` — the wall-clock cost model.
* :mod:`~repro.mapreduce.densest` — the paper's §5.2 realization of the
  peeling algorithms as MapReduce job chains (degree job + two-round
  node-removal job per pass), for graphs with any node labels.
"""

from .columnar import ColumnarKV, GroupedKV
from .job import JobCounters, MapReduceJob
from .runtime import MapReduceRuntime, register_job
from .cost import CostModel
from .densest import (
    mr_densest_subgraph,
    mr_densest_subgraph_atleast_k,
    mr_densest_subgraph_directed,
    MapReduceRunReport,
)
from .runtime import TransientTaskError

__all__ = [
    "MapReduceJob",
    "JobCounters",
    "MapReduceRuntime",
    "register_job",
    "TransientTaskError",
    "CostModel",
    "mr_densest_subgraph",
    "mr_densest_subgraph_atleast_k",
    "mr_densest_subgraph_directed",
    "MapReduceRunReport",
    "ColumnarKV",
    "GroupedKV",
]
