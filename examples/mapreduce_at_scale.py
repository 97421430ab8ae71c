#!/usr/bin/env python3
"""Algorithm 1 as a MapReduce job chain (§5.2), with per-pass timing.

Runs the paper's degree + two-round-removal pipeline on the im stand-in
through the metered MapReduce simulator, then prices each pass with the
cluster cost model: the Figure 6.7 experiment end to end.

Run:  python examples/mapreduce_at_scale.py
"""

import time

from repro import DensestSubgraph, solve
from repro.analysis.tables import render_table
from repro.datasets import load
from repro.mapreduce.cost import CostModel
from repro.mapreduce.runtime import MapReduceRuntime


def main() -> None:
    graph = load("im_sim", scale=0.2)
    print(f"im stand-in: |V|={graph.num_nodes}, |E|={graph.num_edges}")
    print("running Algorithm 1 as MapReduce rounds (eps=1) ...")
    runtime = MapReduceRuntime(num_mappers=8, num_reducers=8, seed=1)
    start = time.perf_counter()
    solution = solve(
        DensestSubgraph(graph, epsilon=1.0), backend="mapreduce", runtime=runtime
    )
    print(f"simulator wall-clock: {(time.perf_counter() - start) * 1e3:.1f} ms")
    print()

    report = solution.details  # the backend's native MapReduceRunReport
    result = report.result

    # Price the run as if on the paper's 2000-mapper Hadoop cluster.
    model = CostModel(
        round_overhead_s=100.0,
        map_cost_s=0.5,
        shuffle_cost_s_per_byte=0.02,
        reduce_cost_s=0.5,
        num_mappers=2000,
        num_reducers=2000,
    )
    times = report.pass_times(model)

    rows = []
    for record, rounds, minutes in zip(
        result.trace, report.rounds_per_pass, times
    ):
        shuffle = sum(c.shuffle_records for c in rounds)
        rows.append(
            [
                record.pass_index,
                record.nodes_before,
                int(record.edges_before),
                record.removed,
                shuffle,
                minutes / 60.0,
            ]
        )
    print(
        render_table(
            ["pass", "|S|", "|E(S)|", "removed", "shuffle records", "sim. minutes"],
            rows,
            title="per-pass MapReduce execution (cf. paper Figure 6.7)",
        )
    )
    print()
    print(f"result: rho={result.density:.3f}, |S|={result.size}, "
          f"{result.passes} passes, {report.total_rounds()} MapReduce rounds")
    print(f"simulated total wall-clock: {report.total_time(model) / 60:.1f} minutes "
          f"(paper: under 260 minutes on the real im graph)")


if __name__ == "__main__":
    main()
