"""Tests for the §5.2 MapReduce drivers: equivalence with the in-memory
reference, round structure, and Figure 6.7-style time series."""

import pytest

from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.graph.generators import chung_lu, directed_power_law
from repro.mapreduce.cost import CostModel
from repro.mapreduce.densest import (
    mr_densest_subgraph,
    mr_densest_subgraph_directed,
)
from repro.mapreduce.runtime import MapReduceRuntime


@pytest.fixture(scope="module")
def social():
    return chung_lu(500, exponent=2.3, average_degree=7, seed=21)


@pytest.fixture(scope="module")
def directed_social():
    return directed_power_law(350, 2100, seed=22)


class TestUndirectedDriver:
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.5])
    def test_matches_reference(self, social, epsilon):
        ref = densest_subgraph(social, epsilon)
        report = mr_densest_subgraph(
            social, epsilon, runtime=MapReduceRuntime(5, 3, seed=1)
        )
        result = report.result
        assert result.nodes == ref.nodes
        assert result.density == pytest.approx(ref.density)
        assert result.passes == ref.passes
        for ours, theirs in zip(result.trace, ref.trace):
            assert ours.nodes_before == theirs.nodes_before
            assert ours.removed == theirs.removed
            assert ours.density_after == pytest.approx(theirs.density_after)

    def test_three_rounds_per_pass(self, social):
        report = mr_densest_subgraph(
            social, 0.5, runtime=MapReduceRuntime(4, 4)
        )
        for rounds in report.rounds_per_pass:
            assert len(rounds) == 3  # degree + 2 removal rounds
            assert rounds[0].job_name == "degree"

    def test_shuffle_shrinks_over_passes(self, social):
        report = mr_densest_subgraph(social, 0.5, runtime=MapReduceRuntime(4, 4))
        degree_shuffles = [rounds[0].shuffle_records for rounds in report.rounds_per_pass]
        # The degree job streams the surviving edges: strictly fewer
        # records each pass once peeling starts biting.
        assert degree_shuffles[-1] < degree_shuffles[0]

    def test_pass_times_positive_and_declining_tail(self, social):
        report = mr_densest_subgraph(social, 0.5, runtime=MapReduceRuntime(4, 4))
        model = CostModel(round_overhead_s=1.0, num_mappers=10, num_reducers=10)
        times = report.pass_times(model)
        assert len(times) == report.result.passes
        assert all(t > 0 for t in times)
        assert times[-1] <= times[0]
        assert report.total_time(model) == pytest.approx(sum(times))

    def test_task_parallelism_does_not_change_answer(self, social):
        a = mr_densest_subgraph(social, 1.0, runtime=MapReduceRuntime(1, 1)).result
        b = mr_densest_subgraph(social, 1.0, runtime=MapReduceRuntime(16, 16)).result
        assert a.nodes == b.nodes
        assert a.density == pytest.approx(b.density)


class TestDirectedDriver:
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matches_reference(self, directed_social, ratio):
        ref = densest_subgraph_directed(directed_social, ratio, 1.0)
        report = mr_densest_subgraph_directed(
            directed_social, ratio, 1.0, runtime=MapReduceRuntime(4, 4, seed=2)
        )
        result = report.result
        assert result.s_nodes == ref.s_nodes
        assert result.t_nodes == ref.t_nodes
        assert result.density == pytest.approx(ref.density)
        assert result.passes == ref.passes

    def test_two_rounds_per_pass(self, directed_social):
        report = mr_densest_subgraph_directed(
            directed_social, 1.0, 1.0, runtime=MapReduceRuntime(4, 4)
        )
        for rounds in report.rounds_per_pass:
            assert len(rounds) == 2  # degree + 1 removal round
            assert rounds[0].job_name == "directed-degree"

    def test_edge_orientation_preserved(self, directed_social):
        # After a full run the driver must have filtered edges without
        # ever flipping their direction; equivalence with the reference
        # (tested above) would break otherwise.  Spot-check one pass.
        import numpy as np

        from repro.mapreduce.columnar import ColumnarKV
        from repro.mapreduce.densest import REMOVAL_JOB_PIVOT_SECOND

        runtime = MapReduceRuntime(3, 3)
        # Edges 1->2, 3->2, 2->4 plus a marker row for node 4.
        batch = ColumnarKV(
            np.array([1, 3, 2, 4]),
            {
                "v": np.array([2, 2, 4, -1]),
                "w": np.array([1.0, 1.0, 1.0, 0.0]),
                "m": np.array([False, False, False, True]),
            },
        )
        output, _ = runtime.run(REMOVAL_JOB_PIVOT_SECOND, batch)
        edges = [(u, v, w) for u, (v, w, _) in output.to_pairs()]
        assert sorted(edges) == [(1, 2, 1.0), (3, 2, 1.0)]
