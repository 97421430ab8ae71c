"""Performance microbenchmarks of the columnar MapReduce runtime.

Times the §5.2 peeling drivers on the Figure 6.7 fixtures, from
resident CSR snapshots; ``scripts/bench_report.py --suite mapreduce``
writes the machine-readable report.
"""

import pytest

from repro.core.undirected import densest_subgraph
from repro.datasets import load
from repro.kernels import CSRDigraph, CSRGraph
from repro.mapreduce.densest import (
    mr_densest_subgraph,
    mr_densest_subgraph_directed,
)
from repro.mapreduce.runtime import MapReduceRuntime


@pytest.fixture(scope="module")
def im_small():
    return load("im_sim", scale=0.2)


@pytest.fixture(scope="module")
def im_csr(im_small):
    return CSRGraph.from_undirected(im_small)


@pytest.fixture(scope="module")
def tw_csr():
    return CSRDigraph.from_directed(load("twitter_sim", scale=0.15))


def _runtime():
    return MapReduceRuntime(num_mappers=8, num_reducers=8, seed=1)


def test_perf_mr_peel_columnar(benchmark, im_csr):
    report = benchmark(lambda: mr_densest_subgraph(im_csr, 1.0, runtime=_runtime()))
    assert report.result.density > 0


def test_perf_mr_peel_eps0_columnar(benchmark, im_csr):
    report = benchmark(lambda: mr_densest_subgraph(im_csr, 0.0, runtime=_runtime()))
    assert report.result.density > 0


def test_perf_mr_directed_columnar(benchmark, tw_csr):
    report = benchmark(
        lambda: mr_densest_subgraph_directed(
            tw_csr, ratio=1.0, epsilon=1.0, runtime=_runtime()
        )
    )
    assert report.result.density > 0


def test_columnar_engine_matches_record_on_fixture(im_small, im_csr):
    """Cheap guard: the MapReduce driver agrees with the interpreted
    (record-loop) core reference peel on the benchmark fixture."""
    reference = densest_subgraph(im_small, 1.0, engine="python")
    result = mr_densest_subgraph(im_csr, 1.0, runtime=_runtime()).result
    assert result.nodes == reference.nodes
    assert result.density == pytest.approx(reference.density)
    assert result.passes == reference.passes
    assert len(result.trace) == len(reference.trace)
    for ours, theirs in zip(result.trace, reference.trace):
        assert ours.removed == theirs.removed
        assert ours.nodes_after == theirs.nodes_after
        assert ours.density_after == pytest.approx(theirs.density_after)
