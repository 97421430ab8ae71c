"""Algorithms 1 and 2 terminate on non-dyadic weights, on every tier.

The in-memory peels maintain degrees and the remaining weight by
subtraction.  With weights like ``rng.random() + 0.1`` an edgeless S
can be left holding float residue (a weight of -2e-11, degrees of
1e-11) that no node clears the threshold against; the peels therefore
count the induced edges as an integer and remove an edgeless S whole
(:func:`repro._tolerances.peel_cutoff`).  Each run here must finish on
its own with at least one removal per pass and within the
O(log_{1+ε} n) pass bound of Lemma 4.  Algorithm 1 runs under a
``max_passes`` cap one above that bound so a regression fails instead
of hanging; Algorithm 2 has no cap, and the CI job timeout is its
guard.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import DensestSubgraph, solve
from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.undirected import densest_subgraph
from repro.kernels import CSRGraph

TIERS = ("python", "numpy", "native")


def _random_weighted(seed: int, n: int, m: int) -> CSRGraph:
    """``m`` random pairs over ``n`` nodes, weights in [0.1, 1.1)."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    keep = u != v
    u, v = u[keep], v[keep]
    weights = rng.random(u.size) + 0.1
    return CSRGraph.from_edge_arrays(
        u, v, weights, num_nodes=n, duplicates="first"
    )


def _pass_bound(n: int, epsilon: float) -> int:
    return math.ceil(math.log(n) / math.log1p(epsilon)) + 1


def _run(csr: CSRGraph, algorithm: str, epsilon: float, engine: str):
    if algorithm == "alg1":
        return densest_subgraph(
            csr, epsilon, engine=engine,
            max_passes=_pass_bound(csr.num_nodes, epsilon) + 1,
        )
    return densest_subgraph_atleast_k(
        csr, 1, epsilon, stop_below_k=False, engine=engine
    )


def _assert_terminates(result, n: int, epsilon: float) -> None:
    assert result.trace[-1].nodes_after == 0
    assert all(record.removed >= 1 for record in result.trace)
    assert result.passes <= _pass_bound(n, epsilon)


class TestNonDyadicTermination:
    @pytest.fixture(scope="class")
    def reproducer(self):
        return _random_weighted(2, 5000, 60_000)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("engine", TIERS)
    def test_reproducer(self, reproducer, engine, algorithm):
        result = _run(reproducer, algorithm, 0.5, engine)
        _assert_terminates(result, reproducer.num_nodes, 0.5)
        # The edgeless tail reports exact zeros, not residue.
        assert result.trace[-1].edges_before == 0.0
        assert result.trace[-1].edges_after == 0.0

    def test_reproducer_through_solve(self, reproducer):
        solution = solve(DensestSubgraph(reproducer, epsilon=0.5))
        _assert_terminates(solution.details, reproducer.num_nodes, 0.5)

    @pytest.mark.parametrize("engine", TIERS)
    def test_seeded_sweep(self, engine):
        for seed, n in enumerate([200, 300, 500, 800] * 3):
            csr = _random_weighted(100 + seed, n, 10 * n)
            for epsilon in (0.1, 0.3, 0.5, 1.0):
                for algorithm in ("alg1", "alg2"):
                    result = _run(csr, algorithm, epsilon, engine)
                    _assert_terminates(result, n, epsilon)
