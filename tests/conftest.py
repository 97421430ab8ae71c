"""Shared fixtures: small canonical graphs with known densest subgraphs."""

from __future__ import annotations

import pytest

from repro.graph.directed import DirectedGraph
from repro.graph.generators import (
    clique,
    disjoint_union,
    gnm_random,
    star,
)
from repro.graph.undirected import UndirectedGraph
from repro.kernels import native


@pytest.fixture
def triangle() -> UndirectedGraph:
    """K3: density 1, the smallest non-trivial densest subgraph."""
    return UndirectedGraph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> UndirectedGraph:
    """Path on 4 nodes: rho* = 3/4 (the whole path)."""
    return UndirectedGraph([(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def clique_plus_star() -> UndirectedGraph:
    """K5 (density 2) plus a 30-leaf star (density ~0.97), disjoint.

    The unique densest subgraph is the K5 with rho* = 2.
    """
    return disjoint_union([clique(5), star(31, offset=100)])


@pytest.fixture
def two_cliques() -> UndirectedGraph:
    """K6 (density 2.5) and K4 (density 1.5), disjoint."""
    return disjoint_union([clique(6), clique(4, offset=50)])


@pytest.fixture
def weighted_pair() -> UndirectedGraph:
    """Two nodes, one heavy edge: rho* = 10/2 = 5 on the pair."""
    g = UndirectedGraph()
    g.add_edge("a", "b", 10.0)
    g.add_edge("b", "c", 1.0)
    return g


@pytest.fixture
def random_medium() -> UndirectedGraph:
    """Seeded G(n, m) graph for cross-solver agreement tests."""
    return gnm_random(40, 140, seed=123)


@pytest.fixture
def directed_bowtie() -> DirectedGraph:
    """Complete bipartite 3 -> 2 block plus stragglers.

    rho(S, T) for S = {0,1,2}, T = {10,11} is 6/sqrt(6) = sqrt(6) ~ 2.449.
    """
    g = DirectedGraph()
    for u in (0, 1, 2):
        for v in (10, 11):
            g.add_edge(u, v)
    g.add_edge(20, 21)
    return g


@pytest.fixture
def directed_cycle() -> DirectedGraph:
    """Directed 5-cycle: rho(V, V) = 5/5 = 1."""
    return DirectedGraph([(i, (i + 1) % 5) for i in range(5)])


@pytest.fixture(params=["c", "off"])
def kernel_tier(request, monkeypatch):
    """Run the test with the C kernels, then with ``REPRO_NATIVE=off``
    (the numpy code the C wrappers fall back to)."""
    if request.param == "off":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset_backend_cache()
    if request.param == "c" and native.available_backend() != "c":
        pytest.skip("C kernel backend unavailable (no compiler)")
    yield request.param
    native.reset_backend_cache()
