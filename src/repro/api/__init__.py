"""Unified problem/backend API: ``repro.solve(problem, backend="auto")``.

The paper's single algorithmic idea runs under three execution models;
this package is the one front door over all of them.  Describe *what*
to solve as a frozen :class:`Problem` value
(:class:`DensestSubgraph`, :class:`DensestAtLeastK`,
:class:`DirectedDensest`), and either name *how* (a registered backend)
or let the capability-aware registry dispatch on the problem's kind,
input mode, and an optional memory budget:

>>> from repro.graph.generators import clique, star, disjoint_union
>>> from repro.api import DensestSubgraph, available_backends, solve
>>> g = disjoint_union([clique(6), star(50, offset=100)])
>>> solution = solve(DensestSubgraph(g, epsilon=0.1))
>>> solution.backend, sorted(solution.nodes), solution.density
('core', [0, 1, 2, 3, 4, 5], 2.5)
>>> sorted(available_backends(DensestSubgraph(g)))
['core', 'exact-flow', 'exact-lp', 'greedy', 'mapreduce', 'sketch', 'streaming']

Every backend returns the same :class:`Solution` shape (nodes, density,
certificate trace, cost report), so callers — the CLI, the experiment
harness, the examples — never hard-code an engine.  New execution
engines plug in via :func:`register`; see ``DESIGN.md`` §2.
"""

from .context import ExecutionContext
from .problems import (
    DensestAtLeastK,
    DensestSubgraph,
    DirectedDensest,
    MODE_GRAPH,
    MODE_SHARDS,
    MODE_STREAM,
    PROBLEM_KINDS,
    Problem,
)
from .registry import (
    Capabilities,
    Solver,
    available_backends,
    backend_names,
    get_backend,
    register,
    select_backend,
    solve,
)
from .solution import CostReport, Solution

# Importing the backends module registers every built-in engine.
from . import backends as _backends  # noqa: F401

__all__ = [
    # problems
    "Problem",
    "DensestSubgraph",
    "DensestAtLeastK",
    "DirectedDensest",
    "PROBLEM_KINDS",
    "MODE_GRAPH",
    "MODE_STREAM",
    "MODE_SHARDS",
    "ExecutionContext",
    # registry
    "Capabilities",
    "Solver",
    "register",
    "solve",
    "select_backend",
    "available_backends",
    "backend_names",
    "get_backend",
    # results
    "Solution",
    "CostReport",
]
