"""Capability-aware solver registry and the :func:`solve` front door.

Backends are classes implementing the :class:`Solver` protocol and
registered with the :func:`register` decorator.  Each declares a
:class:`Capabilities` record — which problem kinds it solves, which
input modes it accepts, whether it is exact, and its between-pass
memory class — and the registry dispatches on problem kind + input
mode (+ an optional ``memory_budget`` in words) when the caller asks
for ``backend="auto"``.

The registry is the package's stable seam: new execution engines
(sharded, async, cached) plug in by registering a solver; no caller
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Type, runtime_checkable

from ..errors import EmptyGraphError, SolverError
from .context import ExecutionContext
from .problems import MODE_GRAPH, MODE_SHARDS, MODE_STREAM, PROBLEM_KINDS, Problem
from .solution import Solution

#: Memory classes a backend can declare (between-pass state).
MEM_EDGES = "O(m)"      # holds the edge set (in-memory / MapReduce partitions)
MEM_NODES = "O(n)"      # semi-streaming: per-node counters only
MEM_SKETCH = "O(t*b)"   # sublinear sketch state


@dataclass(frozen=True)
class Capabilities:
    """What a registered solver can do, for dispatch and enumeration.

    Attributes
    ----------
    problems:
        Problem kinds the solver accepts (subset of
        :data:`~repro.api.problems.PROBLEM_KINDS`).
    input_modes:
        Accepted input modes (``"graph"`` and/or ``"stream"``).
    exact:
        Whether the solver returns the true optimum ρ*.
    memory_class:
        Between-pass memory class: ``"O(m)"``, ``"O(n)"``, or
        ``"O(t*b)"``.
    semantics:
        Agreement group.  Solvers sharing a semantics string are
        guaranteed to return *identical* node sets and densities on the
        same problem (the cross-backend parity the paper's §5 claims
        and the test suite enforces); ``"exact"`` solvers agree on
        density only, and ``"heuristic"`` solvers promise neither.
    deterministic:
        Whether repeated runs return identical solutions.
    engines:
        Execution engines the backend can run on (``"python"`` and/or
        ``"numpy"``).  Backends listing both accept an ``engine=``
        solve option; parity between the engines is guaranteed by the
        kernel layer (see ``tests/test_kernels_parity.py``).
    """

    problems: frozenset
    input_modes: frozenset
    exact: bool = False
    memory_class: str = MEM_EDGES
    semantics: str = "heuristic"
    deterministic: bool = True
    engines: tuple = ("python",)

    def __post_init__(self) -> None:
        unknown = set(self.problems) - set(PROBLEM_KINDS)
        if unknown:
            raise SolverError(f"unknown problem kinds in capabilities: {sorted(unknown)}")
        bad_modes = set(self.input_modes) - {MODE_GRAPH, MODE_STREAM, MODE_SHARDS}
        if bad_modes:
            raise SolverError(f"unknown input modes in capabilities: {sorted(bad_modes)}")


@runtime_checkable
class Solver(Protocol):
    """Protocol every registered backend implements."""

    name: str

    def capabilities(self) -> Capabilities:
        """The solver's declared capabilities."""
        ...

    def solve(self, problem: Problem, **options) -> Solution:
        """Solve ``problem``; raise :class:`~repro.errors.SolverError` on misuse."""
        ...

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        """Approximate between-pass footprint in words (None = unknown)."""
        ...


_REGISTRY: Dict[str, Solver] = {}

#: ``backend="auto"`` preference order per input mode.  Within a mode the
#: first registered backend that supports the problem kind and fits the
#: memory budget wins; the order encodes "the paper's engine for that
#: input, cheapest faithful model first".
_AUTO_PREFERENCE = {
    MODE_GRAPH: ("core", "streaming", "mapreduce", "sketch"),
    MODE_STREAM: ("streaming", "sketch"),
    # Shard stores: the CSR build is the fastest consumer when its O(m)
    # snapshot fits the budget; the semi-streaming engine is the
    # out-of-core fallback a memory_budget selects (with pass
    # compaction auto-enabled under that budget), and the sketch the
    # sublinear last resort.
    MODE_SHARDS: ("core", "streaming", "mapreduce", "sketch"),
}

#: Retired backend names still accepted by :func:`get_backend` (and so
#: by :func:`solve`).  ``core-csr`` was ``core`` pinned to the numpy
#: tier with a shard loader; ``core`` now takes shard stores and walks
#: the whole tier ladder itself.
_ALIASES = {"core-csr": "core"}


def register(cls: Type) -> Type:
    """Class decorator: instantiate ``cls`` and add it to the registry.

    The class must carry a unique ``name`` and implement the
    :class:`Solver` protocol; registration validates its capability
    record eagerly so a malformed backend fails at import time, not at
    first dispatch.
    """
    solver = cls()
    name = getattr(solver, "name", None)
    if not name or not isinstance(name, str):
        raise SolverError(f"solver class {cls.__name__} must define a string `name`")
    if name in _REGISTRY:
        raise SolverError(f"backend {name!r} is already registered")
    if not isinstance(solver, Solver):
        missing = [
            attr
            for attr in ("capabilities", "solve", "estimated_memory_words")
            if not callable(getattr(solver, attr, None))
        ]
        raise SolverError(
            f"backend {name!r} does not implement the Solver protocol "
            f"(missing: {', '.join(missing)})"
        )
    caps = solver.capabilities()
    if not isinstance(caps, Capabilities):
        raise SolverError(f"backend {name!r} returned a non-Capabilities record")
    _REGISTRY[name] = solver
    return cls


def backend_names() -> List[str]:
    """All registered backend names, in registration order."""
    return list(_REGISTRY)


def get_backend(name: str) -> Solver:
    """Look up a backend by name (or a retired alias of one).

    Raises
    ------
    SolverError
        If no backend of that name is registered.
    """
    try:
        return _REGISTRY[_ALIASES.get(name, name)]
    except KeyError:
        raise SolverError(
            f"unknown backend {name!r}; registered backends: {', '.join(_REGISTRY)}"
        ) from None


def _supports(solver: Solver, problem: Problem) -> bool:
    caps = solver.capabilities()
    return problem.kind in caps.problems and problem.input_mode in caps.input_modes


def _fits_budget(
    solver: Solver, problem: Problem, memory_budget: Optional[int]
) -> bool:
    if memory_budget is None:
        return True
    estimate = solver.estimated_memory_words(problem)
    return estimate is not None and estimate <= memory_budget


def available_backends(
    problem: Problem, *, memory_budget: Optional[int] = None
) -> List[str]:
    """Names of every registered backend able to solve ``problem``.

    ``memory_budget`` (words) additionally filters on the backends' own
    footprint estimates.
    """
    return [
        name
        for name, solver in _REGISTRY.items()
        if _supports(solver, problem)
        and _fits_budget(solver, problem, memory_budget)
    ]


def select_backend(
    problem: Problem, *, memory_budget: Optional[int] = None
) -> Solver:
    """The ``backend="auto"`` policy.

    Graph inputs prefer the in-memory reference engine, falling back to
    the semi-streaming engine (and, for the undirected problem, the
    sketch) when ``memory_budget`` rules out O(m)/O(n) state; stream
    inputs prefer the semi-streaming engine.  Raises
    :class:`~repro.errors.SolverError` when nothing fits.
    """
    eligible = available_backends(problem, memory_budget=memory_budget)
    if not eligible:
        supported = available_backends(problem)
        if supported:
            raise SolverError(
                f"no backend for {problem.kind!r} fits memory_budget="
                f"{memory_budget} words (capable backends: {', '.join(supported)}; "
                f"try a larger budget or an explicit backend=)"
            )
        raise SolverError(
            f"no registered backend solves {problem.kind!r} with "
            f"{problem.input_mode!r} input"
        )
    for name in _AUTO_PREFERENCE.get(problem.input_mode, ()):
        if name in eligible:
            return _REGISTRY[name]
    return _REGISTRY[eligible[0]]


def solve(
    problem: Problem,
    backend: str = "auto",
    *,
    memory_budget: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
    **options,
) -> Solution:
    """Solve a problem with a registered backend.

    Parameters
    ----------
    problem:
        A :class:`~repro.api.problems.Problem` instance
        (:class:`~repro.api.problems.DensestSubgraph`,
        :class:`~repro.api.problems.DensestAtLeastK`, or
        :class:`~repro.api.problems.DirectedDensest`).
    backend:
        A registered backend name, or ``"auto"`` to dispatch on the
        problem's kind, input mode, and ``memory_budget``.
    memory_budget:
        Optional between-pass memory budget in words; only backends
        whose own footprint estimate fits are eligible under
        ``"auto"``.
    context:
        Optional :class:`~repro.api.context.ExecutionContext` naming
        the execution resources (worker processes, memory budget,
        spill directory/shard count).  Its ``memory_budget`` feeds the
        ``"auto"`` dispatch when the explicit argument is absent; the
        whole context is forwarded to the chosen backend, which honors
        the fields that apply to its execution model and ignores the
        rest.
    **options:
        Backend-specific knobs passed through to the solver (e.g.
        ``runtime=`` for MapReduce, ``buckets=``/``tables=``/``seed=``
        for the sketch, ``accountant=`` for the streaming engines,
        ``side_rule=`` for the directed peel).

    Returns
    -------
    Solution

    Raises
    ------
    SolverError
        Unknown backend name, or a backend that cannot solve this
        problem kind / input mode.
    EmptyGraphError
        The input has no nodes, whichever backend was asked.

    Examples
    --------
    >>> from repro.graph.generators import clique, star, disjoint_union
    >>> from repro.api import DensestSubgraph, solve
    >>> g = disjoint_union([clique(6), star(50, offset=100)])
    >>> solution = solve(DensestSubgraph(g, epsilon=0.1))
    >>> solution.backend, sorted(solution.nodes), solution.density
    ('core', [0, 1, 2, 3, 4, 5], 2.5)
    """
    if not isinstance(problem, Problem):
        raise SolverError(
            f"solve() takes a Problem instance, got {type(problem).__name__}"
        )
    if context is not None:
        if not isinstance(context, ExecutionContext):
            raise SolverError(
                f"context must be an ExecutionContext, got {type(context).__name__}"
            )
        if memory_budget is None:
            memory_budget = context.memory_budget
        options["context"] = context
    elif memory_budget is not None:
        # A bare memory budget is still a resource envelope: hand it to
        # the chosen backend as a context so budget-aware behaviors
        # (e.g. the streaming backend's pass-compaction auto-enable)
        # see it, not just the dispatch.
        options["context"] = ExecutionContext(memory_budget=memory_budget)
    if backend == "auto":
        solver = select_backend(problem, memory_budget=memory_budget)
    else:
        solver = get_backend(backend)
        caps = solver.capabilities()
        if problem.kind not in caps.problems:
            raise SolverError(
                f"backend {solver.name!r} does not solve {problem.kind!r} "
                f"(it solves: {', '.join(sorted(caps.problems))})"
            )
        if problem.input_mode not in caps.input_modes:
            raise SolverError(
                f"backend {solver.name!r} does not accept {problem.input_mode!r} "
                f"input (it accepts: {', '.join(sorted(caps.input_modes))})"
            )
    if problem.num_nodes == 0:
        raise EmptyGraphError("the problem's input has no nodes")
    return solver.solve(problem, **options)
