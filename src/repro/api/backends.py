"""Registered backends wrapping every execution engine in the package.

Each backend adapts one execution model of the paper to the
:class:`~repro.api.registry.Solver` protocol:

========  ==========================================================
backend   wraps
========  ==========================================================
core      in-memory peels (Algorithms 1–3 + ratio sweep) on graphs,
          CSR snapshots and shard stores; engine="python"|"numpy"|
          "native"|"auto" picks the kernel tier
streaming semi-streaming engines with O(n) between-pass state
sketch    Algorithm 1 with Count-Sketch degree counters (§5.1)
mapreduce the §5.2 MapReduce drivers on the simulated columnar
          runtime
exact-lp  Charikar's LP (undirected and directed, scipy/HiGHS)
exact-flow Goldberg's max-flow exact solver
greedy    one-node-per-step greedy baselines (Charikar-style)
exact-bruteforce subset enumeration for the ≥k problem (tiny graphs)
========  ==========================================================

Heavy optional dependencies (scipy for the LPs) are imported inside
``solve`` so that registering the backend never forces the import.
"""

from __future__ import annotations

from typing import Optional

from ..core.result import (
    DensestSubgraphResult,
    DirectedDensestSubgraphResult,
    RatioSweepResult,
    pick_best_run,
)
from ..errors import SolverError

from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph
from ..kernels import CSRDigraph, CSRGraph
from ..store.shards import ShardedEdgeStore
from ..store.sidecar import csr_snapshot
from ..streaming.memory import MemoryAccountant
from ..streaming.stream import (
    DirectedGraphEdgeStream,
    EdgeStream,
    GraphEdgeStream,
    ShardEdgeStream,
)
from .context import ExecutionContext
from .problems import (
    DensestAtLeastK,
    DensestSubgraph,
    DirectedDensest,
    MODE_GRAPH,
    MODE_SHARDS,
    MODE_STREAM,
    Problem,
)
from .registry import (
    Capabilities,
    MEM_EDGES,
    MEM_NODES,
    MEM_SKETCH,
    register,
)
from .solution import CostReport, Solution

_ALL_KINDS = frozenset(
    {"densest_subgraph", "densest_at_least_k", "directed_densest"}
)


def _reject_options(backend: str, options: dict, allowed: tuple = ()) -> None:
    """Fail loudly on option typos instead of silently ignoring them."""
    unknown = set(options) - set(allowed)
    if unknown:
        raise SolverError(
            f"backend {backend!r} got unsupported options {sorted(unknown)}; "
            f"supported: {sorted(allowed) if allowed else 'none'}"
        )


def _pop_context(options: dict) -> ExecutionContext:
    """Extract the ExecutionContext option (every backend accepts one).

    Backends honor the fields that apply to their execution model and
    ignore the rest — the context is a resource envelope, not a
    command (see :class:`~repro.api.context.ExecutionContext`).
    """
    context = options.pop("context", None)
    return context if context is not None else ExecutionContext()


def _undirected_solution(
    result: DensestSubgraphResult,
    *,
    backend: str,
    problem: Problem,
    exact: bool = False,
    cost: Optional[CostReport] = None,
    details=None,
) -> Solution:
    return Solution(
        nodes=result.nodes,
        density=result.density,
        backend=backend,
        problem_kind=problem.kind,
        exact=exact,
        certificate=result.trace,
        cost=cost if cost is not None else CostReport(passes=result.passes),
        details=details if details is not None else result,
    )


def _directed_solution(
    result: DirectedDensestSubgraphResult,
    *,
    backend: str,
    problem: Problem,
    exact: bool = False,
    cost: Optional[CostReport] = None,
    details=None,
) -> Solution:
    return Solution(
        nodes=frozenset(result.s_nodes | result.t_nodes),
        density=result.density,
        backend=backend,
        problem_kind=problem.kind,
        exact=exact,
        s_nodes=result.s_nodes,
        t_nodes=result.t_nodes,
        ratio=result.ratio,
        certificate=result.trace,
        cost=cost if cost is not None else CostReport(passes=result.passes),
        details=details if details is not None else result,
    )


def _sweep_solution(
    sweep: RatioSweepResult,
    *,
    backend: str,
    problem: Problem,
    exact: bool = False,
    cost: Optional[CostReport] = None,
    details=None,
) -> Solution:
    best = sweep.best
    return Solution(
        nodes=frozenset(best.s_nodes | best.t_nodes),
        density=best.density,
        backend=backend,
        problem_kind=problem.kind,
        exact=exact,
        s_nodes=best.s_nodes,
        t_nodes=best.t_nodes,
        ratio=best.ratio,
        certificate=best.trace,
        cost=cost if cost is not None else CostReport(passes=sweep.total_passes()),
        details=details if details is not None else sweep,
    )


def _set_solution(
    nodes,
    density: float,
    *,
    backend: str,
    problem: Problem,
    exact: bool,
    s_nodes=None,
    t_nodes=None,
    ratio: Optional[float] = None,
    cost: Optional[CostReport] = None,
    details=None,
) -> Solution:
    return Solution(
        nodes=frozenset(nodes),
        density=density,
        backend=backend,
        problem_kind=problem.kind,
        exact=exact,
        s_nodes=frozenset(s_nodes) if s_nodes is not None else None,
        t_nodes=frozenset(t_nodes) if t_nodes is not None else None,
        ratio=ratio,
        cost=cost if cost is not None else CostReport(),
        details=details,
    )


def _require_graph(problem: Problem, backend: str, *, allow_csr: bool = False):
    """The problem's in-memory graph input.

    Backends built on the dict-of-dict graph API (``allow_csr=False``)
    get CSR snapshots materialized back into graph objects and refuse
    shard stores.  The CSR-aware backends (``allow_csr=True``) take
    snapshots as-is and map a store's CSR sidecar, which the per-shard
    builders write on the store's first in-memory solve — no dict graph
    is ever materialized on that path.
    """
    if problem.input_mode == MODE_SHARDS:
        if not allow_csr:
            raise SolverError(
                f"backend {backend!r} does not accept shard-store input"
            )
        store = problem.input
        return csr_snapshot(store, CSRDigraph if store.directed else CSRGraph)
    if problem.input_mode != MODE_GRAPH:
        raise SolverError(f"backend {backend!r} needs an in-memory graph input")
    graph = problem.input
    if not allow_csr:
        if isinstance(graph, CSRGraph):
            return graph.to_undirected()
        if isinstance(graph, CSRDigraph):
            return graph.to_directed()
    return graph


def _directed_grid(problem: DirectedDensest) -> list:
    """The candidate ratios a sweeping backend should try."""
    from ..core.directed import default_ratio_grid

    if problem.ratio_grid is not None:
        return list(problem.ratio_grid)
    return default_ratio_grid(problem.num_nodes, problem.delta)


# ----------------------------------------------------------------------
# core — the in-memory peels on every kernel tier
# ----------------------------------------------------------------------
@register
class CoreSolver:
    """Algorithms 1–3 on an in-memory graph, CSR snapshot or shard store.

    Shard stores map their CSR sidecar, built once by
    ``CSRGraph.from_shards`` / ``CSRDigraph.from_shards`` (per-shard
    passes, no dict graph) and kept in the store directory.
    Accepts an ``engine=`` option (any name in
    :data:`repro.kernels.ENGINES`), forwarded to the core peels;
    ``"auto"`` (the default) lets :func:`repro.kernels.resolve_engine`
    walk the python → numpy → native ladder per input.  ``"native"``
    requests the compiled C kernels and degrades (with a warning) to
    numpy when they cannot be loaded.
    """

    name = "core"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=_ALL_KINDS,
            input_modes=frozenset({MODE_GRAPH, MODE_SHARDS}),
            exact=False,
            memory_class=MEM_EDGES,
            semantics="batch-peel",
            # "native" resolves (possibly with a fallback warning to
            # the numpy tier) on every install.
            engines=("python", "numpy", "native"),
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        graph = problem.input
        # Symmetric CSR: 2m int32 indices + 2m float64 weights (~3m
        # words) + indptr/degrees/masks (~3n words).
        return 3 * graph.num_edges + 3 * graph.num_nodes

    def solve(self, problem: Problem, **options) -> Solution:
        from ..core.atleast_k import densest_subgraph_atleast_k
        from ..core.directed import densest_subgraph_directed, ratio_sweep
        from ..core.undirected import densest_subgraph

        _pop_context(options)
        engine = options.pop("engine", "auto")
        allowed = self.capabilities().engines + ("auto",)
        if engine not in allowed:
            raise SolverError(
                f"backend {self.name!r} supports engine= of {sorted(allowed)}, "
                f"got {engine!r}"
            )
        graph = _require_graph(problem, self.name, allow_csr=True)
        if isinstance(problem, DensestSubgraph):
            _reject_options(self.name, options)
            result = densest_subgraph(
                graph, problem.epsilon, max_passes=problem.max_passes, engine=engine
            )
            return _undirected_solution(result, backend=self.name, problem=problem)
        if isinstance(problem, DensestAtLeastK):
            _reject_options(self.name, options, ("stop_below_k",))
            result = densest_subgraph_atleast_k(
                graph, problem.k, problem.epsilon, engine=engine, **options
            )
            return _undirected_solution(result, backend=self.name, problem=problem)
        if isinstance(problem, DirectedDensest):
            _reject_options(self.name, options, ("side_rule",))
            if problem.is_sweep:
                sweep = ratio_sweep(
                    graph,
                    epsilon=problem.epsilon,
                    delta=problem.delta,
                    ratios=problem.ratio_grid,
                    engine=engine,
                    **options,
                )
                return _sweep_solution(sweep, backend=self.name, problem=problem)
            result = densest_subgraph_directed(
                graph, problem.ratio, problem.epsilon, engine=engine, **options
            )
            return _directed_solution(result, backend=self.name, problem=problem)
        raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")


# ----------------------------------------------------------------------
# streaming — the semi-streaming engines (O(n) between-pass state)
# ----------------------------------------------------------------------
def _as_stream(problem: Problem) -> EdgeStream:
    """The problem's input as an EdgeStream (graphs get a zero-copy view).

    CSR snapshots implement the ``nodes()``/``weighted_edges()`` slice
    of the graph protocol, so the stream views wrap them directly;
    shard stores become :class:`ShardEdgeStream` passes (memmap chunks,
    the out-of-core mode).
    """
    if isinstance(problem.input, EdgeStream):
        return problem.input
    if isinstance(problem.input, ShardedEdgeStore):
        return ShardEdgeStream(problem.input)
    if isinstance(problem.input, (DirectedGraph, CSRDigraph)):
        return DirectedGraphEdgeStream(problem.input)
    return GraphEdgeStream(problem.input)


class _StreamMeter:
    """Before/after snapshot of a stream's accounting for a CostReport."""

    def __init__(self, stream: EdgeStream) -> None:
        self.stream = stream
        self._passes = stream.passes_made
        self._edges = stream.edges_streamed
        self._bytes = stream.bytes_scanned

    def cost(
        self, passes: int, accountant: Optional[MemoryAccountant]
    ) -> CostReport:
        return CostReport(
            passes=passes,
            stream_passes=self.stream.passes_made - self._passes,
            edges_streamed=self.stream.edges_streamed - self._edges,
            bytes_scanned=self.stream.bytes_scanned - self._bytes,
            memory_words=(
                int(accountant.total_words) if accountant is not None else None
            ),
        )


def _compaction_policy(options: dict, context: ExecutionContext, problem: Problem):
    """Resolve the streaming/sketch backends' ``compaction=`` option.

    Explicit ``compaction=`` wins; otherwise compaction auto-enables
    for shard-store inputs solved under an explicit resource envelope
    (a memory budget, spill directory, or compaction threshold on the
    context) — the out-of-core shape where rescanning every shard per
    pass is the dominant cost.
    """
    from ..streaming.compaction import context_policy

    return context_policy(
        options.pop("compaction", None),
        context,
        shard_input=problem.input_mode == MODE_SHARDS,
    )


@register
class StreamingSolver:
    """Algorithms 1–3 against the multi-pass EdgeStream interface.

    Accepts stream, graph, and shard-store inputs; a graph is adapted
    through a :class:`~repro.streaming.stream.GraphEdgeStream` view
    without copying the edge set, and a shard store through
    :class:`~repro.streaming.stream.ShardEdgeStream` — the out-of-core
    mode, where each pass walks memmap shard chunks and only the O(n)
    counters stay resident.

    A ``compaction=`` option (bool, threshold, or
    :class:`~repro.streaming.compaction.CompactionPolicy`) controls
    pass compaction; left unset, it auto-enables for shard-store
    inputs solved under an explicit resource envelope (memory budget,
    spill dir, or compaction threshold on the
    :class:`~repro.api.context.ExecutionContext`).  Results are
    identical either way; the CostReport's bytes/edges shrink.
    """

    name = "streaming"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=_ALL_KINDS,
            input_modes=frozenset({MODE_GRAPH, MODE_STREAM, MODE_SHARDS}),
            exact=False,
            memory_class=MEM_NODES,
            semantics="batch-peel",
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        return 3 * problem.num_nodes + 8

    def solve(self, problem: Problem, **options) -> Solution:
        from ..streaming.engine import (
            stream_densest_subgraph,
            stream_densest_subgraph_atleast_k,
            stream_densest_subgraph_directed,
        )
        from ..streaming.sweep import stream_ratio_sweep

        from ..faults import RunControl
        from ..streaming.checkpoint import CheckpointConfig

        context = _pop_context(options)
        _reject_options(self.name, options, ("accountant", "compaction"))
        compaction = _compaction_policy(options, context, problem)
        accountant = options.get("accountant")
        # Robustness knobs: checkpoint/resume for the undirected peels,
        # cooperative cancel/deadline/fault checks for every peel.
        control = RunControl.from_context(context)
        checkpoint = (
            CheckpointConfig(
                path=context.checkpoint_dir, every=context.checkpoint_every
            )
            if context.checkpoint_dir
            else None
        )
        stream = _as_stream(problem)
        meter = _StreamMeter(stream)
        controls = dict(accountant=accountant, compaction=compaction, control=control)
        if isinstance(problem, DensestSubgraph):
            result = stream_densest_subgraph(
                stream,
                problem.epsilon,
                max_passes=problem.max_passes,
                checkpoint=checkpoint,
                **controls,
            )
            return _undirected_solution(
                result,
                backend=self.name,
                problem=problem,
                cost=meter.cost(result.passes, accountant),
            )
        if isinstance(problem, DensestAtLeastK):
            result = stream_densest_subgraph_atleast_k(
                stream,
                problem.k,
                problem.epsilon,
                checkpoint=checkpoint,
                **controls,
            )
            return _undirected_solution(
                result,
                backend=self.name,
                problem=problem,
                cost=meter.cost(result.passes, accountant),
            )
        if isinstance(problem, DirectedDensest):
            if problem.is_sweep:
                sweep = stream_ratio_sweep(
                    stream,
                    problem.epsilon,
                    delta=problem.delta,
                    ratios=problem.ratio_grid,
                    **controls,
                )
                return _sweep_solution(
                    sweep,
                    backend=self.name,
                    problem=problem,
                    cost=meter.cost(sweep.total_passes(), accountant),
                )
            result = stream_densest_subgraph_directed(
                stream, problem.ratio, problem.epsilon, **controls
            )
            return _directed_solution(
                result,
                backend=self.name,
                problem=problem,
                cost=meter.cost(result.passes, accountant),
            )
        raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")


# ----------------------------------------------------------------------
# sketch — Algorithm 1 with Count-Sketch degree counters
# ----------------------------------------------------------------------
@register
class SketchSolver:
    """Sublinear-memory Algorithm 1 (§5.1); approximate removals.

    Every input runs the same chunked scan as the ``streaming``
    backend (non-int labels are relabelled to dense ids at the
    scanner), so the backend advertises ``engines=("numpy",)`` and
    takes no ``engine=`` option.  Shard stores are accepted as the
    out-of-core input mode, and the ``compaction=`` option works as on
    the ``streaming`` backend (auto-enabled under the same
    conditions).
    """

    name = "sketch"

    DEFAULT_BUCKETS = 1024
    DEFAULT_TABLES = 5

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=frozenset({"densest_subgraph"}),
            input_modes=frozenset({MODE_GRAPH, MODE_STREAM, MODE_SHARDS}),
            exact=False,
            memory_class=MEM_SKETCH,
            semantics="sketch-peel",
            engines=("numpy",),
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        # Assumes the default sketch shape; explicit buckets/tables
        # options change the real footprint but not dispatch.
        return (
            self.DEFAULT_BUCKETS * self.DEFAULT_TABLES
            + problem.num_nodes // 32
            + 8
        )

    def solve(self, problem: Problem, **options) -> Solution:
        from ..faults import RunControl
        from ..streaming.sketch_engine import sketch_densest_subgraph

        if not isinstance(problem, DensestSubgraph):
            raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")
        context = _pop_context(options)
        _reject_options(
            self.name,
            options,
            ("buckets", "tables", "seed", "accountant", "compaction"),
        )
        compaction = _compaction_policy(options, context, problem)
        accountant = options.get("accountant")
        stream = _as_stream(problem)
        meter = _StreamMeter(stream)
        result = sketch_densest_subgraph(
            stream,
            problem.epsilon,
            buckets=options.get("buckets", self.DEFAULT_BUCKETS),
            tables=options.get("tables", self.DEFAULT_TABLES),
            seed=options.get("seed", 0),
            max_passes=problem.max_passes,
            accountant=accountant,
            compaction=compaction,
            control=RunControl.from_context(context),
        )
        return _undirected_solution(
            result,
            backend=self.name,
            problem=problem,
            cost=meter.cost(result.passes, accountant),
        )


# ----------------------------------------------------------------------
# mapreduce — the §5.2 drivers on the simulated runtime
# ----------------------------------------------------------------------
@register
class MapReduceSolver:
    """Algorithms 1–3 as metered MapReduce job chains.

    The runtime has one (columnar, numpy) engine, so the backend
    advertises ``engines=("numpy",)`` and takes no ``engine=`` option.
    Graphs with any node labels are accepted (non-int labels are
    relabelled to dense ids inside the drivers).  CSR snapshots are accepted directly — the drivers read
    their edge arrays without materializing a dict graph — and shard
    stores are loaded through the per-shard CSR builders.  An
    :class:`~repro.api.context.ExecutionContext` with ``workers > 1``
    (and no explicit ``runtime=``) runs the columnar rounds on a
    spawned process pool; the pool lives for this solve and is shut
    down before returning.  ``context.shuffle_dir`` routes the pool's
    intermediate data through the file-backed shuffle (DESIGN.md §13),
    bit-exact against the serial driver.
    """

    name = "mapreduce"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=_ALL_KINDS,
            input_modes=frozenset({MODE_GRAPH, MODE_SHARDS}),
            exact=False,
            memory_class=MEM_EDGES,
            semantics="batch-peel",
            engines=("numpy",),
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        graph = problem.input
        return 3 * graph.num_edges + 3 * graph.num_nodes

    def solve(self, problem: Problem, **options) -> Solution:
        context = _pop_context(options)
        _reject_options(self.name, options, ("runtime",))
        runtime = options.get("runtime")
        owned_runtime = None
        if runtime is None and context.workers > 1:
            from ..mapreduce.runtime import MapReduceRuntime

            runtime = owned_runtime = MapReduceRuntime(
                executor="process",
                workers=context.workers,
                fault_plan=context.fault_plan,
                shuffle_dir=context.shuffle_dir,
            )
        try:
            return self._solve(problem, runtime)
        finally:
            if owned_runtime is not None:
                owned_runtime.close()

    def _solve(self, problem: Problem, runtime) -> Solution:
        from ..mapreduce.densest import (
            mr_densest_subgraph,
            mr_densest_subgraph_atleast_k,
            mr_densest_subgraph_directed,
        )

        graph = _require_graph(problem, self.name, allow_csr=True)
        if isinstance(problem, DensestSubgraph):
            report = mr_densest_subgraph(graph, problem.epsilon, runtime=runtime)
            return _undirected_solution(
                report.result,
                backend=self.name,
                problem=problem,
                cost=CostReport(
                    passes=report.result.passes,
                    mapreduce_rounds=report.total_rounds(),
                ),
                details=report,
            )
        if isinstance(problem, DensestAtLeastK):
            report = mr_densest_subgraph_atleast_k(
                graph, problem.k, problem.epsilon, runtime=runtime
            )
            return _undirected_solution(
                report.result,
                backend=self.name,
                problem=problem,
                cost=CostReport(
                    passes=report.result.passes,
                    mapreduce_rounds=report.total_rounds(),
                ),
                details=report,
            )
        if isinstance(problem, DirectedDensest):
            if problem.is_sweep:
                # Give the drivers a resident CSR snapshot so the
                # per-ratio calls read edge arrays instead of repeating
                # the O(m) weighted_edges() pass and the label scan.
                if isinstance(graph, DirectedGraph):
                    graph = CSRDigraph.from_directed(graph)
                reports = [
                    mr_densest_subgraph_directed(
                        graph, ratio, problem.epsilon, runtime=runtime
                    )
                    for ratio in _directed_grid(problem)
                ]
                by_ratio = tuple(r.result for r in reports)
                best = pick_best_run(by_ratio)
                sweep = RatioSweepResult(
                    best=best,
                    by_ratio=by_ratio,
                    delta=problem.delta if problem.ratio_grid is None else None,
                )
                return _sweep_solution(
                    sweep,
                    backend=self.name,
                    problem=problem,
                    cost=CostReport(
                        passes=sweep.total_passes(),
                        mapreduce_rounds=sum(r.total_rounds() for r in reports),
                    ),
                    details=sweep,
                )
            report = mr_densest_subgraph_directed(
                graph, problem.ratio, problem.epsilon, runtime=runtime
            )
            return _directed_solution(
                report.result,
                backend=self.name,
                problem=problem,
                cost=CostReport(
                    passes=report.result.passes,
                    mapreduce_rounds=report.total_rounds(),
                ),
                details=report,
            )
        raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")


# ----------------------------------------------------------------------
# exact-lp — Charikar's LP relaxations (scipy/HiGHS)
# ----------------------------------------------------------------------
@register
class ExactLPSolver:
    """Exact ρ* via Charikar's LP; directed variant sweeps candidate c."""

    name = "exact-lp"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=frozenset({"densest_subgraph", "directed_densest"}),
            input_modes=frozenset({MODE_GRAPH}),
            exact=True,
            memory_class=MEM_EDGES,
            semantics="exact",
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        return None  # LP workspace is solver-internal; no honest estimate

    def solve(self, problem: Problem, **options) -> Solution:
        _pop_context(options)
        graph = _require_graph(problem, self.name)
        if isinstance(problem, DensestSubgraph):
            from ..exact.lp import lp_densest_subgraph

            _reject_options(self.name, options)
            nodes, rho = lp_densest_subgraph(graph)
            return _set_solution(
                nodes, rho, backend=self.name, problem=problem, exact=True
            )
        if isinstance(problem, DirectedDensest):
            from ..exact.directed_lp import directed_lp_densest_subgraph

            _reject_options(self.name, options)
            if problem.ratio is not None:
                ratios = [problem.ratio]
            elif problem.ratio_grid is not None:
                ratios = list(problem.ratio_grid)
            else:
                # Full exact candidate set {a/b}: only viable on the
                # tiny graphs the paper's Table 2 regime uses.
                ratios = None
            s_set, t_set, rho = directed_lp_densest_subgraph(graph, ratios=ratios)
            return _set_solution(
                s_set | t_set,
                rho,
                backend=self.name,
                problem=problem,
                exact=True,
                s_nodes=s_set,
                t_nodes=t_set,
            )
        raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")


# ----------------------------------------------------------------------
# exact-flow — Goldberg's binary-search max-flow solver
# ----------------------------------------------------------------------
@register
class ExactFlowSolver:
    """Exact ρ* via Goldberg's parametric max-flow construction."""

    name = "exact-flow"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=frozenset({"densest_subgraph"}),
            input_modes=frozenset({MODE_GRAPH}),
            exact=True,
            memory_class=MEM_EDGES,
            semantics="exact",
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        graph = problem.input
        # Flow network: ~2 arcs per edge + 2n source/sink arcs, 3 words each.
        return 6 * graph.num_edges + 6 * graph.num_nodes

    def solve(self, problem: Problem, **options) -> Solution:
        from ..exact.goldberg import goldberg_densest_subgraph

        if not isinstance(problem, DensestSubgraph):
            raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")
        _pop_context(options)
        graph = _require_graph(problem, self.name)
        _reject_options(self.name, options, ("tolerance",))
        nodes, rho = goldberg_densest_subgraph(graph, **options)
        return _set_solution(
            nodes, rho, backend=self.name, problem=problem, exact=True
        )


# ----------------------------------------------------------------------
# greedy — one-node-per-step baselines (Charikar-style)
# ----------------------------------------------------------------------
@register
class GreedySolver:
    """Classical one-node-at-a-time greedy peels (the ε→0 baselines)."""

    name = "greedy"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=_ALL_KINDS,
            input_modes=frozenset({MODE_GRAPH}),
            exact=False,
            memory_class=MEM_EDGES,
            semantics="greedy-peel",
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        graph = problem.input
        return 2 * graph.num_edges + 4 * graph.num_nodes

    def solve(self, problem: Problem, **options) -> Solution:
        _pop_context(options)
        graph = _require_graph(problem, self.name)
        if isinstance(problem, DensestSubgraph):
            from ..core.charikar import greedy_densest_subgraph

            _reject_options(self.name, options)
            result = greedy_densest_subgraph(graph)
            return _undirected_solution(result, backend=self.name, problem=problem)
        if isinstance(problem, DensestAtLeastK):
            from ..exact.atleast_k_baselines import greedy_suffix_atleast_k

            _reject_options(self.name, options)
            nodes, rho = greedy_suffix_atleast_k(graph, problem.k)
            return _set_solution(
                nodes, rho, backend=self.name, problem=problem, exact=False
            )
        if isinstance(problem, DirectedDensest):
            from ..exact.peeling import charikar_directed_peeling

            _reject_options(self.name, options)
            if problem.is_sweep:
                best = None
                best_ratio = None
                for ratio in _directed_grid(problem):
                    s_set, t_set, rho = charikar_directed_peeling(graph, ratio)
                    if best is None or rho > best[2]:
                        best = (s_set, t_set, rho)
                        best_ratio = ratio
                s_set, t_set, rho = best
                ratio = best_ratio
            else:
                ratio = problem.ratio
                s_set, t_set, rho = charikar_directed_peeling(graph, ratio)
            return _set_solution(
                s_set | t_set,
                rho,
                backend=self.name,
                problem=problem,
                exact=False,
                s_nodes=s_set,
                t_nodes=t_set,
                ratio=ratio,
            )
        raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")


# ----------------------------------------------------------------------
# exact-bruteforce — subset enumeration for the ≥k problem
# ----------------------------------------------------------------------
@register
class BruteForceSolver:
    """Exact ρ*_{≥k} by enumeration; refuses graphs beyond 16 nodes."""

    name = "exact-bruteforce"

    def capabilities(self) -> Capabilities:
        return Capabilities(
            problems=frozenset({"densest_at_least_k"}),
            input_modes=frozenset({MODE_GRAPH}),
            exact=True,
            memory_class=MEM_EDGES,
            semantics="exact",
        )

    def estimated_memory_words(self, problem: Problem) -> Optional[int]:
        graph = problem.input
        return 2 * graph.num_edges + 2 * graph.num_nodes

    def solve(self, problem: Problem, **options) -> Solution:
        from ..exact.atleast_k_baselines import brute_force_atleast_k

        if not isinstance(problem, DensestAtLeastK):
            raise SolverError(f"backend {self.name!r} cannot solve {problem.kind!r}")
        _pop_context(options)
        graph = _require_graph(problem, self.name)
        _reject_options(self.name, options)
        nodes, rho = brute_force_atleast_k(graph, problem.k)
        return _set_solution(
            nodes, rho, backend=self.name, problem=problem, exact=True
        )
