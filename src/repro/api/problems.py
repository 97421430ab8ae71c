"""Problem descriptions accepted by :func:`repro.solve`.

A *problem* is a frozen value object pairing the paper's optimization
task with its input and algorithm parameters — and nothing about *how*
to solve it.  The execution model (in-memory, semi-streaming, sketch,
MapReduce, exact baseline) is chosen separately, by naming a backend or
letting the registry dispatch on the problem's kind and input mode.

Inputs may be an in-memory :class:`~repro.graph.undirected.UndirectedGraph`
/ :class:`~repro.graph.directed.DirectedGraph`, a multi-pass
:class:`~repro.streaming.stream.EdgeStream`, or an on-disk
:class:`~repro.store.ShardedEdgeStore` (the out-of-core input mode);
:meth:`Problem.input_mode` reports which, and backends declare which
modes they accept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Optional, Tuple, Union

from .._validation import check_epsilon, check_positive_float, check_positive_int
from ..errors import ParameterError
from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph
from ..streaming.stream import DirectedGraphEdgeStream, EdgeStream, GraphEdgeStream

# After the streaming import, which loads repro.core: importing
# repro.kernels before repro.core trips their import cycle.
from ..kernels import CSRDigraph, CSRGraph
from ..store.shards import ShardedEdgeStore

_UNDIRECTED_TYPES = (UndirectedGraph, CSRGraph)
_DIRECTED_TYPES = (DirectedGraph, CSRDigraph)
_INPUT_TYPES = _UNDIRECTED_TYPES + _DIRECTED_TYPES + (EdgeStream, ShardedEdgeStore)

GraphInput = Union[UndirectedGraph, DirectedGraph, EdgeStream]

#: Input modes a backend can declare in its capabilities.
MODE_GRAPH = "graph"
MODE_STREAM = "stream"
MODE_SHARDS = "shards"


def _check_undirected_input(input_obj, problem_name: str) -> None:
    """Reject directed inputs, including graph-backed directed streams.

    Bare streams (file, memory, generator) carry no orientation
    metadata and cannot be validated here; callers streaming directed
    data from such sources must use :class:`DirectedDensest`.  Shard
    stores carry the flag in their manifest and are checked.
    """
    if isinstance(input_obj, _DIRECTED_TYPES + (DirectedGraphEdgeStream,)) or (
        isinstance(input_obj, ShardedEdgeStore) and input_obj.directed
    ):
        raise ParameterError(
            f"{problem_name} takes an undirected input; use DirectedDensest"
        )


@dataclass(frozen=True, eq=False)
class Problem:
    """Base class of all problem descriptions.

    Subclasses set :attr:`kind` (the registry's dispatch key) and add
    their parameters.  Instances are immutable; the held input object
    is shared, not copied.
    """

    kind: ClassVar[str] = ""

    input: GraphInput

    def __post_init__(self) -> None:
        if not isinstance(self.input, _INPUT_TYPES):
            raise ParameterError(
                f"problem input must be an UndirectedGraph, DirectedGraph, "
                f"CSR snapshot, EdgeStream, or ShardedEdgeStore, "
                f"got {type(self.input).__name__}"
            )

    @property
    def input_mode(self) -> str:
        """``"graph"``, ``"stream"``, or ``"shards"`` per the input type."""
        if isinstance(self.input, EdgeStream):
            return MODE_STREAM
        if isinstance(self.input, ShardedEdgeStore):
            return MODE_SHARDS
        return MODE_GRAPH

    @property
    def num_nodes(self) -> int:
        """|V| of the input (one counted discovery pass for bare streams)."""
        return self.input.num_nodes

    def canonical_params(self) -> Dict[str, object]:
        """The problem's parameters in canonical, input-free form.

        Every field except ``input``, with names sorted and values
        normalized to plain python types (numpy scalars unwrapped,
        tuples as lists), so two problem instances describing the same
        task — ``eps=0.1`` vs ``eps=.1``, kwargs in any order, numpy
        vs python numbers — produce the *identical* dict and therefore
        the identical cache key.  The serving layer's result catalog
        keys on exactly this (see :func:`repro.serve.catalog.result_key`).

        Examples
        --------
        >>> from repro.graph.generators import clique
        >>> DensestSubgraph(clique(3), epsilon=.1).canonical_params()
        {'epsilon': 0.1, 'max_passes': None}
        """
        return {
            f.name: _canonical_value(
                getattr(self, f.name), f.name, as_float="float" in str(f.type)
            )
            for f in sorted(fields(self), key=lambda f: f.name)
            if f.name != "input"
        }


def _canonical_value(value, name: str, as_float: bool = False):
    """Normalize one parameter value for canonical hashing.

    ``as_float`` marks float-typed fields so an integer-valued argument
    (``epsilon=1``) hashes identically to its float spelling
    (``epsilon=1.0``).
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return float(value) if as_float else int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [_canonical_value(v, name, as_float) for v in value]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return _canonical_value(item(), name, as_float)
    raise ParameterError(
        f"problem parameter {name!r} has non-canonicalizable type "
        f"{type(value).__name__}"
    )


@dataclass(frozen=True, eq=False)
class DensestSubgraph(Problem):
    """Undirected densest subgraph (the paper's Algorithm 1 setting).

    Parameters
    ----------
    input:
        Undirected graph or undirected edge stream.
    epsilon:
        Peeling slack ε ≥ 0; approximation backends guarantee 2(1+ε).
        Exact backends ignore it.
    max_passes:
        Optional safety cap on peeling passes (backends that do not
        peel ignore it).

    Examples
    --------
    >>> from repro.graph.generators import clique
    >>> DensestSubgraph(clique(4), epsilon=0.1).kind
    'densest_subgraph'
    """

    kind: ClassVar[str] = "densest_subgraph"

    epsilon: float = 0.5
    max_passes: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_undirected_input(self.input, "DensestSubgraph")
        check_epsilon(self.epsilon)


@dataclass(frozen=True, eq=False)
class DensestAtLeastK(Problem):
    """Densest subgraph with at least ``k`` nodes (Algorithm 2 setting)."""

    kind: ClassVar[str] = "densest_at_least_k"

    k: int = 1
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_undirected_input(self.input, "DensestAtLeastK")
        check_positive_int(self.k, "k")
        check_epsilon(self.epsilon)


@dataclass(frozen=True, eq=False)
class DirectedDensest(Problem):
    """Directed densest subgraph (Algorithm 3 setting).

    Exactly one search strategy applies:

    * ``ratio`` fixed — a single run at c = ``ratio``;
    * otherwise — a sweep over ``ratio_grid`` when given, else over the
      paper's powers-of-``delta`` grid covering [1/n, n].
    """

    kind: ClassVar[str] = "directed_densest"

    ratio: Optional[float] = None
    ratio_grid: Optional[Tuple[float, ...]] = None
    delta: float = 2.0
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.input, _UNDIRECTED_TYPES + (GraphEdgeStream,)) or (
            isinstance(self.input, ShardedEdgeStore) and not self.input.directed
        ):
            raise ParameterError(
                "DirectedDensest takes a directed input; use DensestSubgraph"
            )
        check_epsilon(self.epsilon)
        if self.ratio is not None and self.ratio_grid is not None:
            raise ParameterError("give either ratio or ratio_grid, not both")
        if self.ratio is not None:
            check_positive_float(self.ratio, "ratio")
        if self.ratio_grid is not None:
            if not self.ratio_grid:
                raise ParameterError("ratio_grid must be non-empty")
            # Normalize to a sorted, deduplicated tuple so every backend
            # sweeps the same candidate set (the engines' own sweeps
            # dedupe internally; backends iterating the grid verbatim
            # must see the identical sequence for cross-backend parity).
            object.__setattr__(
                self,
                "ratio_grid",
                tuple(sorted({float(c) for c in self.ratio_grid})),
            )
            for c in self.ratio_grid:
                check_positive_float(c, "ratio_grid entry")
        check_positive_float(self.delta, "delta")

    @property
    def is_sweep(self) -> bool:
        """Whether this problem asks for a ratio search rather than one c."""
        return self.ratio is None


#: All concrete problem kinds, for registry validation.
PROBLEM_KINDS = frozenset(
    cls.kind for cls in (DensestSubgraph, DensestAtLeastK, DirectedDensest)
)
