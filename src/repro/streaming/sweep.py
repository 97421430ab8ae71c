"""Ratio sweep for the directed streaming engine.

Mirrors :func:`repro.core.directed.ratio_sweep` in the semi-streaming
model: one full Algorithm 3 run per candidate ratio, all against the
same multi-pass :class:`~repro.streaming.stream.EdgeStream`.  The total
stream-pass cost is the sum of the per-ratio pass counts — the quantity
the paper's δ-grid (and Figure 6.6's "one can safely skip many values
of c") is about.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .._validation import check_epsilon
from ..core.directed import default_ratio_grid
from ..core.result import RatioSweepResult, pick_best_run
from ..errors import ParameterError
from .engine import stream_densest_subgraph_directed
from .memory import MemoryAccountant
from .stream import EdgeStream


def stream_ratio_sweep(
    stream: EdgeStream,
    epsilon: float = 0.5,
    *,
    delta: float = 2.0,
    ratios: Optional[Iterable[float]] = None,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    control=None,
) -> RatioSweepResult:
    """Search over c with the streaming engine (§4.3 in-model).

    Parameters
    ----------
    stream:
        Directed edge stream; re-iterated once per peeling pass of every
        per-ratio run (check ``stream.passes_made`` afterwards for the
        total cost).
    epsilon:
        ε for each run.
    delta:
        Grid resolution for the powers-of-δ candidate ratios (ignored
        when ``ratios`` is given).
    ratios:
        Explicit candidate ratios.
    accountant:
        Optional :class:`~repro.streaming.memory.MemoryAccountant`.
        The per-ratio runs execute sequentially with identically-sized
        state, so the sweep's peak between-pass footprint is one run's
        footprint; only the first run is charged.
    compaction:
        Pass-compaction control, forwarded to every per-ratio run (see
        :func:`~repro.streaming.engine.stream_densest_subgraph`).  Each
        run compacts independently — different ratios peel different
        subgraphs — against the same base stream.
    control:
        Optional :class:`~repro.faults.RunControl`, forwarded to every
        per-ratio run: cancellation and the deadline are checked at
        each pass boundary of the whole sweep.

    Returns
    -------
    RatioSweepResult
        Same result type as the in-memory sweep; per-run results match
        :func:`repro.core.densest_subgraph_directed` exactly.
    """
    check_epsilon(epsilon)
    if ratios is None:
        grid = default_ratio_grid(stream.num_nodes, delta)
        grid_delta: Optional[float] = delta
    else:
        grid = sorted(set(float(c) for c in ratios))
        grid_delta = None
        if not grid:
            raise ParameterError("ratios must be non-empty")
    results = [
        stream_densest_subgraph_directed(
            stream,
            ratio=c,
            epsilon=epsilon,
            accountant=accountant if i == 0 else None,
            compaction=compaction,
            control=control,
        )
        for i, c in enumerate(grid)
    ]
    best = pick_best_run(results)
    return RatioSweepResult(best=best, by_ratio=tuple(results), delta=grid_delta)
