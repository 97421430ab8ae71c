"""Algorithm 1 with Count-Sketch degree counters (§5.1).

Identical control flow to :func:`repro.streaming.engine.stream_densest_subgraph`
except the per-node degree counters are replaced by a Count-Sketch: per
pass the sketch is cleared, every surviving edge updates both endpoint
frequencies, and the removal test uses the *estimated* degrees.  The
surviving edge weight and node count — the only other per-pass state —
are exact scalars, so ρ(S) itself is exact; only the degree comparisons
are approximate.

The paper's intuition: the sketch is accurate on high-degree nodes, and
those are exactly the nodes that must survive; a few low-degree nodes
surviving spuriously barely moves the density.  Table 4 measures the
resulting quality/space trade-off.

The sketch engine shares the exact engines' per-pass state
(:class:`~repro.streaming.engine._UndirectedPassState`): the same
chunked scan, whose surviving-edge arrays feed
:meth:`CountSketch.add_many` at once, and the same ``compaction=`` and
``control=`` options.  Removal decisions are unchanged by compaction:
each pass's sketch is built from exactly the same surviving records.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .._tolerances import THRESHOLD_EPS
from .._validation import check_epsilon, check_positive_int
from ..core.result import DensestSubgraphResult
from ..core.trace import PassRecord
from .countsketch import CountSketch
from .engine import _UndirectedPassState
from .memory import MemoryAccountant
from .stream import EdgeStream


def _endpoint_pairs(u, v, w):
    """Both endpoints of every surviving edge, as one sketch update."""
    return np.concatenate([u, v]), np.concatenate([w, w])


def sketch_densest_subgraph(
    stream: EdgeStream,
    epsilon: float = 0.5,
    *,
    buckets: int = 1024,
    tables: int = 5,
    seed: int = 0,
    max_passes: Optional[int] = None,
    accountant: Optional[MemoryAccountant] = None,
    compaction=None,
    control=None,
) -> DensestSubgraphResult:
    """Algorithm 1 with sketched degrees.

    Parameters
    ----------
    stream:
        Undirected edge stream.
    epsilon:
        Slack parameter ε ≥ 0.
    buckets / tables / seed:
        Count-Sketch shape (t·b words replace the n exact counters; the
        paper uses t = 5 and b ≪ n).
    max_passes:
        Optional cap on peeling passes.
    accountant:
        Optional accountant; charged t·b words for the sketch instead of
        the n words of exact counters.
    compaction:
        Pass-compaction control (``None``/bool/threshold/policy), as in
        :func:`~repro.streaming.engine.stream_densest_subgraph`.
    control:
        Optional :class:`~repro.faults.RunControl` checked at each pass
        boundary — cooperative cancellation, wall-clock deadline, and
        fault injection — as in the exact engines.

    Returns
    -------
    DensestSubgraphResult
        Like the exact engine's result; density values in the trace are
        exact, node-removal decisions are sketch-based.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_int(buckets, "buckets")
    check_positive_int(tables, "tables")
    from .compaction import CompactionPolicy

    state = _UndirectedPassState(stream, CompactionPolicy.coerce(compaction))
    n = state.n
    sketch = CountSketch(tables=tables, buckets=buckets, seed=seed)
    if accountant is not None:
        accountant.charge_words("sketch", sketch.words)
        accountant.charge_bits("alive_bitmap", n)
        accountant.charge_bits("best_set_bitmap", n)
        accountant.charge_words("scalars", 4)
        # The scanner's label index is not part of the charged
        # between-pass footprint — the sketch's memory claim is about
        # the degree counters.

    best_set = list(range(n))
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    pass_index = 0

    try:
        while state.remaining > 0:
            if max_passes is not None and pass_index >= max_passes:
                break
            if control is not None:
                control.check_pass(pass_index + 1)
            pass_index += 1
            # A fresh set of hash functions is drawn every pass (seeded,
            # so runs stay deterministic).  With *fixed* hashes a pass
            # whose estimates all land above the threshold would repeat
            # the identical outcome forever, degenerating to
            # one-node-per-pass removal; independent per-pass hashing
            # makes the collision noise independent across passes and
            # restores geometric progress.  Space is unchanged.
            sketch = CountSketch(
                tables=tables, buckets=buckets, seed=seed + pass_index
            )
            weight = state.scan_weight(
                _endpoint_pairs, lambda pairs: sketch.add_many(*pairs)
            )
            remaining = state.remaining
            density = weight / remaining
            if pending is not None:
                trace.append(
                    PassRecord(edges_after=weight, density_after=density, **pending)
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_set = state.alive_indices()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density
            threshold = factor * density
            alive_ids = state.alive_indices()
            estimates = sketch.estimate_many(alive_ids)
            to_remove = [
                i
                for i, est in zip(alive_ids, estimates)
                if est <= threshold + THRESHOLD_EPS
            ]
            min_batch = max(1, int(epsilon / (1.0 + epsilon) * remaining))
            if len(to_remove) < min_batch and remaining > 1:
                # Sketch noise can over-estimate degrees enough that fewer
                # than the Lemma-4 fraction of nodes clear the threshold —
                # in the worst case none, stalling the peel into O(n)
                # passes.  Fall back to removing the eps/(1+eps) fraction
                # with the smallest estimates, which restores the
                # O(log_{1+eps} n) pass bound while still trusting the
                # sketch's ranking of expendable nodes.
                order = np.argsort(estimates, kind="stable")
                to_remove = [alive_ids[i] for i in order[: min(min_batch, remaining)]]
            pending = {
                "pass_index": pass_index,
                "nodes_before": remaining,
                "edges_before": weight,
                "density_before": density,
                "threshold": threshold,
                "removed": len(to_remove),
                "nodes_after": remaining - len(to_remove),
            }
            state.kill(to_remove)

        if pending is not None:
            if state.remaining == 0:
                edges_after, density_after = 0.0, 0.0
            else:
                # Truncation valuation: one counted pass summing the
                # surviving weight (no rewrite — the run ends here).
                edges_after = state.scan_weight(compact=False)
                density_after = edges_after / state.remaining
                if density_after > (best_density or 0.0):
                    best_density = density_after
                    best_set = state.alive_indices()
                    best_pass = pending["pass_index"]
            trace.append(
                PassRecord(
                    edges_after=edges_after, density_after=density_after, **pending
                )
            )
    finally:
        state.close()

    return DensestSubgraphResult(
        nodes=frozenset(state.labels[i] for i in best_set),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
