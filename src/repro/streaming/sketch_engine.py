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

The sketch engine runs the exact engines' peel loop
(:func:`~repro.streaming.engine._peel_undirected`) over their per-pass
state (:class:`~repro.streaming.engine._UndirectedPassState`).  Only
its measurement differs — a chunked scan whose surviving-edge arrays
feed a fresh :meth:`CountSketch.add_many` each pass — and its removal
rule adds a low-estimate fallback; the ``compaction=`` and
``control=`` options are the same.  Removal decisions are unchanged
by compaction: each pass's sketch is built from exactly the same
surviving records.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import check_epsilon, check_positive_int
from ..core.result import DensestSubgraphResult
from ..kernels.peel import batch_size, lowest_batch
from .countsketch import CountSketch
from .engine import _UndirectedPassState, _peel_undirected
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

    def measure(pass_index):
        if pass_index is None:
            # Truncation valuation: one counted pass summing the
            # surviving weight (no rewrite — the run ends here).
            return None, state.scan_weight(compact=False)
        # A fresh set of hash functions is drawn every pass (seeded,
        # so runs stay deterministic).  With *fixed* hashes a pass
        # whose estimates all land above the threshold would repeat
        # the identical outcome forever, degenerating to
        # one-node-per-pass removal; independent per-pass hashing
        # makes the collision noise independent across passes and
        # restores geometric progress.  Space is unchanged.
        sketch = CountSketch(tables=tables, buckets=buckets, seed=seed + pass_index)
        weight = state.scan_weight(
            _endpoint_pairs, lambda pairs: sketch.add_many(*pairs)
        )
        alive_ids = state.alive_array()
        estimates = np.zeros(n, dtype=np.float64)
        estimates[alive_ids] = sketch.estimate_many(alive_ids)
        return estimates, weight

    def select(estimates, candidates, remaining):
        if len(candidates) >= batch_size(epsilon, remaining) or remaining <= 1:
            return candidates
        # Sketch noise can over-estimate degrees enough that fewer
        # than the Lemma-4 fraction of nodes clear the threshold — in
        # the worst case none, stalling the peel into O(n) passes.
        # Fall back to removing the eps/(1+eps) fraction with the
        # smallest estimates, which restores the O(log_{1+eps} n) pass
        # bound while still trusting the sketch's ranking of
        # expendable nodes.
        alive_ids = state.alive_array()
        return lowest_batch(alive_ids, estimates[alive_ids], epsilon, remaining)

    return _peel_undirected(
        state, epsilon, measure, select=select, max_passes=max_passes,
        control=control,
    )
