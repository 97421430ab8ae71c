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

The per-pass edge scan is the exact engines' chunked scan
(:class:`~repro.streaming.engine._StreamScanner`): each chunk is mapped
to dense indices, dead endpoints are masked out, and whole
surviving-edge arrays feed :meth:`CountSketch.add_many` at once.

The sketch engine also honors the ``compaction=`` control of the exact
engines (see :mod:`repro.streaming.compaction`): the chunked scan can
fuse a survivor rewrite, so later passes of a shrinking peel scan only
the surviving edges.  Removal decisions are unchanged — the sketch
state per pass is built from exactly the same surviving records.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

import numpy as np

from .._tolerances import THRESHOLD_EPS
from .._validation import check_epsilon, check_positive_int
from ..core.result import DensestSubgraphResult
from ..core.trace import PassRecord
from ..errors import StreamError
from .countsketch import CountSketch
from .engine import _StreamScanner
from .memory import MemoryAccountant
from .stream import EdgeStream

Node = Hashable


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

    Returns
    -------
    DensestSubgraphResult
        Like the exact engine's result; density values in the trace are
        exact, node-removal decisions are sketch-based.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_int(buckets, "buckets")
    check_positive_int(tables, "tables")
    labels = stream.node_universe()
    if not labels:
        raise StreamError("stream has an empty node universe")
    n = len(labels)
    scanner = _StreamScanner(labels)
    from .compaction import Compactor, CompactionPolicy

    policy = CompactionPolicy.coerce(compaction)
    compactor = None
    if policy is not None:
        compactor = Compactor(policy, stream, directed=False)
        compactor.bind(n)
    sketch = CountSketch(tables=tables, buckets=buckets, seed=seed)
    if accountant is not None:
        accountant.charge_words("sketch", sketch.words)
        accountant.charge_bits("alive_bitmap", n)
        accountant.charge_bits("best_set_bitmap", n)
        accountant.charge_words("scalars", 4)
        # The scanner's label index is not part of the charged
        # between-pass footprint — the sketch's memory claim is about
        # the degree counters.

    alive_arr = np.ones(n, dtype=bool)

    def alive_indices() -> list:
        return np.flatnonzero(alive_arr).tolist()

    remaining = n
    best_set = list(range(n))
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    pass_index = 0
    scan_stream = stream

    def _sketch_pass(sketch: Optional[CountSketch], sink=None) -> float:
        """One chunked scan: mask dead endpoints per chunk, one batched
        update per chunk for both endpoints of every surviving edge;
        surviving records also feed the compaction sink when one rides
        along.  With ``sketch=None`` only the surviving weight is
        summed (the truncation valuation pass).  Updates the scanner's
        ``last_scanned``/``last_kept`` record counts — the compaction
        trigger reads them."""
        weight = 0.0
        scanned = 0
        kept_edges = 0
        for ui, vi, w in scanner._chunks(scan_stream, alive=alive_arr):
            scanned += int(ui.size)
            keep = alive_arr[ui] & alive_arr[vi]
            if keep.all():
                # Whole chunk survives: skip the masked re-extraction.
                kui, kvi, kept_w = ui, vi, np.asarray(w, dtype=np.float64)
            elif keep.any():
                kui = ui[keep]
                kvi = vi[keep]
                kept_w = w[keep]
            else:
                continue
            kept_edges += int(kui.size)
            if sketch is not None:
                sketch.add_many(
                    np.concatenate([kui, kvi]),
                    np.concatenate([kept_w, kept_w]),
                )
            weight += float(kept_w.sum())
            if sink is not None:
                sink.append(kui, kvi, kept_w)
        scanner.last_scanned = scanned
        scanner.last_kept = kept_edges
        return weight

    try:
        while remaining > 0:
            if max_passes is not None and pass_index >= max_passes:
                break
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
            sink = None
            if compactor is not None and compactor.due():
                sink = compactor.open_sink()
            weight = _sketch_pass(sketch, sink=sink)
            if compactor is not None:
                if sink is not None:
                    scan_stream = compactor.finish(sink)
                else:
                    compactor.observe(scanner.last_scanned, scanner.last_kept)
            density = weight / remaining
            if pending is not None:
                trace.append(
                    PassRecord(edges_after=weight, density_after=density, **pending)
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_set = alive_indices()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density
            threshold = factor * density
            alive_ids = alive_indices()
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
            if to_remove:
                alive_arr[to_remove] = False
            remaining -= len(to_remove)
            if compactor is not None:
                compactor.note_nodes(remaining)

        if pending is not None:
            if remaining == 0:
                edges_after, density_after = 0.0, 0.0
            else:
                # Truncation valuation: one counted pass summing the
                # surviving weight.
                weight = _sketch_pass(None)
                edges_after = weight
                density_after = weight / remaining
                if density_after > (best_density or 0.0):
                    best_density = density_after
                    best_set = alive_indices()
                    best_pass = pending["pass_index"]
            trace.append(
                PassRecord(
                    edges_after=edges_after, density_after=density_after, **pending
                )
            )
    finally:
        if compactor is not None:
            compactor.close()

    return DensestSubgraphResult(
        nodes=frozenset(labels[i] for i in best_set),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
