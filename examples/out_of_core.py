#!/usr/bin/env python3
"""Out-of-core pipeline: shard a big edge set, solve it three ways.

The execution substrate end-to-end (DESIGN.md §8–§9):

1. generate a benchmark graph straight into a sharded on-disk store
   (vectorized arrays — no dict graph is ever built);
2. solve on the store with the semi-streaming backend, whose passes
   walk memmap shard chunks while only O(n) counters stay resident —
   the "graph bigger than RAM" mode — first rescanning every shard
   every pass, then with *pass compaction* (survivors are rewritten
   once the working set shrinks, so later passes scan geometrically
   fewer bytes — identical answer, cheaper scan);
3. solve on the store with ``core`` (per-shard CSR build, then the
   C peel tier when it loads) and with the columnar MapReduce backend on a 4-worker process pool,
   and check all of them agree.

Run:  python examples/out_of_core.py
"""

import tempfile
import time
from pathlib import Path

from repro import DensestSubgraph, ExecutionContext, solve
from repro.datasets.synthetic import write_synthetic_store


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        store = write_synthetic_store(
            "im_sim",
            Path(tmp) / "im-store",
            scale=1.0,
            num_shards=8,
            memory_budget=8 * 1024 * 1024,  # spill every 8 MiB
        )
        print(
            f"sharded store: {store.num_edges} edges over {store.num_shards} "
            f"shards ({store.nbytes() / 1e6:.1f} MB on disk, "
            f"built in {time.perf_counter() - t0:.2f}s)"
        )
        problem = DensestSubgraph(store, epsilon=0.5)

        # ---- out-of-core: O(n) state, passes over memmap chunks -------
        t0 = time.perf_counter()
        streamed = solve(problem, backend="streaming")
        print(f"streaming  : rho={streamed.density:.3f} |S|={streamed.size} "
              f"passes={streamed.cost.stream_passes} "
              f"{streamed.cost.bytes_scanned / 1e6:.0f}MB scanned "
              f"({time.perf_counter() - t0:.2f}s)")

        # ---- same engine + pass compaction: identical answer, the ----
        # ---- surviving edges are rewritten as the peel shrinks    ----
        t0 = time.perf_counter()
        compacted = solve(problem, backend="streaming", compaction=True)
        print(f"+compaction: rho={compacted.density:.3f} |S|={compacted.size} "
              f"passes={compacted.cost.stream_passes} "
              f"{compacted.cost.bytes_scanned / 1e6:.0f}MB scanned "
              f"({time.perf_counter() - t0:.2f}s)")
        assert compacted.nodes == streamed.nodes
        assert compacted.cost.bytes_scanned <= streamed.cost.bytes_scanned

        # ---- in-memory CSR built shard-by-shard (no dict graph) -------
        t0 = time.perf_counter()
        csr = solve(problem, backend="core")
        print(f"core       : rho={csr.density:.3f} |S|={csr.size} "
              f"({time.perf_counter() - t0:.2f}s)")

        # ---- columnar MapReduce on a 4-worker process pool ------------
        t0 = time.perf_counter()
        parallel = solve(
            problem,
            backend="mapreduce",
            context=ExecutionContext(workers=4),
        )
        print(f"mapreduce-4: rho={parallel.density:.3f} |S|={parallel.size} "
              f"rounds={parallel.cost.mapreduce_rounds} "
              f"({time.perf_counter() - t0:.2f}s)")

        assert streamed.nodes == csr.nodes == parallel.nodes
        print("\nall three execution models returned the identical node set")

        # A memory budget steers auto-dispatch to the O(n) engine —
        # and, for shard inputs, auto-enables pass compaction.
        budgeted = solve(problem, memory_budget=4 * store.num_nodes)
        print(f"auto under a {4 * store.num_nodes}-word budget -> "
              f"backend={budgeted.backend!r}, "
              f"{budgeted.cost.bytes_scanned / 1e6:.0f}MB scanned")


if __name__ == "__main__":
    main()
