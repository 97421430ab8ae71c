#!/usr/bin/env python3
"""Quickstart: find the densest subgraph of a graph, three ways.

Builds a small graph with an obvious dense core, then solves the same
``DensestSubgraph`` problem on three backends of ``repro.solve``:

1. ``core`` — Algorithm 1 (the paper's few-pass peeling); the
   ``engine=`` option walks the tier ladder — ``python`` (interpreted
   loops), ``numpy`` (vectorized CSR kernels), ``native`` (incremental
   bucket-queue peeler in C, loaded through ctypes when a toolchain is
   present, the numpy kernels otherwise) — all bit-identical answers,
   each tier just faster; ``engine="auto"`` picks by input size and
   ``repro-densest densest --engine native`` is the CLI spelling
   (``repro-densest backends --verbose`` shows whether the C kernels
   loaded),
2. ``greedy`` — Charikar's one-node-per-step greedy baseline,
3. ``exact-flow`` — Goldberg's exact max-flow solver,

and compares answers, densities, and pass counts.

Robustness (see DESIGN.md §12): long streaming peels survive crashes
— pass ``--checkpoint-dir DIR --checkpoint-every N`` to
``repro-densest densest`` (or set ``checkpoint_dir`` /
``checkpoint_every`` on ``ExecutionContext``) and a re-run resumes
from the last checkpoint with a bit-identical result; ``repro-densest
verify-store PATH [--repair]`` checks a sharded edge store's
per-shard checksums and quarantines damaged shards; ``--deadline S``
bounds a solve (CLI and serve) with a typed timeout instead of a
hang.

Distributed shuffle (see DESIGN.md §13): the mapreduce backend on a
process pool can spill its shuffle to disk — pass ``--workers N
--shuffle-dir DIR`` to ``repro-densest densest`` (or set ``workers`` /
``shuffle_dir`` on ``ExecutionContext``) and map tasks write
hash-partitioned run files that reduce tasks memmap, so intermediate
data never routes through the driver, with results bit-identical to
the serial run.

Run:  python examples/quickstart.py
"""

from repro import DensestSubgraph, solve
from repro.graph.generators import clique, disjoint_union, gnm_random, star


def main() -> None:
    # A 12-clique hiding in a sparse random background plus a big star.
    background = gnm_random(400, 900, seed=7)
    graph = disjoint_union([background])
    dense_core = clique(12, offset=1000)
    for u, v, w in dense_core.weighted_edges():
        graph.add_edge(u, v, w)
    hub = star(80, offset=2000)
    for u, v, w in hub.weighted_edges():
        graph.add_edge(u, v, w)

    print(f"graph: |V|={graph.num_nodes}, |E|={graph.num_edges}")
    print(f"average density rho(V) = {graph.density():.3f}")
    print()

    # --- Algorithm 1: the paper's contribution -------------------------
    for epsilon in (0.1, 0.5, 1.0):
        result = solve(DensestSubgraph(graph, epsilon=epsilon), backend="core")
        print(
            f"Algorithm 1 (eps={epsilon:<4g}): rho={result.density:.3f} "
            f"|S|={result.size:<4d} passes={result.cost.passes} "
            f"(guarantee: >= rho*/{2 * (1 + epsilon):.1f})"
        )

    # Same peel on every execution engine: identical answer, each tier
    # just runs it faster (see DESIGN.md §6 and §11).  "native" is the
    # incremental bucket-queue peeler in C; it falls back to the numpy
    # kernels when no C toolchain is available — the answer never
    # changes.
    py = solve(DensestSubgraph(graph, epsilon=0.5), backend="core", engine="python")
    vec = solve(DensestSubgraph(graph, epsilon=0.5), backend="core", engine="numpy")
    nat = solve(DensestSubgraph(graph, epsilon=0.5), backend="core", engine="native")
    from repro.kernels.native import available_backend

    print(
        f"engine parity        : python == numpy == native is "
        f"{py.nodes == vec.nodes == nat.nodes} (rho={nat.density:.3f}, "
        f"compiled backend: {available_backend() or 'none, numpy fallback'})"
    )

    # --- Baselines ------------------------------------------------------
    greedy = solve(DensestSubgraph(graph), backend="greedy")
    print(
        f"Charikar greedy      : rho={greedy.density:.3f} "
        f"|S|={greedy.size:<4d} passes={greedy.cost.passes} (one pass per node!)"
    )
    exact = solve(DensestSubgraph(graph), backend="exact-flow")
    print(f"Goldberg exact       : rho*={exact.density:.3f} |S*|={exact.size}")
    print()

    result = solve(DensestSubgraph(graph, epsilon=0.5))  # backend="auto" -> core
    found = set(result.nodes)
    planted = set(range(1000, 1012))
    print(f"planted 12-clique recovered: {planted <= found}")
    print(f"empirical approximation factor: {result.approximation_ratio(exact.density):.3f}")


if __name__ == "__main__":
    main()
