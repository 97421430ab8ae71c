"""Command-line interface.

Examples
--------
List datasets and backends::

    repro-densest datasets
    repro-densest backends

Solve a densest-subgraph problem on any backend::

    repro-densest densest --dataset flickr_sim --epsilon 0.5
    repro-densest densest --dataset flickr_sim --backend mapreduce
    repro-densest densest --dataset twitter_sim --delta 2 --backend streaming
    repro-densest densest --edge-list graph.txt --k 100 --backend core
    repro-densest densest --dataset flickr_sim --engine numpy
    repro-densest densest --edge-list graph.txt --engine native
    repro-densest densest --dataset grqc_sim --backend exact-flow

Out-of-core pipeline: convert an edge list into a sharded store, then
solve on it (or do both in one command with ``--spill-dir``)::

    repro-densest shard --edge-list big.txt.gz --output /data/big-store --shards 16
    repro-densest densest --shard-store /data/big-store --backend streaming
    repro-densest densest --edge-list big.txt --spill-dir /tmp/st --backend streaming
    repro-densest densest --shard-store /data/big-store --backend mapreduce --workers 4
    repro-densest densest --shard-store /data/big-store --backend mapreduce \
        --workers 4 --shuffle-dir /tmp/shuffle
    repro-densest densest --shard-store /data/big-store --compaction on
    repro-densest densest --shard-store /data/big-store --compaction-threshold 0.75

Robustness: checksum-audit a store, checkpoint a deep peel so an
interrupted run resumes (bit-identically) instead of restarting::

    repro-densest verify-store /data/big-store [--repair]
    repro-densest densest --shard-store /data/big-store --backend streaming \
        --k 500 --checkpoint-dir /data/ckpt --checkpoint-every 16

Serve densest-subgraph queries over HTTP with a SQLite result catalog
(see ``repro.serve`` and DESIGN.md §10)::

    repro-densest serve --port 8080 --catalog /data/catalog.sqlite \
        --workers 4 --spill-dir /data/serve

Regenerate a paper table/figure::

    repro-densest experiment table2 --scale 0.5
    repro-densest experiment all
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Union

from . import __version__
from .analysis.experiments import ALL_EXPERIMENTS
from .analysis.tables import render_table
from .api import (
    DensestAtLeastK,
    DensestSubgraph,
    DirectedDensest,
    Problem,
    Solution,
    backend_names,
    get_backend,
    solve,
)
from .datasets import info as dataset_info
from .datasets import load as dataset_load
from .datasets import names as dataset_names
from .errors import ReproError
from .graph.directed import DirectedGraph
from .graph.io import read_directed, read_undirected
from .graph.undirected import UndirectedGraph


def _add_input_args(
    parser: argparse.ArgumentParser, *, shard_store: bool = False
) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="registered dataset name")
    src.add_argument(
        "--edge-list", help="path to a SNAP-style edge list (.gz transparent)"
    )
    if shard_store:
        src.add_argument(
            "--shard-store", help="path to a sharded edge store directory"
        )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-densest",
        description="Densest subgraph in streaming and MapReduce (VLDB 2012 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="list registered datasets")
    p_datasets.add_argument("--group", choices=["evaluation", "table2"], default=None)

    p_backends = sub.add_parser("backends", help="list registered solver backends")
    p_backends.add_argument(
        "--verbose",
        action="store_true",
        help="also report the kernel tier ladder: which peel engines "
        "(python/numpy/native) are importable here, whether the C "
        "kernels behind the native tier loaded, and the input sizes at "
        "which engine=auto switches tiers",
    )

    p_solve = sub.add_parser(
        "densest",
        help="solve a densest-subgraph problem on any registered backend",
    )
    _add_input_args(p_solve, shard_store=True)
    p_solve.add_argument(
        "--backend",
        default="auto",
        help="registered backend name, or 'auto' for capability dispatch "
        "(see `repro-densest backends`)",
    )
    p_solve.add_argument(
        "--engine",
        choices=["auto", "python", "numpy", "native"],
        default="auto",
        help="execution engine for the core backend: "
        "'python' (interpreted record loops), 'numpy' (vectorized kernels), "
        "'native' (bucket-queue peel in C, degrading to numpy when no C "
        "toolchain is available), or 'auto' (pick per graph; see "
        "`repro-densest backends --verbose`); mapreduce and sketch are "
        "pinned to 'numpy'",
    )
    p_solve.add_argument("--epsilon", type=float, default=0.5)
    p_solve.add_argument(
        "--k", type=int, default=None, help="minimum subgraph size (Algorithm 2)"
    )
    p_solve.add_argument(
        "--ratio", type=float, default=None,
        help="directed only: fixed c = |S|/|T| instead of a sweep",
    )
    p_solve.add_argument(
        "--delta", type=float, default=2.0,
        help="directed only: powers-of-delta ratio grid resolution",
    )
    p_solve.add_argument(
        "--directed", action="store_true",
        help="treat an --edge-list input as directed",
    )
    p_solve.add_argument(
        "--memory-budget", type=int, default=None,
        help="between-pass budget in words for backend=auto dispatch",
    )
    p_solve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the mapreduce backend's columnar "
        "rounds (>1 selects the process-pool executor)",
    )
    p_solve.add_argument(
        "--spill-dir", default=None,
        help="convert an --edge-list input into a sharded store in this "
        "directory first, then solve on the store (out-of-core pipeline; "
        "a store already present there is reused)",
    )
    p_solve.add_argument(
        "--shards", type=int, default=8,
        help="shard count for the --spill-dir conversion",
    )
    p_solve.add_argument(
        "--shuffle-dir", default=None,
        help="mapreduce backend with --workers > 1: spill map outputs "
        "as hash-partitioned run files under this directory and let "
        "reduce workers memmap them, instead of routing intermediate "
        "data through the driver (results are identical either way)",
    )
    p_solve.add_argument(
        "--compaction",
        choices=["auto", "on", "off"],
        default="auto",
        help="pass compaction for the streaming/sketch backends: rewrite "
        "the surviving edges once a pass keeps less than the threshold "
        "fraction, so later passes scan geometrically fewer bytes "
        "('auto' enables it for shard-store inputs solved under a "
        "memory budget or spill dir; results are identical either way)",
    )
    p_solve.add_argument(
        "--compaction-threshold", type=float, default=None,
        help="surviving-edge fraction that triggers a compaction rewrite "
        "(default 0.5; implies the streaming backend when --backend auto)",
    )
    p_solve.add_argument(
        "--checkpoint-dir", default=None,
        help="persist the peel's between-pass state into this directory "
        "and resume from it on a rerun (streaming backend; an "
        "interrupted deep peel restarts from its last checkpoint "
        "instead of pass 0, with bit-identical results)",
    )
    p_solve.add_argument(
        "--checkpoint-every", type=int, default=16,
        help="checkpoint interval in passes (with --checkpoint-dir)",
    )
    p_solve.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget in seconds; an overrunning streaming "
        "solve stops at the next pass boundary with a timeout error",
    )
    p_solve.add_argument("--show-nodes", type=int, default=0, help="print up to N member nodes")

    p_enum = sub.add_parser(
        "enumerate", help="enumerate node-disjoint dense subgraphs (Section 6 remark)"
    )
    _add_input_args(p_enum)
    p_enum.add_argument("--epsilon", type=float, default=0.3)
    p_enum.add_argument("--max-subgraphs", type=int, default=5)
    p_enum.add_argument("--min-density", type=float, default=1.0)

    p_shard = sub.add_parser(
        "shard",
        help="convert an edge list into a sharded out-of-core store",
    )
    p_shard.add_argument(
        "--edge-list", required=True,
        help="path to a SNAP-style edge list (.gz transparent)",
    )
    p_shard.add_argument(
        "--output", required=True, help="target store directory"
    )
    p_shard.add_argument("--shards", type=int, default=8, help="number of shards")
    p_shard.add_argument(
        "--directed", action="store_true", help="treat the edges as directed"
    )
    p_shard.add_argument(
        "--num-nodes", type=int, default=None,
        help="declare the node universe [0, N) explicitly (default: max id + 1)",
    )
    p_shard.add_argument(
        "--memory-budget-mb", type=int, default=64,
        help="writer spill budget in MiB",
    )

    p_verify = sub.add_parser(
        "verify-store",
        help="checksum-verify a sharded edge store (and optionally "
        "quarantine corrupt shards)",
    )
    p_verify.add_argument("store", help="path to a sharded store directory")
    p_verify.add_argument(
        "--repair", action="store_true",
        help="move corrupt shards into <store>/quarantine/ and mark them "
        "in the manifest, so intact shards stay readable and corrupt "
        "ones fail with a typed error instead of bad data",
    )
    p_verify.add_argument(
        "--shallow", action="store_true",
        help="structural checks only (file presence and sizes); skip the "
        "full checksum pass over shard payloads",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the densest-subgraph HTTP service (see repro.serve)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--catalog", default="catalog.sqlite",
        help="SQLite result-catalog path (created on first run)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="solver threads in the job pool"
    )
    p_serve.add_argument(
        "--spill-dir", default=None,
        help="directory for stores built from registered edge lists",
    )
    p_serve.add_argument(
        "--shards", type=int, default=8,
        help="shard count for stores built from registered edge lists",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64,
        help="waiting-job limit before /solve answers 429",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-job wall-clock budget in seconds; an overrunning solve "
        "fails with a timeout instead of holding a worker forever",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    overload = p_serve.add_argument_group(
        "overload control",
        "admission + degradation knobs (DESIGN.md §14); all default off",
    )
    overload.add_argument(
        "--client-rate", type=float, default=None,
        help="per-client cold-request rate limit (requests/second)",
    )
    overload.add_argument(
        "--client-burst", type=int, default=10,
        help="token-bucket burst capacity per client",
    )
    overload.add_argument(
        "--max-cost-edges", type=int, default=None,
        help="shed any solve over a dataset with more manifest edges",
    )
    overload.add_argument(
        "--admit-budget-edges", type=int, default=None,
        help="global budget on outstanding admitted solve cost (edges); "
        "past it, requests enter the degradation ladder",
    )
    overload.add_argument(
        "--degrade-at", type=float, default=None,
        help="queue fraction (waiting/capacity) at which the degradation "
        "ladder arms (e.g. 0.5)",
    )
    overload.add_argument(
        "--edges-per-second", type=float, default=None,
        help="cost model for deadline affordability: degrade when "
        "edges/this exceeds the request deadline",
    )
    overload.add_argument(
        "--degrade-epsilon", type=float, default=1.0,
        help="coarsened epsilon a degraded ladder solve runs at",
    )
    overload.add_argument(
        "--no-stale", action="store_true",
        help="never serve stale cached answers from the ladder",
    )
    overload.add_argument(
        "--retry-after-base", type=float, default=1.0,
        help="seconds per queued-or-running job when deriving Retry-After",
    )
    overload.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive catalog errors that open the circuit breaker "
        "(0 disables the breaker)",
    )
    overload.add_argument(
        "--breaker-reset", type=float, default=30.0,
        help="seconds an open breaker waits before a half-open probe",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "name",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="experiment id (or 'all')",
    )
    p_exp.add_argument("--scale", type=float, default=None, help="override the experiment's default scale")
    return parser


def _load_any(args) -> Union[UndirectedGraph, DirectedGraph]:
    """Load the input, undirected/directed/sharded as the source dictates.

    ``--shard-store`` opens an on-disk store as the problem input
    directly.  ``--edge-list`` with ``--spill-dir`` converts the list
    into a store first (one streaming pass under the writer's memory
    budget) and solves on that — the CLI's out-of-core pipeline.  When
    the run is headed for a kernel tier anyway (``--engine numpy`` or
    ``--engine native``), an ``--edge-list`` input is read straight
    into NumPy arrays and a CSR snapshot — no per-edge dict inserts at
    all (``duplicates="first"`` matches the dedup semantics of the SNAP
    readers).
    """
    directed = getattr(args, "directed", False)
    if getattr(args, "shard_store", None):
        from .store import ShardedEdgeStore

        return ShardedEdgeStore.open(args.shard_store)
    if args.dataset:
        return dataset_load(args.dataset, scale=args.scale, seed=args.seed)
    if getattr(args, "spill_dir", None):
        from .store import ShardedEdgeStore, write_edge_list_store
        from .store.shards import MANIFEST_NAME
        from pathlib import Path

        # Re-running the same command reuses the converted store.
        if (Path(args.spill_dir) / MANIFEST_NAME).exists():
            return ShardedEdgeStore.open(args.spill_dir)
        return write_edge_list_store(
            args.edge_list,
            args.spill_dir,
            directed=directed,
            num_shards=args.shards,
        )
    if getattr(args, "engine", "auto") in ("numpy", "native"):
        from .graph.io import read_edge_arrays
        from .kernels import CSRDigraph, CSRGraph

        src, dst, weights = read_edge_arrays(args.edge_list)
        cls = CSRDigraph if directed else CSRGraph
        return cls.from_edge_arrays(src, dst, weights, duplicates="first")
    if directed:
        return read_directed(args.edge_list)
    return read_undirected(args.edge_list)


def _load_undirected(args) -> UndirectedGraph:
    if args.dataset:
        graph = dataset_load(args.dataset, scale=args.scale, seed=args.seed)
        if not isinstance(graph, UndirectedGraph):
            raise ReproError(f"dataset {args.dataset!r} is directed; use densest")
        return graph
    return read_undirected(args.edge_list)


def _cmd_datasets(args) -> int:
    rows = []
    for name in dataset_names(args.group):
        meta = dataset_info(name)
        rows.append([name, meta.kind, meta.group, meta.stands_in_for, meta.description])
    print(render_table(["name", "type", "group", "stands in for", "description"], rows))
    return 0


def _cmd_backends(args) -> int:
    rows = []
    for name in backend_names():
        caps = get_backend(name).capabilities()
        rows.append(
            [
                name,
                ", ".join(sorted(caps.problems)),
                ", ".join(sorted(caps.input_modes)),
                "exact" if caps.exact else "approx",
                caps.memory_class,
                caps.semantics,
                ", ".join(caps.engines),
            ]
        )
    print(
        render_table(
            [
                "backend",
                "problems",
                "inputs",
                "quality",
                "memory",
                "semantics",
                "engines",
            ],
            rows,
        )
    )
    if getattr(args, "verbose", False):
        from .kernels import tier_report

        report = tier_report()
        print()
        print("kernel tiers (peel engines importable in this environment):")
        for tier in ("python", "numpy", "native"):
            status = "yes" if report[tier] else "no"
            if tier == "native" and report[tier]:
                status = f"yes ({report['native_backend']} backend)"
            print(f"  {tier:<8} {status}")
        ladder = report["auto_ladder"]
        print("engine=auto ladder (CSR/int-labeled graphs, by node count):")
        print(
            f"  n >= {ladder['native_cutoff']}: native"
            "  (when a compiled backend is importable)"
        )
        print("  otherwise: numpy")
    return 0


def _is_directed_input(graph) -> bool:
    from .kernels import CSRDigraph
    from .store import ShardedEdgeStore

    if isinstance(graph, DirectedGraph):
        return True
    if isinstance(graph, ShardedEdgeStore):
        return graph.directed
    return isinstance(graph, CSRDigraph)


def _problem_from_args(args, graph) -> Problem:
    """Build the Problem a `densest` invocation describes."""
    if _is_directed_input(graph):
        if args.k is not None:
            raise ReproError("--k applies to undirected inputs only")
        return DirectedDensest(
            graph, ratio=args.ratio, delta=args.delta, epsilon=args.epsilon
        )
    if args.ratio is not None:
        raise ReproError("--ratio applies to directed inputs only")
    if args.k is not None:
        return DensestAtLeastK(graph, k=args.k, epsilon=args.epsilon)
    return DensestSubgraph(graph, epsilon=args.epsilon)


def _print_solution(solution: Solution, show_nodes: int = 0) -> None:
    print(f"  backend : {solution.backend}{' (exact)' if solution.exact else ''}")
    print(f"  density : {solution.density:.4f}")
    if solution.s_nodes is not None:
        print(f"  |S|, |T|: {len(solution.s_nodes)}, {len(solution.t_nodes)}")
        if solution.ratio is not None:
            print(f"  ratio c : {solution.ratio:g}")
    else:
        print(f"  size    : {solution.size}")
    cost = solution.cost
    if cost.passes is not None:
        print(f"  passes  : {cost.passes}")
    if cost.stream_passes is not None:
        suffix = ""
        if cost.bytes_scanned is not None:
            suffix = f", {cost.bytes_scanned / 1e6:.1f} MB scanned"
        print(
            f"  stream  : {cost.stream_passes} passes, "
            f"{cost.edges_streamed} edges{suffix}"
        )
    if cost.mapreduce_rounds is not None:
        print(f"  rounds  : {cost.mapreduce_rounds} MapReduce rounds")
    if show_nodes:
        sample = sorted(solution.nodes, key=repr)[:show_nodes]
        suffix = " ..." if solution.size > show_nodes else ""
        print(f"  nodes   : {sample}{suffix}")


def _cmd_densest(args) -> int:
    graph = _load_any(args)
    problem = _problem_from_args(args, graph)
    # Registered name, so the option checks below see aliases resolved.
    backend = args.backend if args.backend == "auto" else get_backend(args.backend).name
    options = {}
    if args.engine != "auto":
        if backend == "auto":
            backend = "core"  # --engine names a core execution engine
        if backend not in ("core", "mapreduce", "sketch"):
            raise ReproError(
                f"--engine applies to the core/mapreduce/sketch backends, "
                f"not {backend!r}"
            )
        if backend == "core":
            options["engine"] = args.engine
        elif args.engine != "numpy":
            raise ReproError(f"backend {backend!r} is pinned to the numpy engine")
    if args.compaction != "auto" or args.compaction_threshold is not None:
        if backend == "auto":
            backend = "streaming"  # compaction names the streaming engine
        if backend not in ("streaming", "sketch"):
            raise ReproError(
                f"--compaction applies to the streaming/sketch backends, "
                f"not {backend!r}"
            )
        if args.compaction != "auto":
            options["compaction"] = args.compaction == "on"
        else:
            # An explicit threshold is a request to compact — on any
            # input, not just the shard-store auto-enable shape.
            options["compaction"] = True
    if args.shuffle_dir:
        if backend == "auto":
            backend = "mapreduce"  # --shuffle-dir names the mapreduce backend
        if backend != "mapreduce":
            raise ReproError(
                f"--shuffle-dir applies to the mapreduce backend, "
                f"not {backend!r}"
            )
    if (
        args.workers > 1
        or args.spill_dir
        or args.shuffle_dir
        or args.compaction_threshold is not None
        or args.checkpoint_dir
        or args.deadline is not None
    ):
        from .api import ExecutionContext

        options["context"] = ExecutionContext(
            workers=args.workers,
            memory_budget=args.memory_budget,
            spill_dir=args.spill_dir,
            shard_count=args.shards,
            shuffle_dir=args.shuffle_dir,
            compaction_threshold=args.compaction_threshold,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            deadline_seconds=args.deadline,
        )
    solution = solve(
        problem, backend=backend, memory_budget=args.memory_budget, **options
    )
    kind = {
        "densest_subgraph": "densest subgraph",
        "densest_at_least_k": f"densest subgraph (k>={getattr(problem, 'k', 0)})",
        "directed_densest": "directed densest subgraph",
    }[problem.kind]
    print(
        f"{kind} on |V|={graph.num_nodes}, |E|={graph.num_edges}, "
        f"eps={args.epsilon:g}"
    )
    _print_solution(solution, args.show_nodes)
    return 0


def _cmd_enumerate(args) -> int:
    from .core.enumerate_ import enumerate_dense_subgraphs

    graph = _load_undirected(args)
    print(
        f"enumerating dense subgraphs of |V|={graph.num_nodes}, "
        f"|E|={graph.num_edges} (eps={args.epsilon:g})"
    )
    for i, result in enumerate(
        enumerate_dense_subgraphs(
            graph,
            args.epsilon,
            max_subgraphs=args.max_subgraphs,
            min_density=args.min_density,
        ),
        start=1,
    ):
        print(
            f"  #{i}: rho={result.density:.3f} |S|={result.size} "
            f"passes={result.passes}"
        )
    return 0


def _cmd_shard(args) -> int:
    from .store import write_edge_list_store

    store = write_edge_list_store(
        args.edge_list,
        args.output,
        directed=args.directed,
        num_shards=args.shards,
        num_nodes=args.num_nodes,
        memory_budget=args.memory_budget_mb * 1024 * 1024,
    )
    print(f"sharded {args.edge_list} -> {args.output}")
    print(f"  nodes   : {store.num_nodes}")
    print(f"  edges   : {store.num_edges}")
    print(f"  shards  : {store.num_shards}")
    print(f"  payload : {store.nbytes() / 1024 / 1024:.1f} MiB")
    print(f"  kind    : {'directed' if store.directed else 'undirected'}"
          f"{', weighted' if store.weighted else ''}")
    return 0


def _cmd_verify_store(args) -> int:
    from .store import ShardedEdgeStore

    store = ShardedEdgeStore.open(args.store)
    deep = not args.shallow
    report = store.verify(deep=deep)
    mode = "deep (checksums)" if deep else "shallow (structure only)"
    print(f"verify {store.path} [{mode}]")
    print(f"  shards  : {report.shards}")
    if report.ok:
        print("  status  : OK")
        return 0
    for shard, problem in report.problems:
        print(f"  BAD shard {shard}: {problem}")
    if args.repair:
        store.repair(deep=deep)
        bad = [shard for shard, _ in report.problems]
        print(f"  repaired: quarantined shards {bad} -> "
              f"{store.path}/quarantine/")
        return 0
    print("  status  : CORRUPT (rerun with --repair to quarantine)")
    return 1


def _cmd_serve(args) -> int:
    from .serve import run_server

    run_server(
        host=args.host,
        port=args.port,
        catalog_path=args.catalog,
        workers=args.workers,
        spill_dir=args.spill_dir,
        shard_count=args.shards,
        max_queue=args.max_queue,
        deadline_seconds=args.deadline,
        verbose=args.verbose,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        max_cost_edges=args.max_cost_edges,
        admit_budget_edges=args.admit_budget_edges,
        degrade_at=args.degrade_at,
        edges_per_second=args.edges_per_second,
        degrade_epsilon=args.degrade_epsilon,
        stale_ok=not args.no_stale,
        retry_after_base=args.retry_after_base,
        breaker_threshold=args.breaker_threshold or None,
        breaker_reset_seconds=args.breaker_reset,
    )
    return 0


def _cmd_experiment(args) -> int:
    names = sorted(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        driver = ALL_EXPERIMENTS[name]
        output = driver(scale=args.scale) if args.scale is not None else driver()
        print(output.render())
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "backends": _cmd_backends,
        "densest": _cmd_densest,
        "enumerate": _cmd_enumerate,
        "shard": _cmd_shard,
        "verify-store": _cmd_verify_store,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
