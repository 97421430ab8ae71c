"""Benchmark of the three user paths of the densest-subgraph system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

``serve-mixed``       ``POST /solve`` over HTTP on the default ``auto``
                      (core-csr) path: cold solves, then catalog hits.
``stream-outofcore``  ``repro.solve`` on a shard store under a memory
                      budget: the streaming engine with pass compaction.
``mapreduce-peel``    ``repro.solve(..., backend="mapreduce")`` on a CSR
                      snapshot: the paper's MapReduce rounds.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same loop twice, untraced and traced, then times each layer's public
calls on the workload's input, and prints the per-layer metrics with
the end-to-end metric each should move, the share of operation time
each layer accounts for, and the tracing overhead; its spans are
written to ``.perfbench-out/``.  The last line of standard output is
the result object; the exit code is non-zero when any answer was wrong
or the checkout holds no sources to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-mixed", "stream-outofcore", "mapreduce-peel")

#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics: unit and definition.
E2E = {
    "setup_s": ("s", "median time to get one run ready: inputs, stores, server, registration, CSR snapshot"),
    "first_cold_ms": ("ms", "median latency of the first operation on an input"),
    "repeat_cold_ms": ("ms", "median latency of a new epsilon on an input already solved"),
    "warm_p50_ms": ("ms", "median latency of a problem already answered"),
    "warm_p95_ms": ("ms", "p95 latency of a problem already answered"),
    "solve_p50_ms": ("ms", "median solver time per computed answer (serve: the solve_seconds the service reports)"),
    "edges_per_s": ("1/s", "input edges of every answer / timed wall time"),
    "peak_rss_mb": ("MB", "RSS high-water of the process running the system"),
    "ok_rate": ("ratio", "correct answers / operations attempted"),
}

_COLD = "first_cold_ms, repeat_cold_ms"
_WARM = "warm_p50_ms, warm_p95_ms"
#: Per-layer metrics: unit, the end-to-end metric it should move, and
#: the workload it should move it on.
LAYERS = {
    "store.write_s": ("s", "setup_s", "all"),
    "store.fingerprint_s": ("s", "setup_s", "serve-mixed"),
    "store.scan_s": ("s", "solve_p50_ms", "stream-outofcore"),
    "store.scan_mb_per_s": ("MB/s", "solve_p50_ms", "stream-outofcore"),
    "kernels.csr_build_s": ("s", _COLD, "serve-mixed (stream-outofcore: no change)"),
    "kernels.peel_ms": ("ms", _COLD, "serve-mixed"),
    "kernels.passes": ("count", _COLD, "serve-mixed"),
    "kernels.tier": ("rank", _COLD, "serve-mixed"),
    "api.solve_s": ("s", _COLD, "serve-mixed"),
    "api.dispatch_ms": ("ms", _COLD, "serve-mixed"),
    "api.encode_ms": ("ms", "repeat_cold_ms, " + _WARM, "serve-mixed"),
    "api.solution_kb": ("KB", "repeat_cold_ms, " + _WARM, "serve-mixed"),
    "serve.register_ms": ("ms", "setup_s", "serve-mixed"),
    "serve.catalog_get_ms": ("ms", "warm_p50_ms", "serve-mixed"),
    "serve.catalog_put_ms": ("ms", _COLD, "serve-mixed"),
    "serve.service_warm_ms": ("ms", _WARM, "serve-mixed"),
    "serve.http_ms": ("ms", _WARM, "serve-mixed"),
    "serve.queue_wait_ms": ("ms", _COLD, "serve-mixed"),
    "serve.job_ms": ("ms", _COLD, "serve-mixed"),
    "serve.job_overhead_ms": ("ms", _COLD, "serve-mixed"),
    "serve.cpu_s": ("s", _WARM + ", " + _COLD, "serve-mixed"),
    "streaming.passes": ("count", "solve_p50_ms", "stream-outofcore"),
    "streaming.bytes_scanned_mb": ("MB", "solve_p50_ms", "stream-outofcore"),
    "streaming.edges_streamed": ("count", "solve_p50_ms", "stream-outofcore"),
    "streaming.scan_ratio": ("ratio", "solve_p50_ms", "stream-outofcore"),
    "streaming.engine_ms": ("ms", "solve_p50_ms", "stream-outofcore"),
    "mapreduce.rounds": ("count", "solve_p50_ms", "mapreduce-peel"),
    "mapreduce.shuffle_mb": ("MB", "solve_p50_ms", "mapreduce-peel"),
    "mapreduce.shuffle_records": ("count", "solve_p50_ms", "mapreduce-peel"),
    "mapreduce.map_input_records": ("count", "solve_p50_ms", "mapreduce-peel"),
    "mapreduce.round_ms": ("ms", "solve_p50_ms", "mapreduce-peel"),
    "proc.cpu_s": ("s", "solve_p50_ms, edges_per_s", "stream-outofcore, mapreduce-peel"),
}

#: Which layers each workload exercises, and which it bypasses (where
#: a change to that layer should leave its end-to-end metrics alone).
NOTES = {
    "serve-mixed": {
        "moves": "store.write/fingerprint, kernels.*, api.*, serve.*",
        "bypasses": "store.scan, streaming.*, mapreduce.*",
    },
    "stream-outofcore": {
        "moves": "store.write/scan, streaming.*, api.dispatch, proc.cpu",
        "bypasses": "kernels.*, serve.*, mapreduce.*",
    },
    "mapreduce-peel": {
        "moves": "store.write, kernels.csr_build (set-up), mapreduce.*, api.dispatch, proc.cpu",
        "bypasses": "kernels.peel, store.scan, streaming.*, serve.*",
    },
}


@dataclass
class Context:
    root: Path  # checkout root
    work: Path  # this run's scratch directory, removed at exit
    env: Dict[str, str]  # environment of child processes


def make_context(name: str) -> Context:
    """Point every file the run writes into the checkout, then import
    the package under test from ``src/``."""
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = ROOT / build
    work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(build / "repro-native")
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return Context(ROOT, work, env)


def e2e_metrics(wl, ops, setup_times: List[float]) -> Dict[str, float]:
    from harness import median, percentile

    def latencies(cls):
        values = [op.latency_s for op in ops if op.cls == cls]
        if not values:
            raise RuntimeError(f"{wl.name}: no {cls} operations were timed")
        return values

    warm = latencies("warm")
    return {
        "setup_s": median(setup_times),
        "first_cold_ms": median(latencies("first")) * 1e3,
        "repeat_cold_ms": median(latencies("repeat")) * 1e3,
        "warm_p50_ms": median(warm) * 1e3,
        "warm_p95_ms": percentile(warm, 95) * 1e3,
        "solve_p50_ms": median([op.solve_s for op in ops if op.solve_s is not None]) * 1e3,
        "edges_per_s": sum(op.edges for op in ops) / wl.wall_s,
        "peak_rss_mb": wl.peak_rss_mb(),
        "ok_rate": sum(op.correct for op in ops) / len(ops),
    }


def timed_setup(wl, tracer) -> float:
    gc.collect()
    start = time.perf_counter()
    wl.setup(tracer)
    elapsed = time.perf_counter() - start
    os.sync()  # no write-back of the new inputs competes with what follows
    return elapsed


def run_workload(
    ctx: Context,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Optional[tuple] = None,
    corrupt_reference: bool = False,
) -> Dict[str, Any]:
    """One run; returns the result object (and prints the report)."""
    import repro.kernels
    from harness import Tracer, environment, median
    from workloads import SIZES, WORKLOADS, probe_layers

    # the one-off C-tier compile happens here, before anything is timed
    repro.kernels.native_backend()
    env = environment(ctx.root)
    print(json.dumps({"env": env}), flush=True)

    nodes, epsilons = sizes or SIZES[name]
    wl = WORKLOADS[name](ctx, seed, nodes, epsilons)
    off = Tracer(False)
    try:
        setups = [timed_setup(wl, off)]
        for _ in range(SETUPS - 1 if not trace else 0):
            wl.teardown()
            setups.append(timed_setup(wl, off))
        wl.reference()
        if corrupt_reference:
            wl.corrupt_reference()
        wl.warmup()
        ops = wl.run_ops(seconds, off)
        untraced = e2e_metrics(wl, ops, setups)
        attempted, failed = len(ops), sum(not op.correct for op in ops)
        if not trace:
            return result(attempted, failed, untraced, E2E)

        wl.teardown()
        tracer = Tracer(True)
        with tracer.span("setup"):
            traced_setup = timed_setup(wl, tracer)
        wl.warmup()
        traced_ops = wl.run_ops(seconds, tracer)
        traced = e2e_metrics(wl, traced_ops, [traced_setup])
        layers, facts = probe_layers(wl, tracer)
        cold = [op for op in traced_ops if op.solve_s is not None]
        layers["proc.cpu_s"] = (
            facts["serve"]["cold_cpu_s"] / len(cold)
            if name == "serve-mixed"
            else median([op.cpu_s for op in traced_ops])
        )
        attempted += len(traced_ops) + facts["checked"]
        failed += sum(not op.correct for op in traced_ops) + facts["failed"]
        report(name, env, layers, facts, tracer, traced_ops, wl, untraced, traced)
        out = ctx.root / ".perfbench-out" / f"trace-{name}-seed{seed}.json"
        tracer.write(out, env=env, workload=name, seed=seed, per_layer=layers)
        print(f"spans written to {out.relative_to(ctx.root)}")
        return result(attempted, failed, layers, LAYERS)
    finally:
        wl.teardown()


def result(attempted: int, failed: int, values: Dict[str, float], table) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": table[name][0]} for name in table
        },
    }


def report(name, env, layers, facts, tracer, ops, wl, untraced, traced) -> None:
    """The traced run's human-readable account."""
    total = sum(op.latency_s for op in ops)
    shares: Dict[str, float] = {}
    for op in ops:
        for layer, seconds in wl.attribute(op, facts).items():
            shares[layer] = shares.get(layer, 0.0) + seconds / total
    shares["proc"] = 1.0  # proc.cpu_s covers the whole system process

    print(f"== {name}: kernel tier {facts['tier']}, nproc {env['nproc']}, "
          f"moves {NOTES[name]['moves']}; bypasses {NOTES[name]['bypasses']}")
    print(f"{'per-layer metric':28} {'value':>14} {'unit':6} {'share':>7}  "
          "should move  (on)")
    for metric, (unit, moves, on) in LAYERS.items():
        share = 100.0 * shares.get(metric.split(".", 1)[0], 0.0)
        print(f"{metric:28} {layers[metric]:14.4f} {unit:6} {share:6.2f}%  {moves}  ({on})")

    print("layer self time and counts (all spans of this run):")
    by_layer: Dict[str, Dict[str, float]] = {}
    for span_name, row in sorted(tracer.self_times().items()):
        print(f"  {span_name:26} n={row['count']:<5} total {row['total_s']:9.4f}s"
              f"  self {row['self_s']:9.4f}s")
        layer = span_name.split(".", 1)[0]
        agg = by_layer.setdefault(layer, {"count": 0, "self_s": 0.0})
        agg["count"] += row["count"]
        agg["self_s"] += row["self_s"]
    for layer, agg in sorted(by_layer.items()):
        print(f"  layer {layer:20} n={agg['count']:<5} self {agg['self_s']:9.4f}s")

    print(f"share of {len(ops)} operations' time ({total:.3f}s), by layer "
          "(probe timings subtracted from operation latency):")
    for layer in ("store", "kernels", "api", "serve", "streaming", "mapreduce"):
        share = shares.get(layer, 0.0)
        print(f"  {layer:10} {share * total:9.4f}s  {100.0 * share:6.2f}%")

    serve = facts["serve"]
    print(f"server CPU: cold {serve['cold_cpu_s']:.2f}s over {serve['cold_wall_s']:.2f}s "
          f"wall ({100.0 * serve['cold_cpu_s'] / serve['cold_wall_s']:.0f}% busy), "
          f"warm {serve['warm_cpu_s']:.2f}s over {serve['warm_wall_s']:.2f}s wall "
          f"({100.0 * serve['warm_cpu_s'] / serve['warm_wall_s']:.0f}% busy)")

    print("tracing overhead (traced - untraced, same run):")
    for metric in E2E:
        if metric == "setup_s":
            continue
        print(f"  {metric:16} untraced {untraced[metric]:14.4f}  traced "
              f"{traced[metric]:14.4f}  diff {traced[metric] - untraced[metric]:+12.4f}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="end-to-end metrics:\n" + "\n".join(
            f"  {name} ({unit}): {what}" for name, (unit, what) in E2E.items()
        ),
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    ctx = make_context(args.workload)
    try:
        outcome = run_workload(ctx, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:  # another run's scratch directory is still there
            pass
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
