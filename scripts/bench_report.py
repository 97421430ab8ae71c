#!/usr/bin/env python3
"""Benchmark trajectory harness: python vs numpy execution engines.

Three suites, selected with ``--suite``:

* ``core`` (default) times the same peeling workloads as
  ``benchmarks/test_perf_core.py`` (the flickr_sim / livejournal_sim
  fixtures at their benchmark scales) on both core execution engines
  and writes ``BENCH_core.json``.
* ``mapreduce`` times the §5.2 MapReduce drivers on the Figure 6.7
  peeling fixtures (im_sim undirected, twitter_sim directed) on the
  columnar runtime, from resident CSR snapshots, and writes
  ``BENCH_mapreduce.json`` (no speedup field: the runtime has one
  engine).
* ``exec`` times the execution substrate and writes ``BENCH_exec.json``:
  the columnar MapReduce runtime serial vs on a warm 4-worker process
  pool (Fig 6.7-scale im_sim fixture, array-native) with both shuffle
  transports — driver-shuffle (intermediate partitions pickle through
  the driver) and file-shuffle (map tasks spill run files, reducers
  memmap them) — after asserting every transport returns the serial
  run's exact answer, a driver-RSS probe comparing the two shuffle
  transports in fresh child processes, and an out-of-core probe — a
  subprocess solving a sharded store with the semi-streaming backend
  while its peak RSS is compared against the store's edge-array size.
  ``--min-speedup`` gates the ``mr_columnar_peel`` file-shuffle row.
  The report records ``cpu_count``; on a single-core box the process
  rows measure pure executor overhead (no parallel speedup is
  physically possible there).
* ``streaming`` times pass compaction and writes ``BENCH_stream.json``:
  the semi-streaming engine over a large synthetic sharded store (a
  nested-core deep-peel graph, ≈18M edges at full scale), full-rescan
  vs compacted, at eps ∈ {0.1, 0.5}.  Each run executes in a fresh subprocess so its
  peak RSS is its own; rows record wall time, bytes/edges scanned,
  stream passes, and peak RSS vs store size.  Compacted rows carry
  ``speedup`` (wall) and ``bytes_ratio`` (full bytes / compacted
  bytes); ``--min-bytes-ratio`` gates on the latter, ``--min-speedup``
  on the former.  The driver asserts the two runs returned identical
  densities and set sizes — a corrupted rewrite fails the bench, not
  just the gate.  Interpretation caveat: on a machine whose page cache
  holds the whole store (any box with RAM >> store), the full-rescan
  baseline never touches disk after pass 1, so the wall ratio
  understates the out-of-core gap — it converges to the CPU-side scan
  ratio (~1.7x here) while ``bytes_ratio`` (3–5x) is the
  hardware-independent measure and what the wall ratio approaches when
  rescans are genuinely disk-bound.  Gate CI on bytes, not wall.
* ``kernels`` times the kernel tier ladder and writes
  ``BENCH_kernels.json``: numpy vs native (C) peels on
  the BENCH_core fixtures and on the ≈18M-edge nested-core store
  (CSR-loaded; wall-clock, not a bytes proxy), plus one
  semi-streaming degree pass over that store, C chunk scan vs its
  numpy fallback, with every node alive (``stream_scan``) and with
  ~45% of the edges alive and a compaction sink open
  (``stream_scan_sink``; bit-exact counters and survivors).  The
  driver asserts cross-tier result parity before recording any row;
  ``--min-speedup`` gates the native rows on the core fixtures.
* ``faults`` prices the robustness machinery and writes
  ``BENCH_faults.json``: semi-streaming peels over a nested-core
  sharded store, clean vs checkpointed at ``--checkpoint-every 16``
  (the default interval), plus a crash-at-pass-p + resume run.  The
  driver asserts the checkpointed and resumed runs return results
  *identical* to the clean run (nodes, density, passes) and gates
  in-driver on checkpoint overhead <= 10% wall at interval 16; the
  injected fault plan's log is written to ``BENCH_faults_plan.json``
  for artifact upload.
* ``serve`` load-tests the HTTP serving layer end to end and writes
  ``BENCH_serve.json``: an in-process server over the ≈18M-edge
  nested-core store, cold ``POST /solve`` misses vs concurrent warm
  catalog hits (p50/p99/QPS), asserting every warm payload is
  byte-identical to its cold counterpart.  ``--min-speedup`` gates
  the warm-hit p50 speedup over the cold p50.
* ``chaos`` soaks the serving layer under overload *and* injected
  faults (DESIGN.md §14) and writes ``BENCH_chaos.json`` (fault log:
  ``BENCH_chaos_plan.json``): four concurrent clients — warm hammering
  one key, cold distinct keys (some with unaffordable deadlines),
  oversized requests, and a cancel loop — against a server armed with
  solver delays, a catalog-corruption streak (which must trip the
  circuit breaker), and a SIGKILLed MapReduce worker.  In-driver
  gates: goodput positive, p99 time-to-answer of admitted requests
  bounded, every shed carries ``Retry-After``, every degraded/stale
  answer is labeled, and every *unlabeled* 200 is byte-identical to a
  clean offline solve of the same problem.

Every report is machine-readable so successive PRs can track the
trajectory of the hot paths instead of eyeballing pytest-benchmark
tables, and records the ``cpu_count`` and ``environment`` (Python and
numpy versions, machine, kernel tier) it was measured on.

Methodology
-----------
* ``engine=python`` rows time the full reference run from the
  dict-of-dict graph — the compact-adjacency build is part of that
  engine and is paid on every solve.
* ``engine=numpy`` rows time the run from a resident
  :class:`~repro.kernels.csr.CSRGraph`/``CSRDigraph`` snapshot — the
  deployment shape of the vectorized engines (the snapshot is built
  once per dataset and reused across solves/sweeps; the CLI's
  ``--edge-list`` path even builds it without a dict detour).  The
  snapshot build itself is reported as separate ``csr_build_*`` rows
  so the amortized cost stays visible.
* ``speedup`` on a numpy row is python-median / numpy-median of the
  same bench.

Run::

    PYTHONPATH=src python scripts/bench_report.py            # full scales
    PYTHONPATH=src python scripts/bench_report.py --quick    # CI smoke
    PYTHONPATH=src python scripts/bench_report.py --min-speedup 5
    PYTHONPATH=src python scripts/bench_report.py --suite mapreduce
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _bench_pair(records, name, fixture, py_fn, np_fn, repeats):
    py = _median_seconds(py_fn, repeats)
    np_ = _median_seconds(np_fn, repeats)
    records.append(
        {"bench": name, "fixture": fixture, "engine": "python", "median_seconds": py}
    )
    records.append(
        {
            "bench": name,
            "fixture": fixture,
            "engine": "numpy",
            "median_seconds": np_,
            "speedup": py / np_ if np_ > 0 else None,
        }
    )
    print(f"{name:28s} python {py * 1e3:9.3f} ms   numpy {np_ * 1e3:9.3f} ms   "
          f"x{py / np_:6.2f}")


def _bench_single(records, name, fixture, fn, repeats):
    seconds = _median_seconds(fn, repeats)
    records.append(
        {
            "bench": name,
            "fixture": fixture,
            "engine": "numpy",
            "median_seconds": seconds,
        }
    )
    print(f"{name:28s} {'':7s}{'':13s}   numpy {seconds * 1e3:9.3f} ms")


def run_benches(scale_factor: float, repeats: int):
    """Time every bench pair; returns the record list."""
    from repro.core.atleast_k import densest_subgraph_atleast_k
    from repro.core.directed import densest_subgraph_directed, ratio_sweep
    from repro.core.undirected import densest_subgraph
    from repro.datasets import load
    from repro.kernels import CSRDigraph, CSRGraph

    records: list = []

    # Same fixtures/scales as benchmarks/test_perf_core.py, optionally
    # reduced for the CI smoke run.
    flickr = load("flickr_sim", scale=0.25 * scale_factor)
    lj = load("livejournal_sim", scale=0.2 * scale_factor)
    flickr_name = f"flickr_sim@{0.25 * scale_factor:g}"
    lj_name = f"livejournal_sim@{0.2 * scale_factor:g}"

    _bench_single(
        records,
        "csr_build_undirected",
        flickr_name,
        lambda: CSRGraph.from_undirected(flickr),
        repeats,
    )
    _bench_single(
        records,
        "csr_build_directed",
        lj_name,
        lambda: CSRDigraph.from_directed(lj),
        repeats,
    )

    flickr_csr = CSRGraph.from_undirected(flickr)
    lj_csr = CSRDigraph.from_directed(lj)

    _bench_pair(
        records,
        "undirected_peel_eps05",
        flickr_name,
        lambda: densest_subgraph(flickr, 0.5, engine="python"),
        lambda: densest_subgraph(flickr_csr, 0.5, engine="numpy"),
        repeats,
    )
    _bench_pair(
        records,
        "undirected_peel_eps2",
        flickr_name,
        lambda: densest_subgraph(flickr, 2.0, engine="python"),
        lambda: densest_subgraph(flickr_csr, 2.0, engine="numpy"),
        repeats,
    )
    k = max(2, flickr.num_nodes // 10)
    _bench_pair(
        records,
        "atleastk_peel",
        flickr_name,
        lambda: densest_subgraph_atleast_k(flickr, k, 0.5, engine="python"),
        lambda: densest_subgraph_atleast_k(flickr_csr, k, 0.5, engine="numpy"),
        repeats,
    )
    _bench_pair(
        records,
        "directed_peel",
        lj_name,
        lambda: densest_subgraph_directed(lj, ratio=1.0, epsilon=1.0, engine="python"),
        lambda: densest_subgraph_directed(
            lj_csr, ratio=1.0, epsilon=1.0, engine="numpy"
        ),
        repeats,
    )
    sweep_ratios = [0.25, 0.5, 1.0, 2.0, 4.0]
    _bench_pair(
        records,
        "directed_c_sweep",
        lj_name,
        lambda: ratio_sweep(lj, 1.0, ratios=sweep_ratios, engine="python"),
        lambda: ratio_sweep(lj_csr, 1.0, ratios=sweep_ratios, engine="numpy"),
        repeats,
    )
    return records


def run_mapreduce_benches(scale_factor: float, repeats: int):
    """Time the MapReduce drivers on the columnar runtime."""
    from repro.datasets import load
    from repro.kernels import CSRDigraph, CSRGraph
    from repro.mapreduce.densest import (
        mr_densest_subgraph,
        mr_densest_subgraph_directed,
    )
    from repro.mapreduce.runtime import MapReduceRuntime

    records: list = []

    # The Figure 6.7 fixture (im_sim) plus the directed Figure 6.6
    # fixture (twitter_sim), at the reduced scales the report has
    # always used, so its rows stay comparable across commits.
    im = load("im_sim", scale=0.2 * scale_factor)
    tw = load("twitter_sim", scale=0.15 * scale_factor)
    im_name = f"im_sim@{0.2 * scale_factor:g}"
    tw_name = f"twitter_sim@{0.15 * scale_factor:g}"

    _bench_single(
        records,
        "csr_build_undirected",
        im_name,
        lambda: CSRGraph.from_undirected(im),
        repeats,
    )
    _bench_single(
        records,
        "csr_build_directed",
        tw_name,
        lambda: CSRDigraph.from_directed(tw),
        repeats,
    )

    im_csr = CSRGraph.from_undirected(im)
    tw_csr = CSRDigraph.from_directed(tw)

    def _runtime():
        return MapReduceRuntime(num_mappers=8, num_reducers=8, seed=1)

    for eps, bench in ((0.0, "mr_peel_eps0"), (1.0, "mr_peel_eps1")):
        _bench_single(
            records,
            bench,
            im_name,
            lambda eps=eps: mr_densest_subgraph(im_csr, eps, runtime=_runtime()),
            repeats,
        )
    _bench_single(
        records,
        "mr_directed_peel",
        tw_name,
        lambda: mr_densest_subgraph_directed(
            tw_csr, ratio=1.0, epsilon=1.0, runtime=_runtime()
        ),
        repeats,
    )
    return records


def _vm_peak_bytes() -> int:
    """Peak resident set of this process, in bytes (Linux VmHWM)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _oocore_child(store_path: str, epsilon: float) -> dict:
    """Out-of-core probe body, run in a fresh worker process.

    Imports numpy/repro (that baseline is part of the honest peak),
    then solves the store with the semi-streaming engine; only the
    O(n) counters plus one memmap shard chunk should ever be resident.
    """
    from repro.streaming.engine import stream_densest_subgraph
    from repro.streaming.stream import ShardEdgeStream

    baseline = _vm_peak_bytes()
    stream = ShardEdgeStream(store_path)
    result = stream_densest_subgraph(stream, epsilon)
    return {
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": _vm_peak_bytes(),
        "density": result.density,
        "passes": result.passes,
    }


def _exec_driver_rss_child(scale: float, shuffle: bool) -> dict:
    """Driver-RSS probe body, run in a fresh worker process.

    Runs one process-pool peel with either shuffle transport and
    reports this (driver) process's peak RSS: with the driver shuffle,
    every round's intermediate partitions pickle through here; with the
    file shuffle only run manifests do, so the driver's high-water mark
    stops tracking the shuffle volume.
    """
    import multiprocessing
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.datasets.synthetic import synthetic_edge_arrays
    from repro.kernels import CSRGraph
    from repro.mapreduce.densest import mr_densest_subgraph
    from repro.mapreduce.runtime import MapReduceRuntime

    src, dst, n, _ = synthetic_edge_arrays("im_sim", scale=scale)
    csr = CSRGraph.from_edge_arrays(src, dst, num_nodes=n)
    del src, dst
    baseline = _vm_peak_bytes()
    with tempfile.TemporaryDirectory() as tmp, ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        runtime = MapReduceRuntime(
            num_mappers=8, num_reducers=8, seed=1,
            executor="process", pool=pool,
            shuffle_dir=tmp if shuffle else None,
        )
        report = mr_densest_subgraph(csr, 0.5, runtime=runtime)
    return {
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": _vm_peak_bytes(),
        "shuffle_bytes": sum(
            c.shuffle_bytes for rounds in report.rounds_per_pass for c in rounds
        ),
    }


def run_exec_benches(scale_factor: float, repeats: int):
    """Time the execution substrate: process pool + shuffle + out-of-core."""
    import multiprocessing
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.datasets.synthetic import synthetic_edge_arrays
    from repro.kernels import CSRGraph
    from repro.mapreduce.densest import mr_densest_subgraph
    from repro.mapreduce.runtime import MapReduceRuntime
    from repro.store import ShardedEdgeStore

    records: list = []
    workers = 4

    # Fig 6.7 fixture, array-native, scaled up so each columnar round
    # carries enough work for the pool to amortize its IPC.
    scale = 4.0 * scale_factor
    src, dst, n, _ = synthetic_edge_arrays("im_sim", scale=scale)
    csr = CSRGraph.from_edge_arrays(src, dst, num_nodes=n)
    fixture = f"im_sim_arrays@{scale:g}"
    print(f"fixture {fixture}: n={n}, m={src.size}, cpu_count={os.cpu_count()}")

    def _assert_same(ref, got, label):
        assert got.result.nodes == ref.result.nodes, label
        assert got.result.density == ref.result.density, label
        assert got.result.trace == ref.result.trace, label

    with tempfile.TemporaryDirectory() as shuffle_root, ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        # Warm the pool (spawn + first imports) outside the timings.
        pool.submit(_vm_peak_bytes).result()

        def peel(executor="serial", shuffle=False):
            kwargs = {}
            if executor == "process":
                kwargs = {"executor": "process", "pool": pool}
                if shuffle:
                    kwargs["shuffle_dir"] = shuffle_root
            runtime = MapReduceRuntime(
                num_mappers=8, num_reducers=8, seed=1, **kwargs
            )
            return mr_densest_subgraph(csr, 0.5, runtime=runtime)

        # Parity gates first: every transport must return the serial
        # run's exact answer before any timing row is recorded.
        ref = peel()
        _assert_same(ref, peel("process"), "driver-shuffle")
        _assert_same(ref, peel("process", shuffle=True), "file-shuffle")

        serial_s = _median_seconds(lambda: peel(), repeats)
        process_s = _median_seconds(lambda: peel("process"), repeats)
        file_s = _median_seconds(
            lambda: peel("process", shuffle=True), repeats
        )

    records.append(
        {
            "bench": "mr_columnar_peel",
            "fixture": fixture,
            "engine": "serial",
            "median_seconds": serial_s,
        }
    )
    records.append(
        {
            "bench": "mr_columnar_peel",
            "fixture": fixture,
            "engine": f"process-{workers}w-driver-shuffle",
            "median_seconds": process_s,
            "speedup": serial_s / process_s if process_s > 0 else None,
        }
    )
    records.append(
        {
            "bench": "mr_columnar_peel",
            "fixture": fixture,
            "engine": f"process-{workers}w-file-shuffle",
            "median_seconds": file_s,
            "speedup": serial_s / file_s if file_s > 0 else None,
        }
    )
    print(f"{'mr_columnar_peel':28s} serial {serial_s * 1e3:9.3f} ms   "
          f"driver-shuffle {process_s * 1e3:9.3f} ms (x{serial_s / process_s:5.2f})   "
          f"file-shuffle {file_s * 1e3:9.3f} ms (x{serial_s / file_s:5.2f})")

    # Driver-RSS probe: the same process peel in fresh children,
    # one per shuffle transport — with the file shuffle the driver's
    # high-water mark must stop tracking the shuffle volume (reported,
    # not gated: at quick scales the fixture dominates both peaks).
    for shuffle, engine in ((False, "driver-shuffle"), (True, "file-shuffle")):
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as probe_pool:
            probe = probe_pool.submit(
                _exec_driver_rss_child, scale, shuffle
            ).result()
        records.append(
            {
                "bench": "mr_driver_rss",
                "fixture": fixture,
                "engine": engine,
                "baseline_rss_bytes": probe["baseline_rss_bytes"],
                "peak_rss_bytes": probe["peak_rss_bytes"],
                "shuffle_bytes": probe["shuffle_bytes"],
            }
        )
        print(f"{'mr_driver_rss':28s} {engine:16s} "
              f"baseline {probe['baseline_rss_bytes'] / 1e6:8.1f} MB   "
              f"peak {probe['peak_rss_bytes'] / 1e6:8.1f} MB   "
              f"shuffled {probe['shuffle_bytes'] / 1e6:8.1f} MB")

    # Out-of-core probe: a store larger than the solving process's peak
    # RSS (at full scale), solved by a fresh child so the measured
    # high-water mark belongs to that one run.
    oo_n = int(1_000_000 * scale_factor)
    oo_deg = 40.0
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "oocore")
        from repro.datasets.synthetic import chung_lu_edge_arrays

        osrc, odst = chung_lu_edge_arrays(
            oo_n, exponent=2.2, average_degree=oo_deg, seed=42
        )
        store = ShardedEdgeStore.write(
            store_path, (osrc, odst), directed=False,
            num_shards=16, num_nodes=oo_n,
        )
        del osrc, odst
        store_bytes = store.nbytes()
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            t0 = time.perf_counter()
            probe = pool.submit(_oocore_child, store_path, 1.0).result()
            elapsed = time.perf_counter() - t0
    bounded = probe["peak_rss_bytes"] < store_bytes
    records.append(
        {
            "bench": "oocore_stream_peel",
            "fixture": f"chung_lu_arrays@n={oo_n}",
            "engine": "streaming-shards",
            "median_seconds": elapsed,
            "store_bytes": store_bytes,
            "edges": store.num_edges,
            "baseline_rss_bytes": probe["baseline_rss_bytes"],
            "peak_rss_bytes": probe["peak_rss_bytes"],
            "rss_below_store": bounded,
            "passes": probe["passes"],
        }
    )
    print(f"{'oocore_stream_peel':28s} store {store_bytes / 1e6:8.1f} MB   "
          f"peak RSS {probe['peak_rss_bytes'] / 1e6:8.1f} MB   "
          f"bounded={bounded}   {elapsed:6.1f}s  passes={probe['passes']}")
    return records


def _stream_bench_child(store_path: str, epsilon: float, compaction: bool,
                        spill_dir) -> dict:
    """One semi-streaming solve in a fresh process (honest peak RSS)."""
    import time as _time

    from repro.streaming.compaction import CompactionPolicy
    from repro.streaming.engine import stream_densest_subgraph
    from repro.streaming.stream import ShardEdgeStream

    baseline = _vm_peak_bytes()
    stream = ShardEdgeStream(store_path)
    policy = None
    if compaction:
        policy = CompactionPolicy(spill_dir=spill_dir)
    t0 = _time.perf_counter()
    result = stream_densest_subgraph(stream, epsilon, compaction=policy)
    elapsed = _time.perf_counter() - t0
    return {
        "elapsed": elapsed,
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": _vm_peak_bytes(),
        "bytes_scanned": stream.bytes_scanned,
        "edges_streamed": stream.edges_streamed,
        "stream_passes": stream.passes_made,
        "density": result.density,
        "size": len(result.nodes),
        "passes": result.passes,
    }


def run_streaming_benches(scale_factor: float, repeats: int):
    """Full-rescan vs pass-compacted semi-streaming runs on one store.

    Each configuration runs in a fresh spawn-context process, repeated
    up to 3 times (median wall time; the scan byte/edge accounting is
    deterministic and identical across repeats, so only the clock
    needs the repeats).
    """
    import multiprocessing
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.datasets.synthetic import nested_core_edge_arrays
    from repro.store import ShardedEdgeStore

    records: list = []
    oo_n = int(1_000_000 * scale_factor)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "stream-store")
        spill_dir = os.path.join(tmp, "spill")
        os.makedirs(spill_dir)
        # The nested-core onion is the deep-peel regime (≈18M edges at
        # full scale, O(log n) passes): exactly the workload where
        # rescanning every shard per pass is pathological.  Shallow
        # peels (power-law fixtures collapse in ~5 passes) bound the
        # possible saving at the two unavoidable full scans; the bench
        # measures the regime the compaction layer exists for.
        src, dst = nested_core_edge_arrays(oo_n, degree=18.0, shrink=0.5, seed=42)
        store = ShardedEdgeStore.write(
            store_path, (src, dst), directed=False, num_shards=16, num_nodes=oo_n
        )
        del src, dst
        store_bytes = store.nbytes()
        fixture = f"nested_core_arrays@n={oo_n}"
        print(f"fixture {fixture}: m={store.num_edges}, "
              f"store {store_bytes / 1e6:.1f} MB")
        reps = max(1, min(repeats, 3))
        for epsilon in (0.1, 0.5):
            bench = f"stream_peel_eps{epsilon:g}"
            rows = {}
            for compaction in (False, True):
                probes = []
                for _ in range(reps):
                    with ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=multiprocessing.get_context("spawn"),
                    ) as pool:
                        probes.append(
                            pool.submit(
                                _stream_bench_child, store_path, epsilon,
                                compaction, spill_dir,
                            ).result()
                        )
                probe = dict(probes[0])
                probe["elapsed"] = statistics.median(p["elapsed"] for p in probes)
                probe["peak_rss_bytes"] = max(p["peak_rss_bytes"] for p in probes)
                rows[compaction] = probe
            full, comp = rows[False], rows[True]
            # Compaction must be invisible outside the accounting.
            assert comp["density"] == full["density"], (bench, comp, full)
            assert comp["size"] == full["size"], bench
            assert comp["passes"] == full["passes"], bench
            for engine, probe in (("full-rescan", full), ("compacted", comp)):
                record = {
                    "bench": bench,
                    "fixture": fixture,
                    "engine": engine,
                    "median_seconds": probe["elapsed"],
                    "store_bytes": store_bytes,
                    "bytes_scanned": probe["bytes_scanned"],
                    "edges_streamed": probe["edges_streamed"],
                    "stream_passes": probe["stream_passes"],
                    "peak_rss_bytes": probe["peak_rss_bytes"],
                    "rss_below_store": probe["peak_rss_bytes"] < store_bytes,
                    "passes": probe["passes"],
                }
                if engine == "compacted":
                    record["speedup"] = (
                        full["elapsed"] / probe["elapsed"]
                        if probe["elapsed"] > 0
                        else None
                    )
                    record["bytes_ratio"] = (
                        full["bytes_scanned"] / probe["bytes_scanned"]
                        if probe["bytes_scanned"] > 0
                        else None
                    )
                records.append(record)
            print(
                f"{bench:28s} full {full['elapsed']:7.2f}s "
                f"({full['bytes_scanned'] / 1e6:8.1f} MB)   "
                f"compacted {comp['elapsed']:7.2f}s "
                f"({comp['bytes_scanned'] / 1e6:8.1f} MB)   "
                f"x{full['elapsed'] / comp['elapsed']:5.2f} wall  "
                f"x{full['bytes_scanned'] / comp['bytes_scanned']:5.2f} bytes  "
                f"RSS {comp['peak_rss_bytes'] / 1e6:.0f} MB"
            )
    return records


def _faults_bench_child(store_path: str, k: int, epsilon: float, ckpt_dir,
                        every: int, fault_pass, plan_log) -> dict:
    """One semi-streaming solve in a fresh process, optionally
    checkpointed and optionally crashed at ``fault_pass``."""
    import time as _time

    from repro.errors import InjectedFaultError
    from repro.faults import FaultPlan, RunControl
    from repro.streaming.checkpoint import CheckpointConfig
    from repro.streaming.engine import stream_densest_subgraph_atleast_k
    from repro.streaming.stream import ShardEdgeStream

    stream = ShardEdgeStream(store_path)
    checkpoint = CheckpointConfig(ckpt_dir, every=every) if ckpt_dir else None
    control = None
    plan = None
    if fault_pass is not None:
        plan = FaultPlan.raise_at_pass(fault_pass)
        control = RunControl(fault_plan=plan)
    t0 = _time.perf_counter()
    try:
        result = stream_densest_subgraph_atleast_k(
            stream, k, epsilon, checkpoint=checkpoint, control=control
        )
    except InjectedFaultError:
        if plan is not None and plan_log:
            plan.save_log(plan_log)
        return {
            "elapsed": _time.perf_counter() - t0,
            "crashed": True,
            "fault_pass": fault_pass,
        }
    return {
        "elapsed": _time.perf_counter() - t0,
        "crashed": False,
        "density": result.density,
        "size": len(result.nodes),
        "passes": result.passes,
    }


def run_faults_benches(scale_factor: float, repeats: int):
    """Price of robustness: clean vs checkpointed vs crash+resume peels.

    All three configurations solve the same nested-core sharded store
    with the semi-streaming at-least-k engine (the slow-shrink deep
    peel: a hundred-plus passes, so the interval-16 checkpoint cadence
    actually fires many times) in fresh spawn-context processes.  The
    checkpointed run uses the default interval (16 passes); the
    crash run is killed by an injected fault two thirds of the way
    through the peel and then resumed from its checkpoint.  The driver
    asserts both robust configurations return results identical to the
    clean run, and gates in-driver on checkpointed wall-clock overhead
    <= 10% (+0.25 s absolute slack for quick-scale fixtures, where the
    whole run is fractions of a second and the ratio is noise).
    """
    import multiprocessing
    import os
    import shutil
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.datasets.synthetic import nested_core_edge_arrays
    from repro.store import ShardedEdgeStore

    epsilon = 0.05
    every = 16
    records: list = []
    oo_n = int(400_000 * scale_factor)
    k = max(oo_n // 400, 25)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "faults-store")
        src, dst = nested_core_edge_arrays(oo_n, degree=18.0, shrink=0.5, seed=42)
        store = ShardedEdgeStore.write(
            store_path, (src, dst), directed=False, num_shards=16, num_nodes=oo_n
        )
        del src, dst
        fixture = f"nested_core_arrays@n={oo_n}"
        print(f"fixture {fixture}: m={store.num_edges}, "
              f"store {store.nbytes() / 1e6:.1f} MB")

        def run_one(ckpt_dir, fault_pass=None, plan_log=None, cold=False):
            if cold and ckpt_dir and os.path.isdir(ckpt_dir):
                shutil.rmtree(ckpt_dir)  # overhead probes start cold
            with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                return pool.submit(
                    _faults_bench_child, store_path, k, epsilon,
                    ckpt_dir, every, fault_pass, plan_log,
                ).result()

        def probe(ckpt_dir, fault_pass=None, plan_log=None, reps=1,
                  cold=False):
            runs = [
                run_one(ckpt_dir, fault_pass, plan_log, cold)
                for _ in range(reps)
            ]
            out = dict(runs[0])
            out["elapsed"] = min(r["elapsed"] for r in runs)
            return out

        # Interleave the clean/checkpointed reps and take the best of
        # each: the overhead being priced is ~1% against wall-clock
        # jitter that can exceed 10% between back-to-back runs, so
        # min-of-N on alternating runs (which spreads machine-load
        # drift across both configurations) is the estimator that
        # makes a 10% gate tenable.
        reps = max(1, min(repeats, 3))
        ckpt_dir = os.path.join(tmp, "ck-overhead")
        clean_runs, ckpt_runs = [], []
        for _ in range(reps):
            clean_runs.append(run_one(None))
            ckpt_runs.append(run_one(ckpt_dir, cold=True))
        clean = dict(clean_runs[0])
        clean["elapsed"] = min(r["elapsed"] for r in clean_runs)
        ckpt = dict(ckpt_runs[0])
        ckpt["elapsed"] = min(r["elapsed"] for r in ckpt_runs)
        # The overhead gate is only honest if the interval actually
        # fires: the deep peel must make several checkpoint windows.
        assert clean["passes"] > 3 * every, (
            f"fixture peels in {clean['passes']} passes; too shallow to "
            f"price an every-{every} checkpoint cadence"
        )

        # Robustness must be invisible in the answer.
        for name, robust in (("checkpointed", ckpt),):
            assert robust["density"] == clean["density"], (name, robust, clean)
            assert robust["size"] == clean["size"], name
            assert robust["passes"] == clean["passes"], name
        overhead = ckpt["elapsed"] / clean["elapsed"] - 1.0
        assert ckpt["elapsed"] <= clean["elapsed"] * 1.10 + 0.25, (
            f"checkpoint overhead {overhead:+.1%} at interval {every} "
            f"exceeds the 10% gate ({ckpt['elapsed']:.2f}s vs "
            f"{clean['elapsed']:.2f}s clean)"
        )

        # Crash two thirds of the way through, then resume.
        fault_pass = max((clean["passes"] * 2) // 3, 2)
        resume_dir = os.path.join(tmp, "ck-resume")
        plan_log = os.path.abspath("BENCH_faults_plan.json")
        crashed = probe(resume_dir, fault_pass=fault_pass, plan_log=plan_log)
        assert crashed["crashed"], crashed
        resumed = probe(resume_dir)
        assert not resumed["crashed"]
        assert resumed["density"] == clean["density"], (resumed, clean)
        assert resumed["size"] == clean["size"]
        assert resumed["passes"] == clean["passes"]
        # A resume that redid the whole peel would be a silent restart:
        # it must skip the ~2/3 of passes done before the crash.
        assert resumed["elapsed"] <= clean["elapsed"] * 0.9 + 0.25, (
            f"resume took {resumed['elapsed']:.2f}s vs {clean['elapsed']:.2f}s "
            f"clean -- checkpoint was not actually used"
        )

        base = {
            "fixture": fixture,
            "k": k,
            "epsilon": epsilon,
            "checkpoint_every": every,
            "passes": clean["passes"],
        }
        records.append({
            "bench": f"ckpt_peel_eps{epsilon:g}", "engine": "clean",
            "median_seconds": clean["elapsed"], **base,
        })
        records.append({
            "bench": f"ckpt_peel_eps{epsilon:g}", "engine": "checkpointed",
            "median_seconds": ckpt["elapsed"], "overhead": overhead,
            "identical_to_clean": True, **base,
        })
        records.append({
            "bench": f"crash_resume_eps{epsilon:g}", "engine": "resumed",
            "median_seconds": crashed["elapsed"] + resumed["elapsed"],
            "seconds_to_fault": crashed["elapsed"],
            "seconds_resume": resumed["elapsed"],
            "fault_pass": fault_pass, "identical_to_clean": True,
            "fault_plan_log": plan_log, **base,
        })
        print(
            f"ckpt_peel_eps{epsilon:g}            clean {clean['elapsed']:6.2f}s   "
            f"checkpointed {ckpt['elapsed']:6.2f}s  ({overhead:+.1%})"
        )
        print(
            f"crash_resume_eps{epsilon:g}    fault@pass {fault_pass}: "
            f"{crashed['elapsed']:6.2f}s + resume {resumed['elapsed']:6.2f}s "
            f"-> identical result over {clean['passes']} passes"
        )
    return records


def run_kernels_benches(scale_factor: float, repeats: int):
    """Kernel tier ladder: numpy vs native peels.

    Three regimes, all on the BENCH_core peel fixtures (flickr_sim /
    livejournal_sim CSR snapshots) plus the big shard store:

    * **Shallow peels** (the BENCH_core configs: eps 0.5–2.0, 3–6
      passes): reported for context, not gated.  At a handful of
      passes the numpy engine's per-pass O(m) rescan only runs a few
      times, so the native tier's structural advantage barely shows;
      measured headroom on these fixtures tops out around 4–5x.
    * **Deep peels** (eps 0.02–0.05 at-least-k, 48–160+ passes — the
      paper's high-accuracy regime, where small epsilon buys a tight
      approximation at the cost of many passes): the numpy engine
      rescans all m edges every pass while the bucket queue does O(m)
      total work, so the gap widens with pass count.  These are the
      rows ``--min-speedup`` gates (target ≥5x).
    * The ≈18M-edge nested-core shard store: loaded once through
      ``CSRGraph.from_shards``, then peeled by the numpy and native
      tiers — a wall-clock comparison on a real out-of-core-sized
      input; the driver asserts the native tier wins wall-clock
      (>1x) outright.  Plus two rows timing one full semi-streaming
      degree pass over the store with the C chunk scan and with its
      numpy fallback (``REPRO_NATIVE=off``): ``stream_scan`` with every
      node alive, ``stream_scan_sink`` with ~45% of the edges alive
      and a compaction sink taking the survivors.  Both assert
      bit-exact degrees and weight (and survivors); their speedups are
      reported but not gated.

    Every tier-bench row (shallow and deep) first asserts identical
    node sets, pass counts, and densities across all importable tiers.
    ``speedup`` (numpy-median / native-median) appears on native rows
    only — that is what ``--min-speedup`` gates.
    """
    import os
    import tempfile

    from repro.core.atleast_k import densest_subgraph_atleast_k
    from repro.core.directed import densest_subgraph_directed
    from repro.core.undirected import densest_subgraph
    from repro.datasets import load
    from repro.datasets.synthetic import nested_core_edge_arrays
    from repro.kernels import CSRDigraph, CSRGraph, native_backend
    from repro.store import ShardedEdgeStore

    records: list = []
    backend = native_backend()
    tiers = ["native"] if backend is not None else []
    print(f"kernel tiers: {', '.join(['numpy'] + tiers)} "
          f"(native backend: {backend or 'none'})")

    flickr = load("flickr_sim", scale=0.25 * scale_factor)
    lj = load("livejournal_sim", scale=0.2 * scale_factor)
    flickr_csr = CSRGraph.from_undirected(flickr)
    lj_csr = CSRDigraph.from_directed(lj)
    lj_und_csr = CSRGraph.from_undirected(lj.to_undirected())
    flickr_name = f"flickr_sim@{0.25 * scale_factor:g}"
    lj_name = f"livejournal_sim@{0.2 * scale_factor:g}"
    lj_und_name = lj_name + "-und"
    k = max(2, flickr.num_nodes // 10)
    lj_k = max(2, lj_und_csr.num_nodes // 20)

    def assert_same(ref, out, bench):
        if hasattr(ref, "s_nodes"):
            assert ref.s_nodes == out.s_nodes and ref.t_nodes == out.t_nodes, bench
        else:
            assert ref.nodes == out.nodes, bench
        assert ref.passes == out.passes, bench
        assert abs(ref.density - out.density) < 1e-9, bench

    def tier_bench(name, fixture, solve_fn):
        results = {tier: solve_fn(tier) for tier in ["numpy"] + tiers}
        for tier in tiers:
            assert_same(results["numpy"], results[tier], name)
        medians = {
            tier: _median_seconds(lambda t=tier: solve_fn(t), repeats)
            for tier in ["numpy"] + tiers
        }
        records.append(
            {
                "bench": name,
                "fixture": fixture,
                "engine": "numpy",
                "median_seconds": medians["numpy"],
            }
        )
        parts = [f"numpy {medians['numpy'] * 1e3:9.3f} ms"]
        for tier in tiers:
            ratio = (
                medians["numpy"] / medians[tier] if medians[tier] > 0 else None
            )
            records.append(
                {
                    "bench": name,
                    "fixture": fixture,
                    "engine": tier,
                    "median_seconds": medians[tier],
                    "speedup": ratio,
                }
            )
            parts.append(f"{tier} {medians[tier] * 1e3:9.3f} ms x{ratio:5.2f}")
        print(f"{name:28s} " + "   ".join(parts))

    tier_bench(
        "undirected_peel_eps05",
        flickr_name,
        lambda tier: densest_subgraph(flickr_csr, 0.5, engine=tier),
    )
    tier_bench(
        "undirected_peel_eps2",
        flickr_name,
        lambda tier: densest_subgraph(flickr_csr, 2.0, engine=tier),
    )
    tier_bench(
        "atleastk_peel",
        flickr_name,
        lambda tier: densest_subgraph_atleast_k(flickr_csr, k, 0.5, engine=tier),
    )
    tier_bench(
        "directed_peel",
        lj_name,
        lambda tier: densest_subgraph_directed(
            lj_csr, ratio=1.0, epsilon=1.0, engine=tier
        ),
    )
    # Deep peels: the gated ≥5x rows (many passes; see docstring).
    tier_bench(
        "atleastk_deep_flickr",
        flickr_name,
        lambda tier: densest_subgraph_atleast_k(
            flickr_csr, k, 0.05, engine=tier
        ),
    )
    tier_bench(
        "atleastk_deep_livejournal",
        lj_und_name,
        lambda tier: densest_subgraph_atleast_k(
            lj_und_csr, lj_k, 0.02, engine=tier
        ),
    )

    # Deep-peel regime: the ≈18M-edge nested-core store (same fixture
    # as the streaming/serve suites), CSR-loaded, numpy vs native.
    oo_n = int(1_000_000 * scale_factor)
    reps = max(1, min(repeats, 3))
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "kernels-store")
        src, dst = nested_core_edge_arrays(oo_n, degree=18.0, shrink=0.5, seed=42)
        store = ShardedEdgeStore.write(
            store_path, (src, dst), directed=False, num_shards=16, num_nodes=oo_n
        )
        del src, dst
        fixture = f"nested_core_store@n={oo_n}"
        print(f"fixture {fixture}: m={store.num_edges}, "
              f"store {store.nbytes() / 1e6:.1f} MB")
        big_csr = CSRGraph.from_shards(store)
        big_engines = ["numpy"] + (["native"] if backend is not None else [])
        big_results = {
            tier: densest_subgraph(big_csr, 0.5, engine=tier)
            for tier in big_engines
        }
        for tier in big_engines[1:]:
            assert_same(big_results["numpy"], big_results[tier], "oocore_csr_peel")
        big_medians = {
            tier: _median_seconds(
                lambda t=tier: densest_subgraph(big_csr, 0.5, engine=t), reps
            )
            for tier in big_engines
        }
        del big_csr
        records.append(
            {
                "bench": "oocore_csr_peel",
                "fixture": fixture,
                "engine": "numpy",
                "median_seconds": big_medians["numpy"],
                "edges": store.num_edges,
                "passes": big_results["numpy"].passes,
            }
        )
        line = f"{'oocore_csr_peel':28s} numpy {big_medians['numpy']:7.2f}s"
        if "native" in big_medians:
            ratio = (
                big_medians["numpy"] / big_medians["native"]
                if big_medians["native"] > 0
                else None
            )
            assert ratio is not None and ratio > 1.0, (
                f"native tier must win wall-clock on the big store "
                f"(got x{ratio})"
            )
            records.append(
                {
                    "bench": "oocore_csr_peel",
                    "fixture": fixture,
                    "engine": "native",
                    "median_seconds": big_medians["native"],
                    "edges": store.num_edges,
                    "passes": big_results["native"].passes,
                    "speedup": ratio,
                }
            )
            line += f"   native {big_medians['native']:7.2f}s   x{ratio:5.2f}"
        print(line)

        # One full shard-scan pass, C chunk scan vs its numpy fallback —
        # both add edges in stream order, so the counters are bit-exact —
        # with every node alive, and with ~45% of the edges alive and a
        # compaction sink open (the emit path: survivors written into
        # the sink's buffer inside the scan).
        import numpy as _np

        from repro.kernels import native
        from repro.streaming.compaction import CompactionPolicy, Compactor
        from repro.streaming.engine import _StreamScanner
        from repro.streaming.stream import ShardEdgeStream

        alive = _np.ones(store.num_nodes, dtype=bool)
        # An edge survives when both endpoints do: 0.67^2 ≈ 0.45.
        sink_alive = _np.random.default_rng(7).random(store.num_nodes) < 0.67
        # A memory sink large enough to hold every survivor, so the row
        # times the in-scan write and never a spill to disk.
        policy = CompactionPolicy(memory_edges=store.num_edges)

        def scan():
            scanner = _StreamScanner(range(store.num_nodes))
            return scanner.scan_undirected(ShardEdgeStream(store), alive)

        def scan_sink():
            stream = ShardEdgeStream(store)
            compactor = Compactor(
                policy, stream, directed=False, num_nodes=store.num_nodes
            )
            sink = compactor.open_sink()
            scanner = _StreamScanner(range(store.num_nodes))
            degrees, weight = scanner.scan_undirected(stream, sink_alive, sink)
            survivors = compactor.finish(sink).edge_arrays()
            compactor.close()
            return degrees, weight, survivors

        def on_tier(mode, fn):
            saved = os.environ.get("REPRO_NATIVE")
            os.environ["REPRO_NATIVE"] = mode
            native.reset_backend_cache()
            try:
                return fn()
            finally:
                if saved is None:
                    os.environ.pop("REPRO_NATIVE", None)
                else:
                    os.environ["REPRO_NATIVE"] = saved
                native.reset_backend_cache()

        if on_tier("auto", native.available_backend) == "c":
            deg_c, w_c = on_tier("auto", scan)
            deg_np, w_np = on_tier("off", scan)
            assert w_c == w_np, "C chunk scan diverged on total weight"
            assert _np.array_equal(deg_c, deg_np), "C chunk scan diverged"
            c_run, np_run = on_tier("auto", scan_sink), on_tier("off", scan_sink)
            assert c_run[1] == np_run[1], "C sink scan diverged on total weight"
            assert _np.array_equal(c_run[0], np_run[0]), "C sink scan diverged"
            for a, b in zip(c_run[2], np_run[2]):
                assert a.dtype == b.dtype and _np.array_equal(a, b), (
                    "C sink scan emitted different survivors"
                )
            kept_fraction = c_run[2][0].size / store.num_edges
            del c_run, np_run
            for bench, fn, extra in (
                ("stream_scan", scan, {}),
                ("stream_scan_sink", scan_sink, {"kept_fraction": kept_fraction}),
            ):
                c_s = on_tier("auto", lambda: _median_seconds(fn, reps))
                np_s = on_tier("off", lambda: _median_seconds(fn, reps))
                records.append(
                    {
                        "bench": bench,
                        "fixture": fixture,
                        "engine": "native",
                        "median_seconds": c_s,
                        "numpy_seconds": np_s,
                        "speedup": np_s / c_s if c_s > 0 else None,
                        "edges": store.num_edges,
                        **extra,
                    }
                )
                print(f"{bench:28s} numpy {np_s:7.2f}s   "
                      f"native {c_s:7.2f}s   x{np_s / c_s:5.2f}")
    return records


def run_serve_benches(scale_factor: float, repeats: int):
    """Load-test the HTTP serving layer: cold solves vs warm catalog hits.

    End-to-end over real sockets: build a large sharded store (the
    ≈18M-edge nested-core fixture at full scale), start an in-process
    server on a free port, register the store over HTTP, then time

    * ``serve_cold_solve`` — ``POST /solve`` misses (one per distinct
      epsilon; a key can only be cold once), solver pool end to end;
    * ``serve_warm_hit`` — concurrent clients re-requesting the same
      key, answered from the SQLite catalog.  The row records p50/p99
      latency and throughput, and ``speedup`` = cold p50 / warm p50
      (what ``--min-speedup`` gates on).

    The driver asserts every warm payload is byte-for-byte identical to
    its cold counterpart — a catalog that answers fast but differently
    fails the bench, not just the gate.
    """
    import json as _json
    import os
    import tempfile
    import threading
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    from repro.datasets.synthetic import nested_core_edge_arrays
    from repro.serve import build_server
    from repro.store import ShardedEdgeStore

    records: list = []
    oo_n = int(1_000_000 * scale_factor)
    warm_clients = 4
    warm_requests = 200

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "serve-store")
        src, dst = nested_core_edge_arrays(oo_n, degree=18.0, shrink=0.5, seed=42)
        store = ShardedEdgeStore.write(
            store_path, (src, dst), directed=False, num_shards=16, num_nodes=oo_n
        )
        del src, dst
        fixture = f"nested_core_store@n={oo_n}"
        print(f"fixture {fixture}: m={store.num_edges}, "
              f"store {store.nbytes() / 1e6:.1f} MB")

        server = build_server(
            port=0,
            catalog_path=os.path.join(tmp, "catalog.sqlite"),
            workers=2,
            spill_dir=os.path.join(tmp, "spill"),
        )
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"

        def request(method, path, body=None, timeout=600):
            data = _json.dumps(body).encode() if body is not None else None
            req = urllib.request.Request(
                base + path, data=data, method=method,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, _json.loads(resp.read())

        try:
            status, payload = request(
                "POST", "/datasets", {"name": "bench", "store": store_path}
            )
            assert status == 201, payload

            def solve_body(epsilon):
                return {
                    "dataset": "bench",
                    "problem": {"kind": "densest_subgraph", "epsilon": epsilon},
                    "wait": 600,
                }

            # Cold solves: one per distinct epsilon (first touch of each
            # key), timed from the client side.
            epsilons = [0.5, 0.6, 0.7][: max(1, min(repeats, 3))]
            cold_times, cold_payloads = [], {}
            for epsilon in epsilons:
                t0 = time.perf_counter()
                status, payload = request("POST", "/solve", solve_body(epsilon))
                cold_times.append(time.perf_counter() - t0)
                assert status == 200 and payload["cached"] is False, payload
                cold_payloads[epsilon] = payload
            cold_p50 = statistics.median(cold_times)

            # Warm hits: concurrent clients hammer the cached keys.
            def warm_worker(worker_id):
                times = []
                for i in range(warm_requests // warm_clients):
                    epsilon = epsilons[i % len(epsilons)]
                    t0 = time.perf_counter()
                    status, payload = request(
                        "POST", "/solve", solve_body(epsilon)
                    )
                    times.append(time.perf_counter() - t0)
                    assert status == 200 and payload["cached"] is True
                    # Warm answers must ship the cold solve's bytes.
                    cold = cold_payloads[epsilon]
                    assert payload["key"] == cold["key"]
                    assert _json.dumps(
                        payload["solution"], sort_keys=True
                    ) == _json.dumps(cold["solution"], sort_keys=True), (
                        f"warm payload diverged from cold for eps={epsilon}"
                    )
                return times

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=warm_clients) as pool:
                all_times = [
                    t
                    for times in pool.map(warm_worker, range(warm_clients))
                    for t in times
                ]
            warm_wall = time.perf_counter() - t0
            all_times.sort()
            warm_p50 = statistics.median(all_times)
            warm_p99 = all_times[int(len(all_times) * 0.99)]
            qps = len(all_times) / warm_wall if warm_wall > 0 else None

            status, stats = request("GET", "/stats")
            assert stats["results"] == len(epsilons)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    records.append(
        {
            "bench": "serve_cold_solve",
            "fixture": fixture,
            "engine": "http-miss",
            "median_seconds": cold_p50,
            "samples": len(cold_times),
            "edges": store.num_edges,
        }
    )
    records.append(
        {
            "bench": "serve_warm_hit",
            "fixture": fixture,
            "engine": "http-hit",
            "median_seconds": warm_p50,
            "p99_seconds": warm_p99,
            "qps": qps,
            "samples": len(all_times),
            "clients": warm_clients,
            "hits": stats["hits"],
            "hit_ratio": stats["hit_ratio"],
            "speedup": cold_p50 / warm_p50 if warm_p50 > 0 else None,
        }
    )
    print(f"{'serve_cold_solve':28s} p50 {cold_p50 * 1e3:9.1f} ms   "
          f"({len(cold_times)} misses)")
    print(f"{'serve_warm_hit':28s} p50 {warm_p50 * 1e3:9.3f} ms   "
          f"p99 {warm_p99 * 1e3:9.3f} ms   {qps:7.0f} req/s   "
          f"x{cold_p50 / warm_p50:8.1f}")
    return records


def run_chaos_benches(scale_factor: float, repeats: int):
    """Chaos/soak: mixed traffic + armed faults against one server.

    One in-process server runs with the full overload posture switched
    on (per-request cost cap, admission budget, deadline cost model,
    queue-fraction degradation, catalog circuit breaker) *and* a fault
    plan arming solver delays, a 20-op ``catalog.read`` corruption
    streak, and a ``kill_worker`` on MapReduce map task 0.  Four
    client personas hit it concurrently:

    * **warm** — pre-solves one key, then hammers it.  During
      breaker-open windows hits become deterministic re-solves; either
      way the answer must match the clean reference bytes.
    * **cold** — distinct-ε streaming solves (new keys), plus
      unaffordable-deadline requests that must come back *labeled*
      (``stale`` for a kind with cached history, ``degraded`` for a
      kind without), plus one MapReduce solve that eats the SIGKILL.
    * **oversized** — requests over ``max_cost_edges``; every response
      must be a 429 carrying ``Retry-After``.
    * **cancel** — submit-without-wait then ``DELETE /jobs/<id>``,
      polled to a terminal state.

    In-driver gates (asserted, not just reported): goodput > 0; p99
    time-to-answer over admitted requests bounded; at least one shed,
    one stale, and one degraded response; and every unlabeled 200
    byte-identical to an offline clean solve of the same problem on
    the same deterministic dataset.
    """
    import json as _json
    import os
    import tempfile
    import threading
    import urllib.error
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    from repro import solve as _solve
    from repro.api.problems import DensestAtLeastK, DensestSubgraph
    from repro.datasets import registry as dataset_registry
    from repro.faults import FaultPlan, FaultPoint
    from repro.serve import build_server

    seed = 7
    scale_small = round(0.3 * scale_factor, 4)
    scale_big = round(1.5 * scale_factor, 4)
    p99_bound = 60.0  # generous, but *bounded*: the no-hang gate
    cold_requests = max(4, 4 * repeats)
    warm_requests = max(20, 20 * repeats)
    cancel_requests = max(3, 2 * repeats)
    oversized_requests = max(3, 2 * repeats)

    small = dataset_registry.load("grqc_sim", scale=scale_small, seed=seed)
    big = dataset_registry.load("grqc_sim", scale=scale_big, seed=seed)
    assert big.num_edges > small.num_edges
    fixture = f"grqc_sim@scale={scale_small}/{scale_big}"
    print(f"fixture {fixture}: small m={small.num_edges}, big m={big.num_edges}")

    plan = FaultPlan(
        [
            # stragglers: two delayed solve jobs + one slow peel pass
            FaultPoint("serve.solve", 1, "delay", 0.3),
            FaultPoint("serve.solve", 3, "delay", 0.3),
            FaultPoint("streaming.pass", 2, "delay", 0.1),
            # a sick catalog: 10 consecutive read ops fail -> the
            # breaker must open and the service go cache-less
            *[FaultPoint("catalog.read", i, "corrupt") for i in range(20, 30)],
            # a dying worker: MapReduce map task 0 is SIGKILLed once
            FaultPoint("mapreduce.map", 0, "kill_worker"),
        ]
    )

    with tempfile.TemporaryDirectory() as tmp:
        server = build_server(
            port=0,
            catalog_path=os.path.join(tmp, "catalog.sqlite"),
            workers=2,
            spill_dir=os.path.join(tmp, "spill"),
            max_queue=8,
            degrade_at=0.9,
            admit_budget_edges=6 * small.num_edges,
            max_cost_edges=(small.num_edges + big.num_edges) // 2,
            edges_per_second=float(small.num_edges),  # => exact ~1 s estimate
            retry_after_base=0.1,
            breaker_threshold=3,
            breaker_reset_seconds=0.25,
            fault_plan=plan,
        )
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"

        def request(method, path, body=None, client="chaos", timeout=600):
            data = _json.dumps(body).encode() if body is not None else None
            req = urllib.request.Request(
                base + path, data=data, method=method,
                headers={"Content-Type": "application/json",
                         "X-Client-Id": client},
            )
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, _json.loads(resp.read()), dict(resp.headers)

        def solve_body(kind, wait=600, backend=None, deadline=None, **params):
            body = {"dataset": "g", "problem": {"kind": kind, **params}}
            if wait is not None:
                body["wait"] = wait
            if backend is not None:
                body["backend"] = backend
            if deadline is not None:
                body["deadline"] = deadline
            return body

        # shared tallies (lists are append-atomic under the GIL)
        admitted_times: list = []  # seconds to a terminal 200/202-resolved
        ok_payloads: list = []     # every 200 payload for the label audit
        shed_count = [0]
        retry_after_missing = [0]
        cancelled = [0]
        errors: list = []

        def timed(client, body):
            t0 = time.perf_counter()
            status, payload, _ = request("POST", "/solve", body, client=client)
            admitted_times.append(time.perf_counter() - t0)
            assert status in (200, 202), (status, payload)
            if status == 200:
                ok_payloads.append(payload)
            return status, payload

        try:
            for name, scale in (
                ("g", scale_small),
                ("big", scale_big),
                # the cancel client solves its own dataset so its
                # (possibly completed-before-cancel) densest_at_least_k
                # rows never satisfy the stale rung for dataset "g" --
                # the post-soak degraded-rung assert depends on that
                ("cds", round(scale_small * 0.9, 4)),
            ):
                status, payload, _ = request(
                    "POST", "/datasets",
                    {"name": name, "dataset": "grqc_sim",
                     "scale": scale, "seed": seed},
                )
                assert status == 201, payload

            def warm_client():
                try:
                    for _ in range(warm_requests):
                        timed("warm", solve_body("densest_subgraph", epsilon=0.5))
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(("warm", exc))

            def cold_client():
                try:
                    # one MapReduce solve eats the SIGKILLed worker and
                    # must still answer exactly (recovery is invisible)
                    timed("cold", solve_body(
                        "densest_subgraph", epsilon=0.55, backend="mapreduce"
                    ))
                    for i in range(cold_requests):
                        timed("cold", solve_body(
                            "densest_subgraph", epsilon=0.6 + 0.01 * i,
                            backend="streaming",
                        ))
                except Exception as exc:  # noqa: BLE001
                    errors.append(("cold", exc))

            def oversized_client():
                try:
                    for i in range(oversized_requests):
                        body = solve_body("densest_subgraph",
                                          epsilon=0.5 + 0.01 * i)
                        body["dataset"] = "big"
                        try:
                            request("POST", "/solve", body, client="oversized")
                        except urllib.error.HTTPError as err:
                            assert err.code == 429, err.code
                            shed_count[0] += 1
                            if "Retry-After" not in err.headers:
                                retry_after_missing[0] += 1
                            else:
                                time.sleep(
                                    min(float(err.headers["Retry-After"]), 0.2)
                                )
                        else:
                            raise AssertionError(
                                "oversized request was not shed"
                            )
                except Exception as exc:  # noqa: BLE001
                    errors.append(("oversized", exc))

            def cancel_client():
                try:
                    for i in range(cancel_requests):
                        body = solve_body(
                            "densest_at_least_k", wait=None,
                            k=40, epsilon=0.001 + 0.001 * i,
                            backend="streaming",
                        )
                        body["dataset"] = "cds"
                        status, payload, _ = request(
                            "POST", "/solve", body, client="cancel"
                        )
                        if status != 202:
                            continue  # ladder/coalescing answered inline
                        job_id = payload["job"]["id"]
                        try:
                            request("DELETE", f"/jobs/{job_id}",
                                    client="cancel")
                        except urllib.error.HTTPError as err:
                            assert err.code == 409, err.code  # already done
                        for _ in range(600):
                            _, job, _ = request(
                                "GET", f"/jobs/{job_id}", client="cancel"
                            )
                            if job["job"]["status"] not in (
                                "PENDING", "RUNNING", "CANCELLING",
                            ):
                                break
                            time.sleep(0.05)
                        else:
                            raise AssertionError(
                                f"job {job_id} never reached a terminal state"
                            )
                        if job["job"]["status"] == "CANCELLED":
                            cancelled[0] += 1
                except Exception as exc:  # noqa: BLE001
                    errors.append(("cancel", exc))

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=4) as pool:
                for fn in (warm_client, cold_client,
                           oversized_client, cancel_client):
                    pool.submit(fn)
            soak_wall = time.perf_counter() - t0
            assert not errors, errors

            # ---- deterministic ladder phase --------------------------
            # Drain whatever is left of the corruption streak (the
            # breaker freezes the catalog.read op counter while open,
            # so warm requests + short sleeps walk the half-open probes
            # through the remaining corrupt ops), then let one healthy
            # probe close the breaker.
            drain_deadline = time.monotonic() + 120
            while any(p.site == "catalog.read" for p in plan.pending()):
                assert time.monotonic() < drain_deadline, (
                    f"corruption streak never drained: {plan.pending()}"
                )
                timed("warm", solve_body("densest_subgraph", epsilon=0.5))
                time.sleep(0.3)
            time.sleep(0.3)
            timed("warm", solve_body("densest_subgraph", epsilon=0.5))

            # The ladder's stale rung: an unaffordable deadline on a
            # kind WITH cached history on "g" must come back labeled
            # ``stale`` (the nearest prior answer, not a fresh solve).
            for i in range(max(2, repeats)):
                status, payload = timed("cold", solve_body(
                    "densest_subgraph", epsilon=0.31 + 0.01 * i,
                    deadline=0.05,
                ))
                assert status == 200 and payload.get("stale"), payload
            # The degraded rung: same unaffordable deadline on a kind
            # WITHOUT history on "g" (the cancel client solved its k
            # problems on "cds") must come back labeled ``degraded``
            # from the cheap greedy fallback.
            for i in range(max(2, repeats)):
                status, payload = timed("cold", solve_body(
                    "densest_at_least_k", k=20 + i,
                    epsilon=0.5, deadline=0.05,
                ))
                if i == 0:
                    assert status == 200 and payload.get("degraded"), payload
                else:
                    # the first degraded answer is now cached history,
                    # so later unaffordable requests may legitimately
                    # ride the (cheaper) stale rung instead
                    assert status == 200 and (
                        payload.get("degraded") or payload.get("stale")
                    ), payload

            status, stats, _ = request("GET", "/stats")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

        plan_log = os.path.abspath("BENCH_chaos_plan.json")
        plan.save_log(plan_log)

        # ---- gates -------------------------------------------------
        goodput = len(ok_payloads)
        assert goodput > 0, "no request ever succeeded under chaos"
        admitted_times.sort()
        p50 = statistics.median(admitted_times)
        p99 = admitted_times[int(len(admitted_times) * 0.99)]
        assert p99 <= p99_bound, (
            f"p99 time-to-answer {p99:.1f}s blew the {p99_bound:.0f}s bound"
        )
        assert shed_count[0] > 0, "oversized traffic was never shed"
        assert retry_after_missing[0] == 0, (
            f"{retry_after_missing[0]} sheds lacked a Retry-After header"
        )
        assert stats["stale_served"] > 0, stats
        assert stats["degraded"] > 0, stats
        # the corruption streak must actually have exercised the breaker
        read_faults = [
            f for f in plan.fired if f["site"] == "catalog.read"
        ]
        assert len(read_faults) >= 3, (
            f"only {len(read_faults)} catalog.read faults fired; the "
            f"breaker was never really tested"
        )
        kill_fired = any(f["mode"] == "kill_worker" for f in plan.fired)
        assert kill_fired, "the MapReduce kill_worker fault never fired"

        # ---- the no-silent-wrong-answer audit ----------------------
        # Every UNLABELED 200 must be byte-identical to a clean offline
        # solve of the same problem (same deterministic dataset, no
        # faults, no server).  Labeled answers are exempt — that is
        # what the label is for.
        problems = {
            "densest_subgraph": lambda p: DensestSubgraph(
                small, epsilon=p["epsilon"]
            ),
            "densest_at_least_k": lambda p: DensestAtLeastK(
                small, k=p["k"], epsilon=p["epsilon"]
            ),
        }
        references: dict = {}
        labeled = unlabeled = 0
        for payload in ok_payloads:
            if payload.get("stale") or payload.get("degraded"):
                labeled += 1
                continue
            unlabeled += 1
            ref_key = payload["key"]
            if ref_key not in references:
                problem = problems[payload["problem_kind"]](payload["params"])
                clean = _solve(problem, backend=payload["backend"])
                references[ref_key] = _json.loads(clean.to_json())
            assert _json.dumps(payload["solution"], sort_keys=True) == \
                _json.dumps(references[ref_key], sort_keys=True), (
                    f"UNLABELED response for key {ref_key} diverged from "
                    f"the clean solve (kind={payload['problem_kind']}, "
                    f"params={payload['params']})"
                )

    record = {
        "bench": "chaos_soak",
        "fixture": fixture,
        "engine": "http-chaos",
        "median_seconds": p50,
        "p99_seconds": p99,
        "p99_bound_seconds": p99_bound,
        "soak_wall_seconds": soak_wall,
        "goodput": goodput,
        "admitted": len(admitted_times),
        "unlabeled_verified": unlabeled,
        "labeled": labeled,
        "distinct_keys_verified": len(references),
        "shed": stats["shed"],
        "degraded": stats["degraded"],
        "stale_served": stats["stale_served"],
        "cancelled": cancelled[0],
        "coalesced": stats["coalesced"],
        "faults_fired": len(plan.fired),
        "faults_pending": len(plan.pending()),
        "breaker_state": stats["breaker_state"],
        "plan_log": plan_log,
    }
    print(f"{'chaos_soak':28s} goodput {goodput:4d}   "
          f"p50 {p50 * 1e3:8.1f} ms   p99 {p99 * 1e3:8.1f} ms   "
          f"shed {stats['shed']}   degraded {stats['degraded']}   "
          f"stale {stats['stale_served']}   cancelled {cancelled[0]}   "
          f"faults {len(plan.fired)}")
    print(f"{'':28s} verified {unlabeled} unlabeled responses "
          f"({len(references)} distinct keys) byte-identical to clean solves")
    return [record]


#: Per-suite configuration: bench driver, default report path, and the
#: benches the ``--min-speedup`` gate applies to (a bench name gates all
#: its rows, a ``(bench, engine)`` pair gates that one row).
SUITES = {
    "core": {
        "run": run_benches,
        "output": "BENCH_core.json",
        "gate": {"undirected_peel_eps05", "undirected_peel_eps2", "directed_peel"},
    },
    "mapreduce": {
        "run": run_mapreduce_benches,
        "output": "BENCH_mapreduce.json",
        # One engine, so no speedup row to gate.
        "gate": set(),
    },
    "exec": {
        "run": run_exec_benches,
        "output": "BENCH_exec.json",
        # Gate only on explicit --min-speedup: a 4-worker pool cannot
        # beat serial on fewer than ~2 physical cores.
        "gate": {("mr_columnar_peel", "process-4w-file-shuffle")},
    },
    "streaming": {
        "run": run_streaming_benches,
        "output": "BENCH_stream.json",
        "gate": {"stream_peel_eps0.1", "stream_peel_eps0.5"},
    },
    "faults": {
        "run": run_faults_benches,
        "output": "BENCH_faults.json",
        # The <=10% checkpoint-overhead gate is asserted in-driver
        # (overhead is a ratio of two same-process runs, so it is
        # stable); --min-speedup has no meaningful row here.
        "gate": set(),
    },
    "serve": {
        "run": run_serve_benches,
        "output": "BENCH_serve.json",
        "gate": {"serve_warm_hit"},
    },
    "chaos": {
        "run": run_chaos_benches,
        "output": "BENCH_chaos.json",
        # Every chaos gate (goodput, bounded p99, labeled degradation,
        # Retry-After on sheds, byte-identity of unlabeled answers) is
        # asserted in-driver; there is no speedup row to gate.
        "gate": set(),
    },
    "kernels": {
        "run": run_kernels_benches,
        "output": "BENCH_kernels.json",
        # Gate the native tier's deep-peel rows (the many-pass regime
        # the bucket queue exists for; shallow 3–6 pass rows are
        # context).  The big-store wall-clock win (>1x) is asserted
        # in-driver; stream_scan and stream_scan_sink (C chunk scan vs
        # its numpy fallback) are reported ungated.
        "gate": {
            "atleastk_deep_flickr",
            "atleastk_deep_livejournal",
        },
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="core",
        help="which bench suite to run (core engines or MapReduce drivers)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the report (default: the suite's BENCH_*.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=9, help="timing repeats per bench (median)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: reduced dataset scales and fewer repeats",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the undirected+directed peel benches reach this speedup",
    )
    parser.add_argument(
        "--min-bytes-ratio",
        type=float,
        default=None,
        help="streaming suite: fail unless compacted runs scan at least "
        "this factor fewer bytes than the full rescan",
    )
    args = parser.parse_args(argv)

    suite = SUITES[args.suite]
    output = args.output if args.output is not None else suite["output"]
    scale_factor = 0.4 if args.quick else 1.0
    repeats = min(args.repeats, 3) if args.quick else args.repeats
    records = suite["run"](scale_factor, repeats)

    import os

    import platform

    import numpy

    from repro.kernels import native

    report = {
        "suite": args.suite,
        "scale_factor": scale_factor,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
            "kernel_tier": native.available_backend() or "numpy",
        },
        "benches": records,
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output} ({len(records)} records)")

    if args.min_speedup is not None:
        gate = suite["gate"]
        # Gate on every gated row that carries a speedup (the
        # comparison rows of each suite: engine "numpy" in core, the
        # file-shuffle process row in exec).
        failing = [
            r
            for r in records
            if (r["bench"] in gate or (r["bench"], r.get("engine")) in gate)
            and r.get("speedup") is not None
            and r["speedup"] < args.min_speedup
        ]
        if failing:
            for r in failing:
                print(
                    f"FAIL {r['bench']}: speedup {r.get('speedup'):.2f} "
                    f"< {args.min_speedup}",
                    file=sys.stderr,
                )
            return 1
        print(f"speedup gate >= {args.min_speedup}x: OK")

    if args.min_bytes_ratio is not None:
        gate = suite["gate"]
        failing = [
            r
            for r in records
            if r["bench"] in gate
            and r.get("bytes_ratio") is not None
            and r["bytes_ratio"] < args.min_bytes_ratio
        ]
        ratios = [r for r in records if r.get("bytes_ratio") is not None]
        if not ratios:
            print(
                "FAIL: --min-bytes-ratio given but no bench recorded a "
                "bytes_ratio (wrong suite?)",
                file=sys.stderr,
            )
            return 1
        if failing:
            for r in failing:
                print(
                    f"FAIL {r['bench']}: bytes_ratio {r.get('bytes_ratio'):.2f} "
                    f"< {args.min_bytes_ratio}",
                    file=sys.stderr,
                )
            return 1
        print(f"bytes-ratio gate >= {args.min_bytes_ratio}x: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
