"""The three workloads: one user path each, driven by a single client.

Every workload is a closed loop: the next operation starts when the
previous one has answered.  Operations are classed by what the system
has already answered in this run, the same rule on every path:

``first``   the first operation on a freshly opened input (a newly
            registered dataset; a newly opened store handle);
``repeat``  a new epsilon on an input that has already been solved;
``warm``    a problem that has already been answered.  The service
            ships the catalogued answer; the library paths keep no
            answers, so there a warm operation solves again.

Inputs are nested-core graphs.  The ``--seed`` given to the benchmark
draws a random relabelling of the nodes of one fixed graph per size,
so every seed gives different stores (labels, shard placement, record
order, fingerprints) that ask for the same amount of peeling work: the
pass count of a freshly drawn graph varies by seed and would otherwise
swamp the differences a benchmark should detect.  The system under
test only ever sees the stores (and, for ``mapreduce-peel``, the CSR
snapshot) built from them.  Every answer is checked against a reference
solve of the same problem by a different backend, computed outside the
timed phases and outside the set-up time.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.datasets.synthetic import nested_core_edge_arrays
from repro.kernels import CSRGraph, resolve_engine
from repro.streaming.compaction import context_policy

from harness import (
    Client,
    ServerProcess,
    Tracer,
    cpu_seconds,
    median,
    proc_cpu_seconds,
    proc_hwm_mb,
    reset_hwm,
)

#: Graph shape for every input (ROADMAP baseline family).
DEGREE = 18.0
SHRINK = 0.5
#: The fixed graph every seed relabels.
GRAPH_SEED = 0
SHARDS = 16
#: Catalog hits per serve-mixed run: ten samples lie beyond the p95.
MIN_HITS = 200
#: Warm hits sent by the serve probe of the library workloads.
PROBE_HITS = 20
#: Density agreement with the reference (answers are bit-identical on
#: unit weights; this only absorbs float formatting).
DENSITY_RTOL = 1e-9


@dataclass(frozen=True)
class Answer:
    nodes: frozenset
    density: float


@dataclass
class Op:
    """One timed operation of a workload's closed loop."""

    cls: str  # "first" | "repeat" | "warm"
    epsilon: float
    latency_s: float  # client-side wall time
    solve_s: Optional[float]  # solver time of a computed answer, else None
    edges: int  # input edges the answer covers
    correct: bool
    cpu_s: Optional[float] = None  # system-process CPU for this op


def matches(nodes, density: float, ref: Answer) -> bool:
    return frozenset(nodes) == ref.nodes and abs(density - ref.density) <= (
        DENSITY_RTOL * max(1.0, abs(ref.density))
    )


def canonical(solution_payload: Dict[str, Any]) -> str:
    return json.dumps(solution_payload, sort_keys=True, separators=(",", ":"))


def write_store(path: Path, n: int, seed, tracer: Tracer) -> repro.ShardedEdgeStore:
    """Generate one nested-core input, relabelled by ``seed``, and write
    it as a shard store."""
    with tracer.span("datasets.generate", nodes=n):
        src, dst = nested_core_edge_arrays(
            n, degree=DEGREE, shrink=SHRINK, seed=GRAPH_SEED
        )
        label = np.random.default_rng(seed).permutation(n)
        src, dst = label[src], label[dst]
    with tracer.span("store.write", nodes=n, edges=int(src.size)):
        store = repro.ShardedEdgeStore.write(
            path, (src, dst), directed=False, num_shards=SHARDS, num_nodes=n
        )
    return store


def timed(fn, *args, **kwargs):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# ----------------------------------------------------------------------
# the service: sessions and traffic shared by serve-mixed and the probes
# ----------------------------------------------------------------------
class ServeSession:
    """A fresh server child over a new catalog, datasets registered."""

    _ids = itertools.count()

    def __init__(self, ctx, datasets: List[Tuple[str, Path]], tracer: Tracer) -> None:
        catalog = ctx.work / f"catalog-{next(self._ids)}.sqlite"
        self.server = ServerProcess(ctx.root, catalog, ctx.env)
        self.client = Client(self.server.host, self.server.port)
        self.register_s: List[float] = []
        try:
            for name, path in datasets:
                with tracer.span("serve.register", dataset=name):
                    status, payload, dt = self.client.call(
                        "POST", "/datasets", {"name": name, "store": str(path)}
                    )
                if status != 201:
                    raise RuntimeError(f"register {name}: {status} {payload}")
                self.register_s.append(dt)
        except BaseException:
            self.close()
            raise

    def solve(self, dataset: str, epsilon: float):
        return self.client.call(
            "POST",
            "/solve",
            {
                "dataset": dataset,
                "problem": {"kind": "densest_subgraph", "epsilon": epsilon},
                "wait": 120,
            },
        )

    def close(self) -> None:
        self.client.close()
        self.server.stop()


def serve_traffic(
    session: ServeSession,
    problems: List[Tuple[str, float, int]],
    refs: Dict[Tuple[str, float], Answer],
    *,
    seconds: float,
    min_hits: int,
    tracer: Tracer,
    span_prefix: str = "op",
) -> Tuple[List[Op], Dict[str, Any]]:
    """Cold solves of ``problems`` in order, then catalog hits cycling
    over their keys until ``seconds`` have passed and ``min_hits`` hits
    were sent.  Returns the ops and the server-side breakdown."""
    pid = session.server.pid
    wall_offset = time.time() - time.perf_counter()  # server clock -> ours
    ops: List[Op] = []
    answers: Dict[Tuple[str, float], str] = {}
    solved: set = set()
    stats: Dict[str, Any] = {"queue_wait_s": [], "job_s": [], "job_overhead_s": []}
    phase_start = time.perf_counter()
    cpu0 = proc_cpu_seconds(pid)
    for dataset, eps, edges in problems:
        cls = "repeat" if dataset in solved else "first"
        solved.add(dataset)
        gc.collect()
        tracer.request_id = f"op{len(ops)}"
        with tracer.span(f"{span_prefix}.{cls}", dataset=dataset, epsilon=eps) as op_span:
            status, payload, dt = session.solve(dataset, eps)
        ok = status == 200 and payload.get("cached") is False
        if ok:
            sol = repro.Solution.from_jsonable(payload["solution"])
            ok = matches(sol.nodes, sol.density, refs[(dataset, eps)])
            answers[(dataset, eps)] = canonical(payload["solution"])
        ops.append(Op(cls, eps, dt, payload.get("solve_seconds"), edges, ok))
        if tracer.enabled and ok:
            _, listing, _ = session.client.call("GET", "/jobs?limit=1")
            job = listing["jobs"][0]
            submitted = job["submitted_at"] - wall_offset
            started = job["started_at"] - wall_offset
            finished = job["finished_at"] - wall_offset
            parent = op_span["id"]
            tracer.add("serve.queue_wait", submitted, started, parent=parent)
            tracer.add("serve.job", started, finished, parent=parent)
            job_id = len(tracer.spans) - 1
            tracer.add(
                "api.solve", started, started + payload["solve_seconds"], parent=job_id
            )
            stats["queue_wait_s"].append(started - submitted)
            stats["job_s"].append(finished - started)
            stats["job_overhead_s"].append(finished - started - payload["solve_seconds"])
    cpu1 = proc_cpu_seconds(pid)
    cold_end = time.perf_counter()
    keys = itertools.cycle(list(answers) or [(problems[0][0], problems[0][1])])
    edges_of = {(d, e): m for d, e, m in problems}
    hits = 0
    while hits < min_hits or time.perf_counter() - phase_start < seconds:
        key = next(keys)
        gc.collect()
        tracer.request_id = f"op{len(ops)}"
        with tracer.span(f"{span_prefix}.warm", dataset=key[0], epsilon=key[1]):
            status, payload, dt = session.solve(*key)
        ok = (
            status == 200
            and payload.get("cached") is True
            and canonical(payload["solution"]) == answers.get(key)
        )
        ops.append(Op("warm", key[1], dt, None, edges_of[key], ok))
        hits += 1
    stats.update(
        cold_cpu_s=cpu1 - cpu0,
        cold_wall_s=cold_end - phase_start,
        warm_cpu_s=proc_cpu_seconds(pid) - cpu1,
        warm_wall_s=time.perf_counter() - cold_end,
        wall_s=time.perf_counter() - phase_start,
        peak_rss_mb=proc_hwm_mb(pid),
        register_s=list(session.register_s),
    )
    return ops, stats


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up, reference answers, the timed closed loop and the
    per-layer probes of one user path.

    ``nodes`` sizes the inputs; ``epsilons`` are (first question,
    second question).  ``ctx`` carries the checkout root, the run's
    scratch directory and the child environment.
    """

    name = ""
    reference_backend = ""  # not the backend the path under test runs

    def __init__(self, ctx, seed: int, nodes: int, epsilons: Tuple[float, float]):
        self.ctx = ctx
        self.seed = seed
        self.nodes = nodes
        self.epsilons = epsilons
        self.refs: Dict[Tuple[str, float], Answer] = {}

    # the primary input, for the per-layer probes
    def primary(self) -> Tuple[str, Path]:
        raise NotImplementedError

    def corrupt_reference(self) -> None:
        """Self-test hook: make one reference answer wrong."""
        key = next(iter(self.refs))
        ref = self.refs[key]
        self.refs[key] = Answer(ref.nodes, ref.density * 1.5)


class ServeMixed(Workload):
    """``POST /solve`` on the default ``auto`` path over HTTP."""

    name = "serve-mixed"
    reference_backend = "streaming"
    DATASETS = 3

    def setup(self, tracer: Tracer) -> None:
        root = self.ctx.work / f"{self.name}-inputs"
        shutil.rmtree(root, ignore_errors=True)
        self.stores: List[Tuple[str, Path, int]] = []
        for i in range(self.DATASETS):
            path = root / f"d{i}"
            store = write_store(path, self.nodes, (self.seed, i), tracer)
            self.stores.append((f"d{i}", path, store.num_edges))
        # full size: the server's first large solve grows its heap once,
        # and that one-off must not land in a timed operation
        write_store(root / "warmup", self.nodes, (self.seed, self.DATASETS), tracer)
        with tracer.span("serve.start"):
            self.session = ServeSession(
                self.ctx,
                [(name, path) for name, path, _ in self.stores]
                + [("warmup", root / "warmup")],
                tracer,
            )

    def primary(self):
        name, path, _ = self.stores[0]
        return name, path

    def reference(self) -> None:
        for name, path, _ in self.stores:
            store = repro.ShardedEdgeStore.open(path)
            for eps in self.epsilons:
                sol = repro.solve(
                    repro.DensestSubgraph(store, epsilon=eps),
                    backend=self.reference_backend,
                )
                self.refs[(name, eps)] = Answer(sol.nodes, sol.density)

    def warmup(self) -> None:
        for _ in range(2):  # one cold solve, one catalog hit
            status, payload, _ = self.session.solve("warmup", self.epsilons[0])
            if status != 200:
                raise RuntimeError(f"warm-up solve failed: {status} {payload}")

    def problems(self) -> List[Tuple[str, float, int]]:
        return [
            (name, eps, edges) for name, _, edges in self.stores for eps in self.epsilons
        ]

    def run_ops(self, seconds: float, tracer: Tracer) -> List[Op]:
        ops, self.serve_stats = serve_traffic(
            self.session,
            self.problems(),
            self.refs,
            seconds=seconds,
            min_hits=MIN_HITS,
            tracer=tracer,
        )
        self.last_ops = ops
        self.wall_s = self.serve_stats["wall_s"]
        return ops

    def peak_rss_mb(self) -> float:
        return self.serve_stats["peak_rss_mb"]

    def attribute(self, op: Op, facts: Dict[str, Any]) -> Dict[str, float]:
        if op.cls == "warm":
            return {"serve": op.latency_s}
        engine = facts["engine_s"][op.epsilon]
        return {
            "serve": op.latency_s - op.solve_s,
            "api": op.solve_s - engine,
            "kernels": engine,
        }

    def teardown(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None
        shutil.rmtree(self.ctx.work / f"{self.name}-inputs", ignore_errors=True)

    # what the path under test runs, called directly (for api.dispatch)
    def engine_call(self, input_obj, eps: float):
        csr = CSRGraph.from_shards(input_obj)
        return repro.densest_subgraph(csr, eps, engine=core_csr_tier(csr))

    def api_solve(self, input_obj, eps: float):
        return repro.solve(repro.DensestSubgraph(input_obj, epsilon=eps))

    def api_input(self):
        return repro.ShardedEdgeStore.open(self.primary()[1])


class LibraryWorkload(Workload):
    """A path solved in this process with ``repro.solve``.

    The op loop runs in cycles until the time is up: open the input,
    ask the first question (``epsilons[0]``), the second
    (``epsilons[1]``), then the first again.
    """

    def setup(self, tracer: Tracer) -> None:
        root = self.ctx.work / f"{self.name}-inputs"
        shutil.rmtree(root, ignore_errors=True)
        self.store_path = root / "store"
        store = write_store(self.store_path, self.nodes, self.seed, tracer)
        self.edges = store.num_edges
        self.input = self.load(store, tracer)

    def load(self, store, tracer: Tracer):
        return store

    def open_input(self):
        """The input as a user holding it at rest would open it."""
        return self.input

    def primary(self):
        return "store", self.store_path

    def reference(self) -> None:
        store = repro.ShardedEdgeStore.open(self.store_path)
        csr = CSRGraph.from_shards(store)
        for eps in self.epsilons:
            sol = repro.solve(
                repro.DensestSubgraph(csr, epsilon=eps), backend=self.reference_backend
            )
            self.refs[("store", eps)] = Answer(sol.nodes, sol.density)
        del csr, store
        gc.collect()

    def warmup(self) -> None:
        # a full-size solve grows this process's heap once, so that
        # one-off never lands in a timed operation
        self.api_solve(self.open_input(), self.epsilons[0])

    def run_ops(self, seconds: float, tracer: Tracer) -> List[Op]:
        first, second = self.epsilons
        cycle = (("first", first), ("repeat", second), ("warm", first))
        reset_hwm()
        ops: List[Op] = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            handle = self.open_input()
            for cls, eps in cycle:
                gc.collect()
                tracer.request_id = f"op{len(ops)}"
                cpu0 = cpu_seconds()
                with tracer.span(f"op.{cls}", epsilon=eps):
                    t0 = time.perf_counter()
                    sol = self.api_solve(handle, eps)
                    dt = time.perf_counter() - t0
                ok = matches(sol.nodes, sol.density, self.refs[("store", eps)])
                ops.append(Op(cls, eps, dt, dt, self.edges, ok, cpu_seconds() - cpu0))
        self.wall_s = time.perf_counter() - start
        self._peak = proc_hwm_mb(os.getpid())
        return ops

    def peak_rss_mb(self) -> float:
        return self._peak

    def teardown(self) -> None:
        self.input = None
        gc.collect()
        shutil.rmtree(self.ctx.work / f"{self.name}-inputs", ignore_errors=True)

    def api_input(self):
        return self.input

    def attribute(self, op: Op, facts: Dict[str, Any]) -> Dict[str, float]:
        engine = facts["engine_s"][op.epsilon]
        return {"api": op.latency_s - engine, self.engine_layer: engine}


class StreamOutOfCore(LibraryWorkload):
    """The out-of-core library path: ``auto`` under a memory budget
    picks the streaming engine with pass compaction."""

    name = "stream-outofcore"
    reference_backend = "core"
    engine_layer = "streaming"

    def open_input(self):
        # a new handle verifies each shard's CRC on its first read
        return repro.ShardedEdgeStore.open(self.store_path)

    def api_solve(self, input_obj, eps: float):
        return repro.solve(
            repro.DensestSubgraph(input_obj, epsilon=eps),
            memory_budget=4 * input_obj.num_nodes,
        )

    def engine_call(self, input_obj, eps: float):
        return stream_engine(input_obj, eps)

    def attribute(self, op: Op, facts: Dict[str, Any]) -> Dict[str, float]:
        shares = super().attribute(op, facts)
        shares["store"] = facts["scan_s_per_solve"]
        shares["streaming"] -= shares["store"]
        return shares


class MapReducePeel(LibraryWorkload):
    """The paper's MapReduce path on a CSR snapshot: serial runtime,
    columnar engine, classic rounds (all defaults).  The snapshot stays
    open across cycles, so a ``first`` operation differs from a ``warm``
    one only by its place in the cycle."""

    name = "mapreduce-peel"
    reference_backend = "core"
    engine_layer = "mapreduce"

    def load(self, store, tracer):
        with tracer.span("kernels.csr_build"):
            return CSRGraph.from_shards(store)

    def api_solve(self, input_obj, eps: float):
        return repro.solve(
            repro.DensestSubgraph(input_obj, epsilon=eps), backend="mapreduce"
        )

    def engine_call(self, input_obj, eps: float):
        return repro.mr_densest_subgraph(input_obj, eps)


WORKLOADS = {cls.name: cls for cls in (ServeMixed, StreamOutOfCore, MapReducePeel)}

#: Input sizes (nodes) and epsilons (first question, second question).
SIZES = {
    "serve-mixed": (150_000, (0.5, 0.2)),
    "stream-outofcore": (300_000, (0.05, 0.1)),
    # smaller than the others: five first/repeat/warm cycles fit a run
    "mapreduce-peel": (100_000, (0.5, 0.2)),
}


# ----------------------------------------------------------------------
# direct calls into single layers
# ----------------------------------------------------------------------
def core_csr_tier(csr) -> str:
    """The kernel tier the ``core-csr`` backend runs on ``csr``."""
    engines = repro.get_backend("core-csr").capabilities().engines
    return resolve_engine(engines[0] if len(engines) == 1 else "auto", csr)


def stream_engine(store, eps: float):
    """``stream_densest_subgraph`` with the compaction the streaming
    backend picks under a ``4 n`` memory budget."""
    from repro.api import ExecutionContext

    policy = context_policy(
        None, ExecutionContext(memory_budget=4 * store.num_nodes), shard_input=True
    )
    return repro.stream_densest_subgraph(
        repro.ShardEdgeStream(store), eps, compaction=policy
    )


def scan_once(store) -> int:
    """One full pass over the store's edge chunks; returns bytes read."""
    total = 0
    for u, v, w in repro.ShardEdgeStream(store).edge_array_chunks():
        u.sum(), v.sum(), w.sum()  # read every page of the memmapped chunk
        total += u.nbytes + v.nbytes + w.nbytes
    return total


def probe_layers(wl: Workload, tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Time each layer's public calls on ``wl``'s primary input.

    Returns the per-layer metrics and the facts the share report needs.
    Every answer computed here is checked against the references too;
    ``facts["checked"]``/``facts["failed"]`` count them.
    """
    from repro.api import DensestSubgraph, ExecutionContext
    from repro.serve import DensestService, ResultCatalog
    from repro.serve.catalog import params_json, result_key

    name, path = wl.primary()
    eps_first = wl.epsilons[0]
    out: Dict[str, float] = {}
    facts: Dict[str, Any] = {"checked": 0, "failed": 0}

    def check(nodes, density, eps):
        facts["checked"] += 1
        if not matches(nodes, density, wl.refs[(name, eps)]):
            facts["failed"] += 1

    store = repro.ShardedEdgeStore.open(path)
    out["store.write_s"] = median(
        [s["end"] - s["start"] for s in tracer.spans if s["name"] == "store.write"
         and s.get("nodes") == wl.nodes]
    )

    # -- store ---------------------------------------------------------
    fresh = repro.ShardedEdgeStore.open(path)
    fresh.manifest.fingerprint = None  # time the scan, not the cached value
    with tracer.span("store.fingerprint"):
        _, out["store.fingerprint_s"] = timed(fresh.fingerprint, cache=False)
    scan_once(store)  # first touch verifies shard CRCs; time a steady pass
    with tracer.span("store.scan"):
        nbytes, out["store.scan_s"] = timed(scan_once, store)
    out["store.scan_mb_per_s"] = nbytes / 1e6 / out["store.scan_s"]

    # -- kernels -------------------------------------------------------
    with tracer.span("kernels.csr_build"):
        csr, out["kernels.csr_build_s"] = timed(CSRGraph.from_shards, store)
    tier = core_csr_tier(csr)
    with tracer.span("kernels.peel", tier=tier):
        result, peel_s = timed(repro.densest_subgraph, csr, eps_first, engine=tier)
    check(result.nodes, result.density, eps_first)
    out["kernels.peel_ms"] = peel_s * 1e3
    out["kernels.passes"] = result.passes
    out["kernels.tier"] = ("python", "numpy", "bucketq", "native").index(tier)
    facts["tier"] = tier

    # -- api: the path's own solve vs its engine called directly --------
    api_input = wl.api_input()
    solve_s, dispatch_s, engine_s = [], [], {}
    first_solution = None
    for eps in wl.epsilons:
        with tracer.span("api.solve", epsilon=eps):
            sol, s = timed(wl.api_solve, api_input, eps)
        check(sol.nodes, sol.density, eps)
        with tracer.span("api.engine", epsilon=eps):
            _, e = timed(wl.engine_call, api_input, eps)
        solve_s.append(s)
        dispatch_s.append(s - e)
        engine_s[eps] = e
        first_solution = first_solution or sol
    out["api.solve_s"] = median(solve_s)
    out["api.dispatch_ms"] = median(dispatch_s) * 1e3
    facts["engine_s"] = engine_s
    encodes = []
    for _ in range(5):
        with tracer.span("api.encode"):
            text, e = timed(first_solution.to_json)
        encodes.append(e)
    out["api.encode_ms"] = median(encodes) * 1e3
    out["api.solution_kb"] = len(text.encode()) / 1024.0

    # -- serve, in process: catalog and the transport-free service -----
    catalog = ResultCatalog(wl.ctx.work / f"probe-{wl.name}.sqlite")
    service = DensestService(catalog)
    try:
        record = service.register_dataset({"name": name, "store": str(path)})
        problem = DensestSubgraph(store, epsilon=eps_first)
        params = params_json(problem)
        key = result_key(record.fingerprint, problem.kind, params, "auto")
        with tracer.span("serve.catalog_put"):
            _, put_s = timed(
                catalog.put,
                key,
                dataset_fingerprint=record.fingerprint,
                problem_kind=problem.kind,
                params=params,
                backend="auto",
                solution=first_solution,
                solve_seconds=solve_s[0],
            )
        out["serve.catalog_put_ms"] = put_s * 1e3
        gets, warms = [], []
        body = {"dataset": name, "problem": {"kind": problem.kind, "epsilon": eps_first}}
        expected = canonical(json.loads(first_solution.to_json()))
        for _ in range(PROBE_HITS):
            with tracer.span("serve.catalog_get"):
                _, g = timed(catalog.get, key)
            gets.append(g)
            with tracer.span("serve.service_warm"):
                (status, payload), w = timed(service.solve_request, body)
            warms.append(w)
            facts["checked"] += 1
            if status != 200 or canonical(payload["solution"]) != expected:
                facts["failed"] += 1
        out["serve.catalog_get_ms"] = median(gets) * 1e3
        out["serve.service_warm_ms"] = median(warms) * 1e3
    finally:
        service.close()

    # -- serve over HTTP: the serve-mixed traced traffic, or a session --
    stats = getattr(wl, "serve_stats", None)
    if stats is None:
        session = ServeSession(wl.ctx, [(name, path)], tracer)
        try:
            ops, stats = serve_traffic(
                session,
                [(name, eps, store.num_edges) for eps in wl.epsilons],
                wl.refs,
                seconds=0.0,
                min_hits=PROBE_HITS,
                tracer=tracer,
                span_prefix="serve.probe",
            )
        finally:
            session.close()
        facts["checked"] += len(ops)
        facts["failed"] += sum(not op.correct for op in ops)
        warm = [op.latency_s for op in ops if op.cls == "warm"]
    else:
        warm = [op.latency_s for op in wl.last_ops if op.cls == "warm"]
    out["serve.register_ms"] = median(stats["register_s"]) * 1e3
    out["serve.http_ms"] = median(warm) * 1e3 - out["serve.service_warm_ms"]
    out["serve.queue_wait_ms"] = median(stats["queue_wait_s"]) * 1e3
    out["serve.job_ms"] = median(stats["job_s"]) * 1e3
    out["serve.job_overhead_ms"] = median(stats["job_overhead_s"]) * 1e3
    out["serve.cpu_s"] = stats["cold_cpu_s"] + stats["warm_cpu_s"]
    facts["serve"] = stats

    # -- streaming -----------------------------------------------------
    with tracer.span("streaming.solve"):
        sol, _ = timed(
            repro.solve,
            DensestSubgraph(store, epsilon=eps_first),
            backend="streaming",
            context=ExecutionContext(memory_budget=4 * store.num_nodes),
        )
    check(sol.nodes, sol.density, eps_first)
    cost = sol.cost
    out["streaming.passes"] = cost.stream_passes
    out["streaming.bytes_scanned_mb"] = cost.bytes_scanned / 1e6
    out["streaming.edges_streamed"] = cost.edges_streamed
    out["streaming.scan_ratio"] = cost.bytes_scanned / (
        cost.stream_passes * store.nbytes()
    )
    with tracer.span("streaming.engine"):
        result, e = timed(stream_engine, store, eps_first)
    check(result.nodes, result.density, eps_first)
    out["streaming.engine_ms"] = e * 1e3
    # the solve's bytes scanned at the measured steady scan rate
    facts["scan_s_per_solve"] = cost.bytes_scanned / 1e6 / out["store.scan_mb_per_s"]

    # -- mapreduce -----------------------------------------------------
    with tracer.span("mapreduce.solve"):
        sol, wall = timed(
            repro.solve, DensestSubgraph(csr, epsilon=eps_first), backend="mapreduce"
        )
    check(sol.nodes, sol.density, eps_first)
    rounds = [c for per_pass in sol.details.rounds_per_pass for c in per_pass]
    out["mapreduce.rounds"] = len(rounds)
    out["mapreduce.shuffle_mb"] = sum(c.shuffle_bytes for c in rounds) / 1e6
    out["mapreduce.shuffle_records"] = sum(c.shuffle_records for c in rounds)
    out["mapreduce.map_input_records"] = sum(c.map_input_records for c in rounds)
    out["mapreduce.round_ms"] = wall / len(rounds) * 1e3
    del csr
    gc.collect()
    return out, facts
