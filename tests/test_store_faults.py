"""Crash safety and corruption detection for the sharded edge store.

The store's robustness contract: a crashed writer leaves no readable
half-store behind (the manifest is the commit record), and bit rot in
a shard payload surfaces as a typed :class:`StoreCorruptionError` on
first read — never as silently wrong edges.  ``verify``/``repair``
turn a damaged store into an explicitly quarantined one.  A damaged or
stale CSR sidecar is never served: the solve rebuilds it.
"""

import os
import threading

import numpy as np
import pytest

from repro.api import DensestSubgraph, solve
from repro.errors import InjectedFaultError, StoreError, StoreCorruptionError
from repro.faults import FaultPlan, corrupt_shard
from repro.kernels import CSRGraph
from repro.store import ShardWriter, ShardedEdgeStore, shards, sidecar
from repro.store.shards import MANIFEST_NAME, _PREAMBLE_BYTES


def _write_store(path, *, num_shards=4, n=300, m=2500, seed=0, fault_plan=None):
    rng = np.random.default_rng(seed)
    with ShardWriter(
        path,
        num_shards=num_shards,
        num_nodes=n,
        directed=False,
        fault_plan=fault_plan,
    ) as writer:
        writer.append_arrays(rng.integers(0, n, m), rng.integers(0, n, m))
    return ShardedEdgeStore.open(path)


class TestAtomicWrites:
    def test_manifest_records_shard_crcs(self, tmp_path):
        store = _write_store(tmp_path / "st")
        assert store.manifest.shard_crcs is not None
        assert len(store.manifest.shard_crcs) == store.num_shards
        assert all(isinstance(c, int) for c in store.manifest.shard_crcs)

    def test_no_tmp_debris_after_clean_close(self, tmp_path):
        _write_store(tmp_path / "st")
        assert not list((tmp_path / "st").glob("*.tmp"))

    def test_injected_writer_crash_leaves_no_manifest(self, tmp_path):
        plan = FaultPlan.crash_writer_at(shard=1)
        with pytest.raises(InjectedFaultError):
            _write_store(tmp_path / "st", fault_plan=plan)
        # no commit record -> the directory is not a store
        assert not (tmp_path / "st" / MANIFEST_NAME).exists()
        with pytest.raises(StoreError, match="no shard store"):
            ShardedEdgeStore.open(tmp_path / "st")
        assert plan.pending() == []

    def test_rerun_after_crash_succeeds_identically(self, tmp_path):
        plan = FaultPlan.crash_writer_at(shard=1)
        with pytest.raises(InjectedFaultError):
            _write_store(tmp_path / "st", fault_plan=plan)
        # same directory, same data, no armed fault: clean store
        recovered = _write_store(tmp_path / "st")
        reference = _write_store(tmp_path / "ref")
        assert recovered.fingerprint() == reference.fingerprint()
        assert not list((tmp_path / "st").glob("*.tmp"))

    def test_open_sweeps_stale_tmp_debris(self, tmp_path):
        store = _write_store(tmp_path / "st")
        debris = tmp_path / "st" / "shard-00000.npy.tmp"
        debris.write_bytes(b"leftover")
        store = ShardedEdgeStore.open(tmp_path / "st")
        assert not debris.exists()
        assert store.num_edges > 0


class TestCorruptionDetection:
    def test_flipped_payload_byte_raises_typed_error(self, tmp_path):
        store = _write_store(tmp_path / "st")
        corrupt_shard(tmp_path / "st", shard=2)
        reopened = ShardedEdgeStore.open(tmp_path / "st")
        with pytest.raises(StoreCorruptionError, match="checksum mismatch"):
            reopened.shard_arrays(2)

    def test_intact_shards_stay_readable(self, tmp_path):
        store = _write_store(tmp_path / "st")
        corrupt_shard(tmp_path / "st", shard=2)
        reopened = ShardedEdgeStore.open(tmp_path / "st")
        for shard in (0, 1, 3):
            src, dst, _ = reopened.shard_arrays(shard)
            assert src.size == reopened.manifest.shard_edges[shard]

    def test_truncated_shard_detected_without_checksum(self, tmp_path):
        store = _write_store(tmp_path / "st")
        path = store.shard_path(1)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 24)
        reopened = ShardedEdgeStore.open(tmp_path / "st")
        with pytest.raises(StoreCorruptionError, match="bytes"):
            reopened.shard_arrays(1)
        # shallow verification (no checksum pass) also sees it
        assert not reopened.verify(deep=False).ok

    def test_verification_is_lazy_and_cached(self, tmp_path):
        store = _write_store(tmp_path / "st")
        reopened = ShardedEdgeStore.open(tmp_path / "st")
        reopened.shard_arrays(0)
        # corrupting after a shard passed verification is not re-checked
        # (verification is first-open; this documents the cache)
        corrupt_shard(tmp_path / "st", shard=0)
        reopened.shard_arrays(0)
        # ...but a fresh open re-verifies and catches it
        with pytest.raises(StoreCorruptionError):
            ShardedEdgeStore.open(tmp_path / "st").shard_arrays(0)


class TestVerifyRepair:
    def test_verify_reports_all_problems(self, tmp_path):
        store = _write_store(tmp_path / "st")
        assert store.verify().ok
        corrupt_shard(tmp_path / "st", shard=0)
        corrupt_shard(tmp_path / "st", shard=3)
        report = ShardedEdgeStore.open(tmp_path / "st").verify()
        assert not report.ok
        assert sorted(shard for shard, _ in report.problems) == [0, 3]
        with pytest.raises(StoreCorruptionError):
            report.raise_if_corrupt()

    def test_repair_quarantines_and_marks_manifest(self, tmp_path):
        store = _write_store(tmp_path / "st")
        corrupt_shard(tmp_path / "st", shard=2)
        damaged = ShardedEdgeStore.open(tmp_path / "st")
        damaged.repair()
        assert (tmp_path / "st" / "quarantine" / "shard-00002.npy").exists()
        assert not damaged.shard_path(2).exists()
        # manifest remembers across reopen; reads fail typed, fast
        reopened = ShardedEdgeStore.open(tmp_path / "st")
        assert reopened.manifest.quarantined == [2]
        with pytest.raises(StoreCorruptionError, match="quarantined"):
            reopened.shard_arrays(2)
        # healthy shards unaffected
        src, _, _ = reopened.shard_arrays(0)
        assert src.size == reopened.manifest.shard_edges[0]

    def test_repair_on_healthy_store_is_noop(self, tmp_path):
        store = _write_store(tmp_path / "st")
        report = store.repair()
        assert report.ok
        assert not (tmp_path / "st" / "quarantine").exists()


class TestFaultPlanSemantics:
    def test_take_is_one_shot(self):
        plan = FaultPlan.crash_writer_at(shard=1)
        assert plan.take("store.shard_write", 1) is not None
        assert plan.take("store.shard_write", 1) is None
        assert plan.fired == [
            {"site": "store.shard_write", "index": 1, "mode": "raise"}
        ]

    def test_save_log_roundtrip(self, tmp_path):
        import json

        plan = FaultPlan.kill_worker_at("map", 3, seed=7)
        plan.take("mapreduce.map", 3)
        log = tmp_path / "faults.json"
        plan.save_log(log)
        payload = json.loads(log.read_text())
        assert payload["seed"] == 7
        assert payload["fired"][0]["mode"] == "kill_worker"
        assert payload["pending"] == []

    def test_corrupt_offset_deterministic(self, tmp_path):
        _write_store(tmp_path / "a", seed=5)
        _write_store(tmp_path / "b", seed=5)
        off_a = corrupt_shard(tmp_path / "a", shard=1, seed=9)
        off_b = corrupt_shard(tmp_path / "b", shard=1, seed=9)
        assert off_a == off_b >= _PREAMBLE_BYTES


# ----------------------------------------------------------------------
# CSR sidecar
# ----------------------------------------------------------------------
def _solve(source):
    solution = solve(DensestSubgraph(source, epsilon=0.3), backend="core")
    return solution.nodes, solution.density, solution.certificate


def _reference(store):
    """The answer on a CSR built straight from the shards."""
    return _solve(CSRGraph.from_shards(store))


def _count_builds(monkeypatch):
    calls = []
    real = CSRGraph.from_shards.__func__

    def counting(cls, store):
        calls.append(store)
        return real(cls, store)

    monkeypatch.setattr(CSRGraph, "from_shards", classmethod(counting))
    return calls


def _maps_valid_sidecar(root) -> bool:
    """Whether a fresh handle maps (CRC-checks) the sidecar unrebuilt."""
    csr = sidecar.csr_snapshot(ShardedEdgeStore.open(root), CSRGraph)
    return all(isinstance(getattr(csr, name), np.memmap) for name in CSRGraph.ARRAYS)


def _flip_last_byte(path):
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes((byte[0] ^ 0xFF,)))


class TestCsrSidecarFaults:
    def test_flipped_payload_byte_rebuilds_and_rewrites(self, tmp_path, monkeypatch):
        root = tmp_path / "st"
        store = _write_store(root)
        expected = _reference(store)
        assert _solve(store) == expected  # writes the sidecar
        _flip_last_byte(root / "csr-weights.npy")
        builds = _count_builds(monkeypatch)
        assert _solve(ShardedEdgeStore.open(root)) == expected
        assert len(builds) == 1
        assert _maps_valid_sidecar(root)
        assert len(builds) == 1

    def test_truncated_array_rebuilds(self, tmp_path, monkeypatch):
        root = tmp_path / "st"
        store = _write_store(root)
        expected = _reference(store)
        _solve(store)
        path = root / "csr-indices.npy"
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 4)
        builds = _count_builds(monkeypatch)
        assert _solve(ShardedEdgeStore.open(root)) == expected
        assert len(builds) == 1
        assert _maps_valid_sidecar(root)

    @pytest.mark.parametrize(
        "seed, num_shards",
        [(1, 4), (0, 5)],
        ids=["new-edges", "same-edges-new-layout"],
    )
    def test_store_rewritten_in_place_rebuilds(
        self, tmp_path, monkeypatch, seed, num_shards
    ):
        # Same edges in a new shard layout keep the fingerprint but can
        # reorder parallel entries inside a CSR row: the shard CRCs in
        # the content key catch that.
        root = tmp_path / "st"
        original = _write_store(root, seed=0)
        _solve(original)
        for path in root.glob("shard-*.npy"):
            path.unlink()
        (root / MANIFEST_NAME).unlink()
        rewritten = _write_store(root, seed=seed, num_shards=num_shards)
        assert (rewritten.fingerprint() == original.fingerprint()) is (seed == 0)
        expected = _reference(rewritten)
        builds = _count_builds(monkeypatch)
        assert _solve(rewritten) == expected
        assert len(builds) == 1
        assert _maps_valid_sidecar(root)

    def test_open_sweeps_sidecar_tmp_debris(self, tmp_path, monkeypatch):
        root = tmp_path / "st"
        store = _write_store(root)
        expected = _solve(store)
        debris = [root / "csr-indices.npy.4242-17.tmp", root / "csr.json.4242-17.tmp"]
        for path in debris:
            path.write_bytes(b"leftover")
        reopened = ShardedEdgeStore.open(root)
        assert not any(path.exists() for path in debris)
        builds = _count_builds(monkeypatch)
        assert _solve(reopened) == expected
        assert builds == []

    def test_read_only_store_solves_without_writing(self, tmp_path, monkeypatch):
        root = tmp_path / "st"
        store = _write_store(root)
        store.fingerprint()  # cached while the directory is writable
        expected = _reference(store)
        root.chmod(0o555)
        try:
            if os.access(root, os.W_OK):  # root ignores directory modes

                def read_only(path, mode="r", *args, **kwargs):
                    if "w" in mode:
                        raise PermissionError(13, "Permission denied", str(path))
                    return open(path, mode, *args, **kwargs)

                monkeypatch.setattr(shards, "open", read_only, raising=False)
            assert _solve(store) == expected
            assert _solve(ShardedEdgeStore.open(root)) == expected
        finally:
            root.chmod(0o755)
        assert not list(root.glob("csr*"))
        assert not list(root.glob("*.tmp"))

    def test_deleted_shard_fails_typed_despite_sidecar(self, tmp_path):
        root = tmp_path / "st"
        store = _write_store(root)
        _solve(store)
        store.shard_path(1).unlink()
        with pytest.raises(StoreCorruptionError, match="shard 1 file .* is missing"):
            _solve(ShardedEdgeStore.open(root))

    def test_quarantined_shard_fails_typed_despite_sidecar(self, tmp_path):
        root = tmp_path / "st"
        store = _write_store(root)
        _solve(store)
        corrupt_shard(root, shard=2)
        ShardedEdgeStore.open(root).repair()
        with pytest.raises(StoreCorruptionError, match="quarantined"):
            _solve(ShardedEdgeStore.open(root))

    def test_racing_first_solves_leave_one_valid_sidecar(self, tmp_path):
        import sys

        root = tmp_path / "st"
        store = _write_store(root, n=3000, m=40000)
        expected = _reference(store)
        racers = 4  # more threads than CI cores
        barrier = threading.Barrier(racers)
        answers = [None] * racers

        def first_solve(slot):
            barrier.wait(timeout=30)
            answers[slot] = _solve(store)

        threads = [
            threading.Thread(target=first_solve, args=(i,)) for i in range(racers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * racers
        assert not list(root.glob("*.tmp"))
        assert _maps_valid_sidecar(root)
        assert _solve(ShardedEdgeStore.open(root)) == expected
