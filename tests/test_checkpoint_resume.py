"""Checkpoint/resume for long streaming peels.

The invariant under test: a peel interrupted at pass p and resumed
from its checkpoint produces a result *bit-identical* to the same
peel never having been interrupted — same node set, same density
floats, same trace, same pass count.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import DensestAtLeastK, DensestSubgraph, ExecutionContext, solve
from repro.datasets.synthetic import nested_core_edge_arrays
from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    InjectedFaultError,
    JobCancelledError,
)
from repro.faults import FaultPlan, RunControl
from repro.streaming import ArrayEdgeStream, CheckpointConfig, MemoryEdgeStream
from repro.streaming.checkpoint import CHECKPOINT_NAME
from repro.streaming.engine import (
    stream_densest_subgraph,
    stream_densest_subgraph_atleast_k,
)

N = 1200
K = 25
EPS = 0.05


def _stream():
    src, dst = nested_core_edge_arrays(N, seed=3)
    return ArrayEdgeStream(src, dst, num_nodes=N)


def _str_stream():
    src, dst = nested_core_edge_arrays(N, seed=3)
    return MemoryEdgeStream(
        [(f"n{u}", f"n{v}") for u, v in zip(src.tolist(), dst.tolist())],
        nodes=[f"n{i}" for i in range(N)],
    )


def _assert_identical(a, b):
    assert a.nodes == b.nodes
    assert a.density == b.density  # exact float equality, not approx
    assert a.passes == b.passes
    assert a.best_pass == b.best_pass
    assert a.trace == b.trace


def _check_atleast_k_resume(tmp_path, make_stream):
    clean = stream_densest_subgraph_atleast_k(make_stream(), K, EPS)
    assert clean.passes > 20  # the peel must be deep enough to matter

    ckpt = CheckpointConfig(tmp_path / "ck", every=4)
    fault_pass = clean.passes - 3
    control = RunControl(fault_plan=FaultPlan.raise_at_pass(fault_pass))
    with pytest.raises(InjectedFaultError):
        stream_densest_subgraph_atleast_k(
            make_stream(), K, EPS, checkpoint=ckpt, control=control
        )
    assert (tmp_path / "ck" / CHECKPOINT_NAME).exists()

    resumed = stream_densest_subgraph_atleast_k(
        make_stream(), K, EPS, checkpoint=ckpt
    )
    _assert_identical(resumed, clean)
    # a successful run removes its checkpoint
    assert not (tmp_path / "ck" / CHECKPOINT_NAME).exists()
    return clean


class TestResumeBitIdentical:
    def test_atleast_k_resume_after_fault(self, tmp_path):
        _check_atleast_k_resume(tmp_path, _stream)

    def test_atleast_k_resume_after_fault_str_labels(self, tmp_path):
        # Non-int labels share the scanner path, so they checkpoint too.
        clean = _check_atleast_k_resume(tmp_path, _str_stream)
        int_run = stream_densest_subgraph_atleast_k(_stream(), K, EPS)
        assert clean.nodes == {f"n{i}" for i in int_run.nodes}
        assert clean.trace == int_run.trace

    def test_algorithm1_resume_after_fault(self, tmp_path):
        clean = stream_densest_subgraph(_stream(), EPS)
        ckpt = CheckpointConfig(tmp_path / "ck", every=3)
        control = RunControl(
            fault_plan=FaultPlan.raise_at_pass(max(clean.passes - 2, 4))
        )
        with pytest.raises(InjectedFaultError):
            stream_densest_subgraph(
                _stream(), EPS, checkpoint=ckpt, control=control
            )
        resumed = stream_densest_subgraph(_stream(), EPS, checkpoint=ckpt)
        _assert_identical(resumed, clean)

    def test_resume_under_compaction(self, tmp_path):
        from repro.streaming import CompactionPolicy

        (tmp_path / "spill").mkdir()
        clean = stream_densest_subgraph_atleast_k(_stream(), K, EPS)
        policy = CompactionPolicy(
            threshold=0.8, spill_dir=str(tmp_path / "spill"), memory_edges=500
        )
        ckpt = CheckpointConfig(tmp_path / "ck", every=5)
        control = RunControl(
            fault_plan=FaultPlan.raise_at_pass(clean.passes - 4)
        )
        with pytest.raises(InjectedFaultError):
            stream_densest_subgraph_atleast_k(
                _stream(), K, EPS,
                compaction=CompactionPolicy(
                    threshold=0.8,
                    spill_dir=str(tmp_path / "spill"),
                    memory_edges=500,
                ),
                checkpoint=ckpt,
                control=control,
            )
        resumed = stream_densest_subgraph_atleast_k(
            _stream(), K, EPS, compaction=policy, checkpoint=ckpt
        )
        _assert_identical(resumed, clean)

    def test_keep_leaves_checkpoint_behind(self, tmp_path):
        ckpt = CheckpointConfig(tmp_path / "ck", every=2, keep=True)
        stream_densest_subgraph_atleast_k(_stream(), K, EPS, checkpoint=ckpt)
        assert (tmp_path / "ck" / CHECKPOINT_NAME).exists()


class TestCheckpointValidation:
    def test_param_mismatch_refuses_resume(self, tmp_path):
        ckpt = CheckpointConfig(tmp_path / "ck", every=2)
        control = RunControl(fault_plan=FaultPlan.raise_at_pass(10))
        with pytest.raises(InjectedFaultError):
            stream_densest_subgraph_atleast_k(
                _stream(), K, EPS, checkpoint=ckpt, control=control
            )
        with pytest.raises(CheckpointError, match="parameters"):
            stream_densest_subgraph_atleast_k(
                _stream(), K + 5, EPS, checkpoint=ckpt
            )

    def test_kind_mismatch_refuses_resume(self, tmp_path):
        ckpt = CheckpointConfig(tmp_path / "ck", every=2)
        control = RunControl(fault_plan=FaultPlan.raise_at_pass(10))
        with pytest.raises(InjectedFaultError):
            stream_densest_subgraph_atleast_k(
                _stream(), K, EPS, checkpoint=ckpt, control=control
            )
        with pytest.raises(CheckpointError, match="cannot resume"):
            stream_densest_subgraph(_stream(), EPS, checkpoint=ckpt)

    def test_garbage_checkpoint_raises(self, tmp_path):
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / CHECKPOINT_NAME).write_bytes(b"not an npz")
        with pytest.raises(CheckpointError, match="unreadable"):
            stream_densest_subgraph_atleast_k(
                _stream(), K, EPS,
                checkpoint=CheckpointConfig(tmp_path / "ck"),
            )

    def test_interval_validation(self, tmp_path):
        with pytest.raises(CheckpointError, match=">= 1"):
            CheckpointConfig(tmp_path, every=0)


class TestRunControl:
    def test_preset_cancel_event_stops_first_pass(self):
        import threading

        event = threading.Event()
        event.set()
        with pytest.raises(JobCancelledError):
            stream_densest_subgraph(
                _stream(), EPS, control=RunControl(cancel_event=event)
            )

    def test_expired_deadline_stops_first_pass(self):
        control = RunControl(deadline_seconds=1e-9)
        import time

        time.sleep(0.01)
        with pytest.raises(DeadlineExceededError):
            stream_densest_subgraph(_stream(), EPS, control=control)

    def test_from_context_threads_fields(self):
        import threading

        event = threading.Event()
        context = ExecutionContext(cancel_event=event, deadline_seconds=30)
        control = RunControl.from_context(context)
        assert control is not None
        assert control.cancel_event is event
        assert control.deadline_at is not None
        assert RunControl.from_context(ExecutionContext()) is None


class TestSolveApiWiring:
    def test_context_checkpoint_resume_through_solve(self, tmp_path):
        src, dst = nested_core_edge_arrays(N, seed=3)
        clean = solve(
            DensestAtLeastK(ArrayEdgeStream(src, dst, num_nodes=N), k=K, epsilon=EPS),
            backend="streaming",
        )
        context = ExecutionContext(
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_every=4,
            fault_plan=FaultPlan.raise_at_pass(20),
        )
        with pytest.raises(InjectedFaultError):
            solve(
                DensestAtLeastK(
                    ArrayEdgeStream(src, dst, num_nodes=N), k=K, epsilon=EPS
                ),
                backend="streaming",
                context=context,
            )
        resumed = solve(
            DensestAtLeastK(ArrayEdgeStream(src, dst, num_nodes=N), k=K, epsilon=EPS),
            backend="streaming",
            context=dataclasses.replace(context, fault_plan=None),
        )
        assert resumed.nodes == clean.nodes
        assert resumed.density == clean.density

    def test_context_deadline_through_solve(self):
        src, dst = nested_core_edge_arrays(N, seed=3)
        with pytest.raises(DeadlineExceededError):
            solve(
                DensestSubgraph(
                    ArrayEdgeStream(src, dst, num_nodes=N), epsilon=EPS
                ),
                backend="streaming",
                context=ExecutionContext(deadline_seconds=1e-9),
            )
