"""Checkpoint/resume for long streaming peels.

A deep at-least-k peel on a big store can run hundreds of passes over
many minutes; a crash at pass 140 of 164 should not restart from zero.
The undirected engines therefore accept a :class:`CheckpointConfig`:
every ``every`` passes the O(n) between-pass state is persisted — one
atomic file in the checkpoint directory — and a rerun of the *same*
solve resumes from it, producing a Solution bit-identical to an
uninterrupted run.

What gets saved (and why it suffices)
-------------------------------------
The engines recompute all O(m) state (degree counters, surviving
weight) from the input stream every pass; only O(n) state survives
between passes.  A checkpoint is exactly that state:

* the packed alive bitmap and remaining-node count,
* the pass counter and the pending trace fields of the last removal,
* the best set / density / pass seen so far and the trace records,
* the stream's accounting counters (passes/edges/bytes so far).

On resume the engine rescans the *original* input under the restored
alive mask.  Pass compaction never changes which edges a scan counts
(a rewrite holds exactly the surviving records), so rescanning the
original source yields bit-identical degrees, removals, and trace —
only the physical bytes-read trajectory may differ, and the restored
accounting keeps the logical counters coherent.

Format
------
One ``.npz`` file (``peel-checkpoint.npz``) written tmp + atomic
rename, holding the packed alive bitmap, the best-set indices, and a
JSON metadata blob (algorithm kind, parameters, counters, trace).
Loads validate the kind/parameters/universe against the resuming call
and raise :class:`~repro.errors.CheckpointError` on mismatch — a
checkpoint from a different problem must never silently steer a solve.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, List, Optional, Union

import numpy as _np

from ..core.trace import PassRecord
from ..errors import CheckpointError

#: Checkpoint file format tag + version (bump on layout changes).
_FORMAT = "repro-peel-checkpoint"
_VERSION = 1
CHECKPOINT_NAME = "peel-checkpoint.npz"


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a peel persists its between-pass state.

    ``path`` is a directory (created on first save); ``every`` is the
    pass interval; ``keep=True`` leaves the checkpoint file behind
    after a successful run (default: a completed solve removes it, so
    a later solve with the same config starts fresh).
    """

    path: Union[str, Path]
    every: int = 16
    keep: bool = False

    def __post_init__(self) -> None:
        if int(self.every) < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1, got {self.every}"
            )

    @classmethod
    def coerce(cls, value) -> Optional["CheckpointConfig"]:
        """``None`` | config | directory path → config (or ``None``)."""
        if value is None or value is False:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(path=value)
        raise CheckpointError(
            f"checkpoint must be a directory path or CheckpointConfig, "
            f"got {type(value).__name__}"
        )

    @property
    def file(self) -> Path:
        return Path(self.path) / CHECKPOINT_NAME


def save_peel_checkpoint(
    config: CheckpointConfig,
    *,
    kind: str,
    params: dict,
    n: int,
    pass_index: int,
    remaining: int,
    alive: "_np.ndarray",
    best_set: Optional[List[int]],
    best_density: Optional[float],
    best_pass: int,
    pending: Optional[dict],
    trace: List[PassRecord],
    accounting: Optional[Any] = None,
) -> Path:
    """Persist one peel's between-pass state, atomically.

    The file appears complete or not at all: contents are staged into a
    ``.tmp`` sibling and renamed over the previous checkpoint, so a
    crash mid-save leaves the older (still valid) checkpoint in place.
    """
    directory = Path(config.path)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": kind,
        "params": params,
        "n": int(n),
        "pass_index": int(pass_index),
        "remaining": int(remaining),
        "best_set_is_none": best_set is None,
        "best_density": best_density,
        "best_pass": int(best_pass),
        "pending": pending,
        "trace": [list(astuple(record)) for record in trace],
        "accounting": _accounting_state(accounting),
    }
    target = config.file
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            _np.savez(
                handle,
                meta=_np.frombuffer(
                    json.dumps(meta).encode("utf-8"), dtype=_np.uint8
                ),
                alive=_np.packbits(_np.asarray(alive, dtype=bool)),
                best_set=_np.asarray(
                    best_set if best_set is not None else [], dtype=_np.int64
                ),
            )
        os.replace(tmp, target)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {target}: {exc}") from exc
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover
                pass
    return target


def load_peel_checkpoint(
    config: CheckpointConfig, *, kind: str, params: dict, n: int
) -> Optional[dict]:
    """Load and validate a checkpoint; ``None`` when there is none.

    Raises :class:`CheckpointError` when a checkpoint exists but was
    taken by a different algorithm, with different parameters, or over
    a different node universe — resuming it would corrupt the solve.
    """
    target = config.file
    if not target.exists():
        return None
    try:
        with _np.load(target, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            alive_packed = data["alive"].copy()
            best_set = data["best_set"].copy()
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint {target}: {exc}"
        ) from exc
    if meta.get("format") != _FORMAT or meta.get("version") != _VERSION:
        raise CheckpointError(
            f"{target} is not a version-{_VERSION} peel checkpoint"
        )
    if meta.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {target} was taken by {meta.get('kind')!r}, "
            f"cannot resume a {kind!r} peel from it"
        )
    if meta.get("n") != int(n):
        raise CheckpointError(
            f"checkpoint {target} covers a universe of {meta.get('n')} "
            f"nodes, this stream has {n}"
        )
    if meta.get("params") != _jsonable(params):
        raise CheckpointError(
            f"checkpoint {target} was taken with parameters "
            f"{meta.get('params')!r}, this solve uses {_jsonable(params)!r}"
        )
    alive = _np.unpackbits(alive_packed, count=int(n)).astype(bool)
    return {
        "pass_index": int(meta["pass_index"]),
        "remaining": int(meta["remaining"]),
        "alive": alive,
        "best_set": (
            None if meta["best_set_is_none"] else [int(i) for i in best_set]
        ),
        "best_density": meta["best_density"],
        "best_pass": int(meta["best_pass"]),
        "pending": meta["pending"],
        "trace": [PassRecord(*fields) for fields in meta["trace"]],
        "accounting": meta.get("accounting"),
    }


def clear_checkpoint(config: CheckpointConfig) -> None:
    """Remove the checkpoint file (a completed run's final act)."""
    try:
        config.file.unlink()
    except FileNotFoundError:
        pass
    except OSError:  # pragma: no cover - read-only dir: leave it
        pass


def _accounting_state(accounting) -> Optional[dict]:
    """Snapshot a StreamAccounting's counters (or None)."""
    if accounting is None:
        return None
    return {
        "passes_made": accounting.passes_made,
        "edges_streamed": accounting.edges_streamed,
        "bytes_scanned": accounting.bytes_scanned,
        "pass_edges": list(accounting.pass_edges),
        "pass_bytes": list(accounting.pass_bytes),
    }


def restore_accounting(accounting, snapshot: Optional[dict]) -> None:
    """Apply a saved counter snapshot onto a live StreamAccounting."""
    if accounting is None or snapshot is None:
        return
    accounting.passes_made = int(snapshot["passes_made"])
    accounting.edges_streamed = int(snapshot["edges_streamed"])
    accounting.bytes_scanned = int(snapshot["bytes_scanned"])
    accounting.pass_edges = [int(e) for e in snapshot["pass_edges"]]
    accounting.pass_bytes = [int(b) for b in snapshot["pass_bytes"]]


def _jsonable(value):
    """``value`` as it will compare after a JSON round-trip."""
    return json.loads(json.dumps(value))
