"""The CSR snapshot a shard store carries beside its shards.

Every in-memory solve of a store (``core`` and ``mapreduce``) needs the
store's CSR snapshot, and building it (:meth:`CSRGraph.from_shards`)
costs several times the peel that follows.  The snapshot is a pure
function of the store's content, so the first in-memory solve writes it
into the store directory and every later one maps it back instead of
rebuilding it.

Format
------
* One standard ``.npy`` file per array of the snapshot class, named
  ``csr-<array>.npy`` — ``indptr``/``indices``/``weights``/``degrees``
  for :class:`~repro.kernels.CSRGraph`, the eight out-/in-arrays for
  :class:`~repro.kernels.CSRDigraph`.  One code path serves both,
  driven by the class's ``ARRAYS`` list.
* ``csr.json`` is the commit record, written last.  It holds the
  sidecar version, the key of the store content it was built from (the
  store fingerprint, directedness, node count and shard CRCs), the
  snapshot's ``total_weight``, and each array's dtype, shape and CRC-32
  of its payload.

Every file goes through the store's tmp + rename writer, whose tmp
names are unique per process and thread and end in ``.tmp``, so the
store's debris sweep removes crash leftovers.  There is no fsync: the sidecar is a
derived cache, and a torn write fails its CRC and is rebuilt.

Reading
-------
The arrays are mapped read-only (``mmap_mode="r"``): the kernels only
read CSR arrays (the peels copy ``degrees`` first), and a stray write
faults instead of corrupting the cache.  CRCs are checked once per
store handle, like shards; a handle that wrote the sidecar trusts it.
A missing, truncated or mismatched array, or a record whose key is
stale, is never served: the snapshot is rebuilt and the sidecar
rewritten.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from ..errors import StoreCorruptionError
from .shards import _atomic_write, _atomic_write_text

#: Sidecar layout version (bump on incompatible changes).
SIDECAR_VERSION = 1
#: The sidecar's commit record.
SIDECAR_NAME = "csr.json"


def _array_path(root: Path, name: str) -> Path:
    return root / f"csr-{name}.npy"


def csr_snapshot(store, cls):
    """The store's ``cls`` snapshot, mapped from the sidecar when a
    valid one exists, else built by ``cls.from_shards`` and written.

    A store with quarantined, missing or resized shards never maps the
    sidecar: it builds, and fails with the same typed error it would
    without one.  A write that fails (read-only directory, full disk)
    leaves no sidecar and still returns the built snapshot.
    """
    if store.manifest.quarantined or not store.verify(deep=False).ok:
        return cls.from_shards(store)
    key = _content_key(store)
    try:
        csr = _map(store, cls, key)
    except StoreCorruptionError:
        csr = None  # never served: rebuilt and rewritten below
    if csr is None:
        csr = cls.from_shards(store)
        try:
            _write(store, csr, key)
        except OSError:
            pass
    return csr


def _content_key(store) -> dict:
    """The facts a sidecar must match to describe the store's content.

    The fingerprint pins the edge multiset; the shard CRCs pin the
    record layout, which fixes the order of parallel entries inside
    each CSR row.
    """
    manifest = store.manifest
    return {
        "version": SIDECAR_VERSION,
        "fingerprint": store.fingerprint(),
        "directed": manifest.directed,
        "num_nodes": manifest.num_nodes,
        "shard_crcs": manifest.shard_crcs,
    }


def _map(store, cls, key: dict):
    """Map the sidecar, or None when the store has none.

    Raises :class:`StoreCorruptionError` on an unreadable or stale
    record and on a missing, truncated or mismatched array.
    """
    record_path = store.path / SIDECAR_NAME
    try:
        record = json.loads(record_path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise StoreCorruptionError(f"{record_path}: unreadable: {exc}") from None
    if not isinstance(record, dict) or any(record.get(k) != v for k, v in key.items()):
        raise StoreCorruptionError(f"{record_path}: stale for this store content")
    verify = record != store._csr_record
    csr = cls.__new__(cls)
    try:
        for name in cls.ARRAYS:
            meta = record["arrays"][name]
            array = np.load(_array_path(store.path, name), mmap_mode="r")
            if (
                array.dtype.str != meta["dtype"]
                or list(array.shape) != meta["shape"]
                or (verify and zlib.crc32(array) != meta["crc32"])
            ):
                raise StoreCorruptionError(
                    f"{store.path}: CSR sidecar array {name!r} does not match "
                    f"its dtype, shape or checksum in {SIDECAR_NAME}"
                )
            setattr(csr, name, array)
        csr.total_weight = float(record["total_weight"])
    except (KeyError, TypeError, OSError, ValueError) as exc:
        raise StoreCorruptionError(
            f"{store.path}: unreadable CSR sidecar: {exc}"
        ) from None
    csr.labels = list(range(key["num_nodes"]))
    store._csr_record = record
    return csr


def _write(store, csr, key: dict) -> None:
    """Write ``csr``'s arrays, then the commit record, each by tmp +
    rename; CRCs come from the in-memory arrays, so nothing is re-read."""
    arrays = {}
    for name in type(csr).ARRAYS:
        array = np.ascontiguousarray(getattr(csr, name))
        _atomic_write(
            _array_path(store.path, name),
            lambda handle: np.save(handle, array, allow_pickle=False),
        )
        arrays[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "crc32": zlib.crc32(array),
        }
    record = {**key, "total_weight": csr.total_weight, "arrays": arrays}
    _atomic_write_text(store.path / SIDECAR_NAME, json.dumps(record, indent=2) + "\n")
    store._csr_record = record
