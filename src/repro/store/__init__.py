"""Sharded out-of-core edge storage.

The execution substrate's data layer: edge sets partitioned into
memory-mappable ``.npy`` shards with a JSON manifest, written under a
memory budget and read back zero-copy.  Every engine family consumes
it — ``CSRGraph.from_shards`` builds snapshots without dict graphs
(kept beside the shards as a memmappable sidecar by
:mod:`repro.store.sidecar`), ``ShardEdgeStream`` runs the semi-streaming engines out-of-core, and
the api layer accepts stores as first-class
:class:`~repro.api.problems.Problem` inputs.
"""

from .shards import (
    DEFAULT_MEMORY_BUDGET,
    SHARD_DTYPE,
    ShardManifest,
    ShardWriter,
    ShardedEdgeStore,
    StoreVerification,
    corrupt_run_file,
    read_run_file,
    write_edge_list_store,
    write_run_file,
)

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "SHARD_DTYPE",
    "ShardManifest",
    "ShardWriter",
    "ShardedEdgeStore",
    "StoreVerification",
    "corrupt_run_file",
    "read_run_file",
    "write_edge_list_store",
    "write_run_file",
]
