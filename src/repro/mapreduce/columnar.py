"""Array-native key-value batches, the MapReduce runtime's record format.

Moving one Python tuple per record through split, map, shuffle, and
reduce would make interpreter overhead dwarf the useful work at the
scales the paper targets.  Instead a batch of records is one int64 key
array plus named value columns (:class:`ColumnarKV`), and every
runtime stage is a handful of vector operations —

* **split** — round-robin via strided slicing (``arr[i::k]``): record
  i lands in split ``i % k``;
* **shuffle** — :func:`stable_hash_int64`, a deterministic
  multiplicative hash of the keys, then stable partitioning;
* **group-by** — one stable sort by key plus boundary detection
  (:meth:`ColumnarKV.group`), giving reducers contiguous per-key
  segments to aggregate with ``np.add.reduceat``-style kernels.

Both sorts go through :func:`repro.kernels.native.stable_argsort`, an
O(n) counting/radix sort in C whose permutation is exactly numpy's
stable argsort (numpy's own sort without the C tier), so partitions,
groups and every counter are the same on either path.

Keys must be integers that fit int64; callers with other labels map
them to int ids first (the §5.2 drivers relabel at the boundary).
Value columns may be any fixed-width dtype (int64 endpoints, float64
weights, bool markers).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import MapReduceError

#: Multiplier and mask of the Knuth-style multiplicative key hash.
_HASH_MULTIPLIER = np.uint64(2654435761)
_HASH_MASK = np.uint64(0xFFFFFFFF)


def stable_hash_int64(keys: np.ndarray) -> np.ndarray:
    """Deterministic hash of int keys: ``k * 2654435761 % 2**32``.

    Computed in uint64 (wraparound is mod 2**64, and reducing mod 2**32
    afterwards gives the same residue Python's arbitrary-precision
    ``%`` produces, including for negative keys via their
    two's-complement image), so it never depends on PYTHONHASHSEED.
    """
    mixed = np.asarray(keys).astype(np.uint64, copy=False) * _HASH_MULTIPLIER
    return (mixed & _HASH_MASK).astype(np.int64)


def _int64_keys(keys: np.ndarray) -> np.ndarray:
    """``keys`` as a 1-D int64 array, rejecting keys a cast would corrupt."""
    if keys.ndim != 1:
        raise MapReduceError(
            f"batch keys must be a 1-D array, got shape {keys.shape}"
        )
    if keys.dtype == np.int64:
        return keys
    kind = keys.dtype.kind
    if keys.size == 0 or kind == "i":
        return keys.astype(np.int64)
    if kind == "u" and int(keys.max()) < 2**63:
        return keys.astype(np.int64)
    raise MapReduceError(
        f"batch keys must be integers in the int64 range, got dtype {keys.dtype}"
    )


class ColumnarKV:
    """A batch of key-value records in columnar (structure-of-arrays) form.

    Attributes
    ----------
    keys:
        int64 array; ``keys[i]`` is record i's key.
    columns:
        Ordered ``{name: array}`` of parallel value columns.  A record's
        value is the tuple of its column entries (a scalar when there is
        exactly one column), as :meth:`to_pairs` spells it out.

    Keys must be integers representable in int64: float, bool, str, and
    object keys, and unsigned keys ``>= 2**63``, raise
    :class:`~repro.errors.MapReduceError` instead of being silently
    cast.  An empty key array of any dtype is accepted.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns: Dict[str, np.ndarray]) -> None:
        self.keys = _int64_keys(np.asarray(keys))
        self.columns = {}
        for name, column in columns.items():
            column = np.asarray(column)
            if column.shape != self.keys.shape:
                raise MapReduceError(
                    f"batch column {name!r} has shape {column.shape}, "
                    f"keys have shape {self.keys.shape}"
                )
            self.columns[name] = column
        if not self.columns:
            raise MapReduceError("a batch needs at least one value column")

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[int, object]], names: Sequence[str] = ()
    ) -> "ColumnarKV":
        """Build a batch from ``(key, value)`` pairs.

        Tuple values become one column per element; scalar values one
        column.  Mainly for tests and small conversions — production
        pipelines build their arrays directly.
        """
        pairs = list(pairs)
        if not pairs:
            raise MapReduceError("from_pairs needs at least one record")
        keys = np.asarray([k for k, _ in pairs], dtype=np.int64)
        first = pairs[0][1]
        if isinstance(first, tuple):
            width = len(first)
            names = list(names) if names else [f"v{i}" for i in range(width)]
            cols = {
                name: np.asarray([p[1][i] for p in pairs])
                for i, name in enumerate(names)
            }
        else:
            names = list(names) if names else ["v0"]
            cols = {names[0]: np.asarray([p[1] for p in pairs])}
        return cls(keys, cols)

    def to_pairs(self) -> List[Tuple[int, object]]:
        """The batch as ``(key, value)`` pairs (for tests and display)."""
        keys = self.keys.tolist()
        cols = [c.tolist() for c in self.columns.values()]
        if len(cols) == 1:
            return list(zip(keys, cols[0]))
        return [(k, tuple(vals)) for k, *vals in zip(keys, *cols)]

    # ------------------------------------------------------------------
    # Runtime-stage operations
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of records in the batch."""
        return int(self.keys.size)

    def byte_size(self) -> int:
        """Shuffle size under the per-dtype model: 8 bytes per int64
        key plus each column's dtype itemsize, per record."""
        return 8 * self.num_records + sum(c.nbytes for c in self.columns.values())

    def schema(self) -> Tuple[Tuple[str, str], ...]:
        """The batch's column layout as ``((name, dtype_str), ...)``.

        Picklable and hashable — shipped in shuffle-run manifests so
        reduce tasks with no runs can still build an empty partition.
        """
        return tuple(
            (name, column.dtype.str) for name, column in self.columns.items()
        )

    @classmethod
    def empty(cls, schema: Sequence[Tuple[str, str]]) -> "ColumnarKV":
        """A zero-record batch with the given :meth:`schema` layout."""
        return cls(
            np.empty(0, dtype=np.int64),
            {name: np.empty(0, dtype=np.dtype(dt)) for name, dt in schema},
        )

    def take(self, selector) -> "ColumnarKV":
        """A new batch of the rows a fancy index / mask / slice selects."""
        return ColumnarKV(
            self.keys[selector],
            {name: column[selector] for name, column in self.columns.items()},
        )

    def split(self, num_splits: int) -> List["ColumnarKV"]:
        """Round-robin input splits — record i lands in split i % k."""
        return [self.take(slice(i, None, num_splits)) for i in range(num_splits)]

    @classmethod
    def concat(cls, batches: Sequence["ColumnarKV"]) -> "ColumnarKV":
        """Concatenate batches (all must share the same column names)."""
        batches = list(batches)
        if not batches:
            raise MapReduceError("concat needs at least one batch")
        names = list(batches[0].columns)
        for other in batches[1:]:
            if list(other.columns) != names:
                raise MapReduceError(
                    f"cannot concat batches with columns {list(other.columns)} "
                    f"and {names}"
                )
        if len(batches) == 1:
            return batches[0]
        return cls(
            np.concatenate([b.keys for b in batches]),
            {
                name: np.concatenate([b.columns[name] for b in batches])
                for name in names
            },
        )

    def partition(self, num_partitions: int) -> List["ColumnarKV"]:
        """Hash-partition by key (the shuffle): record i goes to
        partition ``stable_hash_int64(key_i) % num_partitions``.

        One stable sort over the partition ids (a counting sort: the
        ids lie below ``num_partitions``), then boundary slicing — O(n)
        total rather than one full mask scan per reducer, which matters
        at cluster-scale ``num_reducers``.  The stable sort keeps
        arrival order within each partition.
        """
        from ..kernels.native import stable_argsort

        part_ids = stable_hash_int64(self.keys) % num_partitions
        by_partition = self.take(stable_argsort(part_ids))
        counts = np.bincount(part_ids, minlength=num_partitions)
        starts = np.zeros(num_partitions + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return [
            by_partition.take(slice(starts[p], starts[p + 1]))
            for p in range(num_partitions)
        ]

    def group(self) -> "GroupedKV":
        """Sort-based group-by: one stable sort by key + boundary scan.

        O(n) under the C tier: a counting sort when the keys span at
        most about twice as many values as there are records, an LSD
        radix over the key range otherwise.
        """
        from ..kernels.native import stable_argsort

        order = stable_argsort(self.keys)
        sorted_keys = self.keys[order]
        n = sorted_keys.size
        if n == 0:
            starts = np.zeros(1, dtype=np.int64)
            return GroupedKV(sorted_keys, starts, self.take(order))
        boundaries = np.empty(n, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
        group_starts = np.flatnonzero(boundaries)
        starts = np.append(group_starts, n).astype(np.int64)
        return GroupedKV(sorted_keys[group_starts], starts, self.take(order))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{k}:{v.dtype}" for k, v in self.columns.items())
        return f"ColumnarKV(num_records={self.num_records}, columns=[{cols}])"


class GroupedKV:
    """A batch grouped by key: contiguous per-key row segments.

    Attributes
    ----------
    keys:
        The distinct keys, ascending (one per group).
    starts:
        int64 offsets of length ``num_groups + 1``: group g's rows are
        ``rows[starts[g]:starts[g+1]]`` (a CSR-style indptr).
    rows:
        The underlying :class:`ColumnarKV`, rows sorted by key with the
        original arrival order preserved within each key (stable sort).
    """

    __slots__ = ("keys", "starts", "rows")

    def __init__(self, keys: np.ndarray, starts: np.ndarray, rows: ColumnarKV) -> None:
        self.keys = keys
        self.starts = starts
        self.rows = rows

    @property
    def num_groups(self) -> int:
        """Number of distinct keys."""
        return int(self.keys.size)

    @property
    def counts(self) -> np.ndarray:
        """Rows per group."""
        return np.diff(self.starts)

    def column(self, name: str) -> np.ndarray:
        """A value column of the sorted rows."""
        return self.rows.columns[name]

    def segment_sum(self, name: str) -> np.ndarray:
        """Per-group sum of a column (sequential, left to right, within
        each group)."""
        if self.num_groups == 0:
            return np.zeros(0, dtype=np.float64)
        return np.add.reduceat(self.rows.columns[name], self.starts[:-1])

    def segment_any(self, name: str) -> np.ndarray:
        """Per-group logical OR of a boolean column."""
        if self.num_groups == 0:
            return np.zeros(0, dtype=bool)
        return np.logical_or.reduceat(self.rows.columns[name], self.starts[:-1])

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Broadcast one value per group back onto the sorted rows."""
        return np.repeat(per_group, self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupedKV(num_groups={self.num_groups}, "
            f"num_records={self.rows.num_records})"
        )
