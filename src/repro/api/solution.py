"""The unified result type returned by every registered backend.

Solutions are also the unit of *storage*: the serving layer's SQLite
result catalog (:mod:`repro.serve.catalog`) and its HTTP endpoints both
persist and ship solutions as JSON via :meth:`Solution.to_json` /
:meth:`Solution.from_json`.  The codec is lossless for every field
except :attr:`Solution.details` (the backend's native result object,
deliberately dropped — it is an open-ended python object, not part of
the portable result), including numpy scalar and array members and the
per-pass certificate records.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from ..core.trace import DirectedPassRecord, PassRecord
from ..errors import ParameterError

Node = Hashable


# ----------------------------------------------------------------------
# JSON codec
# ----------------------------------------------------------------------
# Tagged, recursive value encoding shared by the Solution/CostReport
# round-trip, the result catalog, and the HTTP layer.  Plain JSON types
# pass through; everything else becomes a one-key ``{"__tag__": ...}``
# wrapper so decoding is unambiguous.

_SORT_RANK = {bool: 1, int: 0, float: 0}


def _node_sort_key(value):
    """Deterministic ordering for mixed-type node sets."""
    rank = _SORT_RANK.get(type(value), 2)
    return (rank, value if rank == 0 else repr(value))


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-serializable form (lossless, tagged)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):  # normalizes int subclasses (IntEnum, ...)
        return int(value)
    if isinstance(value, float):  # np.float64 subclasses float: normalize
        if value == value and value not in (float("inf"), float("-inf")):
            return float(value)
        return {"__float__": repr(float(value))}
    if isinstance(value, np.generic):
        return encode_value(value.item())
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            "__ndarray__": {
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
                "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
            }
        }
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": [
                encode_value(v) for v in sorted(value, key=_node_sort_key)
            ]
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("__") for k in value):
            return {k: encode_value(v) for k, v in value.items()}
        return {
            "__dict__": [[encode_value(k), encode_value(v)] for k, v in value.items()]
        }
    if isinstance(value, PassRecord):
        return {"__pass__": {f.name: encode_value(getattr(value, f.name))
                             for f in fields(value)}}
    if isinstance(value, DirectedPassRecord):
        return {"__dpass__": {f.name: encode_value(getattr(value, f.name))
                              for f in fields(value)}}
    raise ParameterError(
        f"cannot JSON-encode a {type(value).__name__} solution member"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    if "__float__" in value:
        return float(value["__float__"])
    if "__ndarray__" in value:
        spec = value["__ndarray__"]
        arr = np.frombuffer(
            base64.b64decode(spec["data"]), dtype=np.dtype(spec["dtype"])
        )
        return arr.reshape(spec["shape"]).copy()
    if "__set__" in value:
        return frozenset(decode_value(v) for v in value["__set__"])
    if "__tuple__" in value:
        return tuple(decode_value(v) for v in value["__tuple__"])
    if "__dict__" in value:
        return {decode_value(k): decode_value(v) for k, v in value["__dict__"]}
    if "__pass__" in value:
        return PassRecord(**{k: decode_value(v) for k, v in value["__pass__"].items()})
    if "__dpass__" in value:
        return DirectedPassRecord(
            **{k: decode_value(v) for k, v in value["__dpass__"].items()}
        )
    return {k: decode_value(v) for k, v in value.items()}


def canonical_json(payload: Any) -> str:
    """The canonical JSON encoding: sorted keys, no whitespace.

    Byte-identical output for equal payloads — what the result catalog
    stores and the byte-for-byte cache-hit guarantee rests on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CostReport:
    """What a solve cost, in the currency of its execution model.

    Fields are ``None`` when the backend's model has no such notion
    (e.g. an LP solve has no peeling passes).
    """

    #: Peeling passes over the edge set (Algorithms 1–3 and variants).
    passes: Optional[int] = None
    #: Physical passes the backend made over the input EdgeStream.
    stream_passes: Optional[int] = None
    #: Edge records streamed across all passes.
    edges_streamed: Optional[int] = None
    #: Bytes scanned across all stream passes (geometric under pass
    #: compaction instead of passes × input size).
    bytes_scanned: Optional[int] = None
    #: Total MapReduce rounds executed.
    mapreduce_rounds: Optional[int] = None
    #: Between-pass memory footprint in words, when metered.
    memory_words: Optional[int] = None

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form (lossless; ``None`` fields included)."""
        return {f.name: encode_value(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        """Canonical JSON encoding of this report."""
        return canonical_json(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "CostReport":
        known = {f.name for f in fields(cls)}
        return cls(**{k: decode_value(v) for k, v in payload.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "CostReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_jsonable(json.loads(text))


@dataclass(frozen=True)
class Solution:
    """Output of :func:`repro.solve`, uniform across backends.

    Attributes
    ----------
    nodes:
        The solution node set.  For directed problems this is S̃ ∪ T̃;
        the sides are in :attr:`s_nodes` / :attr:`t_nodes`.
    density:
        ρ of the returned set (directed: w(E(S,T))/√(|S||T|)).
    backend:
        Name of the registered solver that produced this solution.
    problem_kind:
        The :attr:`~repro.api.problems.Problem.kind` that was solved.
    exact:
        Whether the backend guarantees ρ = ρ* (vs an approximation).
    s_nodes / t_nodes:
        The directed pair, ``None`` for undirected problems.
    ratio:
        For directed problems, the c the returned pair was found at.
    certificate:
        The per-pass trace when the backend peels (a tuple of
        :class:`~repro.core.trace.PassRecord` /
        :class:`~repro.core.trace.DirectedPassRecord`), else ``None``.
        This is the evidence behind the density claim and what the
        paper's per-pass figures plot.
    cost:
        A :class:`CostReport` in the backend's execution model.
    details:
        The backend's native result object (e.g.
        :class:`~repro.core.result.RatioSweepResult` for a ratio sweep,
        :class:`~repro.mapreduce.densest.MapReduceRunReport` for
        MapReduce runs), for callers that need model-specific data.
    """

    nodes: FrozenSet[Node]
    density: float
    backend: str
    problem_kind: str
    exact: bool = False
    s_nodes: Optional[FrozenSet[Node]] = None
    t_nodes: Optional[FrozenSet[Node]] = None
    ratio: Optional[float] = None
    certificate: Optional[Tuple[Any, ...]] = None
    cost: CostReport = field(default_factory=CostReport)
    details: Any = None

    @property
    def size(self) -> int:
        """|S̃| (directed: |S̃ ∪ T̃|)."""
        return len(self.nodes)

    def densities_by_pass(self) -> List[float]:
        """ρ(S) after each pass, when a peeling certificate exists."""
        if self.certificate is None:
            return []
        return [record.density_after for record in self.certificate]

    def approximation_ratio(self, optimum: float) -> float:
        """ρ*/ρ given a known optimum (Table 2's ρ*/ρ̃ column)."""
        if self.density <= 0:
            return float("inf")
        return optimum / self.density

    # -- JSON round-trip -----------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form of every field except :attr:`details`.

        Node sets serialize as deterministically ordered lists, the
        certificate as tagged pass records, and numpy scalar/array
        members through the tagged codec — the decoded solution equals
        the original on every serialized field.
        """
        payload: Dict[str, Any] = {}
        for f in fields(self):
            if f.name == "details":
                continue  # backend-native object, not portable
            value = getattr(self, f.name)
            if f.name == "cost":
                payload[f.name] = value.to_jsonable()
            else:
                payload[f.name] = encode_value(value)
        return payload

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, no whitespace).

        Equal solutions encode to byte-identical strings — the result
        catalog stores exactly this string, so a cache hit ships the
        same bytes the cold solve produced.
        """
        return canonical_json(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "Solution":
        known = {f.name for f in fields(cls)}
        decoded = {
            k: decode_value(v)
            for k, v in payload.items()
            if k in known and k not in ("cost", "details")
        }
        decoded["cost"] = CostReport.from_jsonable(payload.get("cost") or {})
        if decoded.get("nodes") is None:
            raise ParameterError("solution payload is missing 'nodes'")
        decoded["nodes"] = frozenset(decoded["nodes"])
        for side in ("s_nodes", "t_nodes"):
            if decoded.get(side) is not None:
                decoded[side] = frozenset(decoded[side])
        return cls(**decoded)

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        """Inverse of :meth:`to_json` (with ``details=None``)."""
        return cls.from_jsonable(json.loads(text))
