"""Vectorized CSR kernel layer.

This package holds the execution engines behind the peeling
algorithms, arranged as a tier ladder:

``python``
    The interpreted reference loops in :mod:`repro.core` (not in this
    package; selecting it simply skips the kernels).
``numpy``
    Per-pass vectorized kernels (:mod:`repro.kernels.peel`) over CSR
    snapshots (:mod:`repro.kernels.csr`); also what ``native`` falls
    back to when no C toolchain is available.
``native``
    Incremental bucket-queue peeling in C (``peel_kernels.c``), built
    with the system toolchain and called through ctypes
    (:mod:`repro.kernels.native`): O(m + n) total work with no
    per-pass rescans.

All tiers return identical node sets, traces, and pass counts;
``engine="auto"`` walks the ladder by input size (native > numpy >
python).
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from ..errors import ParameterError
from .csr import CSRDigraph, CSRGraph
from .peel import (
    DirectedPeelOutcome,
    PeelOutcome,
    peel_atleast_k,
    peel_directed,
    peel_directed_sweep,
    peel_undirected,
)

#: Engine names accepted by the ``engine=`` parameter of the core peels.
ENGINES = ("auto", "python", "numpy", "native")

#: The tiers an ``engine=`` argument can resolve to.
RESOLVED_TIERS = ("python", "numpy", "native")

#: ``engine="auto"`` switches to the vectorized kernels at this node
#: count even for graphs with non-integer labels (the O(n) label
#: factorization is then negligible next to the per-pass savings).
AUTO_SIZE_CUTOFF = 256

#: ``engine="auto"`` prefers the compiled tier from this node count
#: (below it, the per-call scratch setup outweighs the loop savings).
NATIVE_SIZE_CUTOFF = 2048


def _is_int_labeled(graph) -> bool:
    """True when every node label is a plain int64-range int (cheap CSR
    mapping; larger ints cannot live in the vectorized index arrays)."""
    from .csr import _all_int_labels

    return _all_int_labels(graph.nodes())


def native_backend() -> Optional[str]:
    """Name of the compiled backend (``"c"``), or None.

    The first call probes (compiling the C library if needed); the
    result is memoized by :mod:`repro.kernels.native`.
    """
    from . import native

    return native.available_backend()


def auto_tier(num_nodes: int) -> str:
    """The tier ``engine="auto"`` picks for an int-labeled input of
    ``num_nodes`` nodes."""
    if num_nodes >= NATIVE_SIZE_CUTOFF and native_backend() is not None:
        return "native"
    return "numpy"


def tier_report(num_nodes: Optional[int] = None) -> Dict[str, object]:
    """Which kernel tiers are importable and what ``auto`` would pick.

    Used by ``repro-densest backends --verbose`` and the serve layer's
    ``/stats``.  ``num_nodes`` (optional) adds the ``auto`` resolution
    for that input size.
    """
    backend = native_backend()
    report: Dict[str, object] = {
        "python": True,
        "numpy": True,
        "native": backend is not None,
        "native_backend": backend,
        "auto_ladder": {
            "native_cutoff": NATIVE_SIZE_CUTOFF,
            "numpy_label_cutoff": AUTO_SIZE_CUTOFF,
        },
    }
    if num_nodes is not None:
        report["auto_pick"] = auto_tier(int(num_nodes))
    return report


def peel_functions(tier: str):
    """The kernel module implementing ``tier`` (numpy/native).

    The returned module exposes ``peel_undirected`` / ``peel_atleast_k``
    / ``peel_directed`` / ``peel_directed_sweep`` with identical
    signatures, so core dispatch is one attribute lookup away from any
    tier.
    """
    if tier == "numpy":
        from . import peel as mod
    elif tier == "native":
        from . import native as mod
    else:
        raise ParameterError(f"no kernel module for tier {tier!r}")
    return mod


def resolve_engine(engine: str, graph=None) -> str:
    """Resolve an ``engine=`` argument to one of :data:`RESOLVED_TIERS`.

    ``"auto"`` picks a vectorized tier when the graph is int-labeled, already a CSR snapshot, or at least
    :data:`AUTO_SIZE_CUTOFF` nodes — then walks the ladder by size
    (native ≥ :data:`NATIVE_SIZE_CUTOFF` when the C backend loads,
    numpy otherwise).  Small exotic-label graphs stay on the Python
    loops, where the per-pass constant is lower.

    ``"native"`` degrades gracefully: when the C backend is unavailable
    it falls back to the numpy tier with a :class:`RuntimeWarning`
    instead of raising — the answer is identical, only the speed
    differs.

    Raises
    ------
    ParameterError
        On an unknown engine name.
    """
    if engine not in ENGINES:
        raise ParameterError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "python":
        return "python"
    if engine == "numpy":
        return "numpy"
    if engine == "native":
        if native_backend() is None:
            warnings.warn(
                "engine='native' requested but no compiled backend is "
                "available (no C toolchain, or REPRO_NATIVE=off); falling "
                "back to the numpy tier",
                RuntimeWarning,
                stacklevel=2,
            )
            return "numpy"
        return "native"
    # engine == "auto"
    if graph is None:
        return "numpy"
    if isinstance(graph, (CSRGraph, CSRDigraph)):
        return auto_tier(graph.num_nodes)
    if graph.num_nodes >= AUTO_SIZE_CUTOFF or _is_int_labeled(graph):
        return auto_tier(graph.num_nodes)
    return "python"


__all__ = [
    "AUTO_SIZE_CUTOFF",
    "CSRDigraph",
    "CSRGraph",
    "DirectedPeelOutcome",
    "ENGINES",
    "NATIVE_SIZE_CUTOFF",
    "PeelOutcome",
    "RESOLVED_TIERS",
    "auto_tier",
    "native_backend",
    "peel_atleast_k",
    "peel_directed",
    "peel_directed_sweep",
    "peel_undirected",
    "peel_functions",
    "resolve_engine",
    "tier_report",
]
