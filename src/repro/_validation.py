"""Shared argument-validation helpers.

These helpers centralise the checks performed at every public entry
point so error messages stay consistent across the library.  They raise
:class:`repro.errors.ParameterError` (a ``ValueError`` subclass) on bad
input.
"""

from __future__ import annotations

import math
from typing import Any, Type

import numpy as np

from .errors import ParameterError


def check_epsilon(epsilon: float, *, allow_zero: bool = True) -> float:
    """Validate the ε parameter of the peeling algorithms.

    The paper requires ε > 0 for the O(log_{1+ε} n) pass guarantee, but
    ε = 0 is meaningful in practice (it degenerates towards Charikar's
    greedy behaviour), so by default zero is allowed.
    """
    epsilon = float(epsilon)
    if math.isnan(epsilon) or math.isinf(epsilon):
        raise ParameterError(f"epsilon must be finite, got {epsilon!r}")
    if epsilon < 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon!r}")
    if not allow_zero and epsilon == 0:
        raise ParameterError("epsilon must be > 0 for this algorithm")
    return epsilon


def check_positive_int(value: Any, name: str) -> int:
    """Validate a strictly positive integer parameter."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ParameterError(f"{name} must be >= 1, got {value}")
    return value


def check_nonnegative_int(value: Any, name: str) -> int:
    """Validate a non-negative integer parameter."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def check_positive_float(value: Any, name: str) -> float:
    """Validate a strictly positive, finite float parameter."""
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value <= 0:
        raise ParameterError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Validate a probability in the closed interval [0, 1]."""
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_edge_weights(weights: Any, error: Type[Exception]) -> None:
    """Reject edge weights that are not positive finite numbers.

    ``weights`` is one number or an array of them; ``error`` is the
    caller's typed error class (``GraphError`` for graphs and CSR
    builders, ``StoreError`` for the store writer).  NaN fails every
    comparison, so ``0 < w < inf`` rejects it together with ``inf`` and
    non-positive weights: a NaN weight would otherwise stall the peel
    thresholds forever, and an ``inf`` one report density ``inf``.
    """
    if np.ndim(weights) == 0:
        bad = None if 0 < weights < math.inf else weights
    else:
        weights = np.asarray(weights)
        rejected = ~((weights > 0) & (weights < math.inf))
        bad = weights[rejected][0].item() if rejected.any() else None
    if bad is not None:
        raise error(f"edge weights must be positive and finite, got {bad!r}")
