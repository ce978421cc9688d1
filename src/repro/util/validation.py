"""Small argument-validation helpers with consistent error types.

All public entry points validate their inputs through these helpers so that
misuse raises ``ValueError``/``TypeError`` with a clear message instead of
failing deep inside the simulator.
"""

from __future__ import annotations

import math
from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: Any, name: str) -> int:
    """Validate that *value* is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        try:
            ivalue = int(value)
        except (TypeError, ValueError):
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
        if ivalue != value:
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = ivalue
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_nonneg(value: float, name: str) -> float:
    """Validate that *value* is a finite number >= 0 and return it."""
    try:
        fvalue = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be a number, got {value!r}") from None
    if not (0.0 <= fvalue < math.inf):  # catches NaN too
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    return fvalue
