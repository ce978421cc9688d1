"""Low-level utilities shared by every subsystem.

This package holds the pieces that are deliberately free of any policy:
unit conversions between processor cycles and wall-clock time
(:mod:`repro.util.units`), deterministic seeded random-stream derivation
(:mod:`repro.util.rng`) and argument validation helpers
(:mod:`repro.util.validation`).
"""

from repro.util.rng import derive_rng, derive_seed
from repro.util.units import (
    CLOCK_HZ,
    NS_PER_CYCLE,
    cycles_to_us,
    cycles_to_ms,
    per_byte_ns_to_cycles,
)
from repro.util.validation import require, check_positive_int, check_nonneg

__all__ = [
    "derive_rng",
    "derive_seed",
    "CLOCK_HZ",
    "NS_PER_CYCLE",
    "cycles_to_us",
    "cycles_to_ms",
    "per_byte_ns_to_cycles",
    "require",
    "check_positive_int",
    "check_nonneg",
]
