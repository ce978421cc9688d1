"""Low-level utilities shared by every subsystem.

This package holds the pieces that are deliberately free of any policy:
coordinate algebra on mesh/torus dimensions (:mod:`repro.util.coords`),
unit conversions between processor cycles and wall-clock time
(:mod:`repro.util.units`), deterministic seeded random-stream derivation
(:mod:`repro.util.rng`) and argument validation helpers
(:mod:`repro.util.validation`).
"""

from repro.util.coords import (
    coord_to_rank,
    rank_to_coord,
    signed_displacement,
    hop_vector,
    hop_count,
    all_coords,
    mean_hops_per_dim,
)
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
    "coord_to_rank",
    "rank_to_coord",
    "signed_displacement",
    "hop_vector",
    "hop_count",
    "all_coords",
    "mean_hops_per_dim",
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
