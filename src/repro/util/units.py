"""Unit conversions between processor cycles and wall-clock time.

The whole simulator keeps time in integer *processor cycles* of the 700 MHz
BG/L PPC440 core (the clock the paper quotes its alpha/beta numbers in:
450 cycles ~= 0.64 us startup, 6.48 ns/byte ~= 4.536 cycles/byte).
Conversions to us/ms happen only at reporting boundaries.
"""

from __future__ import annotations

#: BG/L compute-node clock (Hz).  700 MHz PPC440.
CLOCK_HZ: float = 700.0e6

#: Nanoseconds per processor cycle (~1.42857 ns).
NS_PER_CYCLE: float = 1.0e9 / CLOCK_HZ


def cycles_to_us(cycles: float) -> float:
    """Convert cycles to microseconds."""
    return cycles * NS_PER_CYCLE * 1e-3


def cycles_to_ms(cycles: float) -> float:
    """Convert cycles to milliseconds."""
    return cycles * NS_PER_CYCLE * 1e-6


def per_byte_ns_to_cycles(ns_per_byte: float) -> float:
    """Convert a per-byte cost in ns/B to cycles/B."""
    return ns_per_byte / NS_PER_CYCLE
