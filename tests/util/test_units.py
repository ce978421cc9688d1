"""Unit tests for cycle and time conversions."""

import pytest

from repro.util import units


def test_clock_is_700mhz():
    assert units.CLOCK_HZ == pytest.approx(700e6)


def test_ns_per_cycle():
    assert units.NS_PER_CYCLE == pytest.approx(1.428571, rel=1e-5)


def test_paper_alpha_consistency():
    # 450 cycles ~ 0.64 us (the paper's measured AR startup).
    assert units.cycles_to_us(450) == pytest.approx(0.643, abs=0.01)


def test_paper_beta_consistency():
    # 6.48 ns/B ~ 4.54 cycles/B.
    assert units.per_byte_ns_to_cycles(6.48) == pytest.approx(4.536, abs=1e-3)


def test_cycles_to_ms():
    assert units.cycles_to_ms(700e3) == pytest.approx(1.0)
