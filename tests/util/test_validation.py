"""Unit tests for argument validation helpers."""

import math

import pytest

from repro.model.machine import MachineParams
from repro.net.faults import FaultPlan
from repro.util.validation import check_nonneg, check_positive_int, require


def test_require_passes():
    require(True, "never raised")


def test_require_raises():
    with pytest.raises(ValueError, match="boom"):
        require(False, "boom")


class TestPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_integral_float(self):
        assert check_positive_int(3.0, "x") == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-1, "x")

    def test_rejects_fractional(self):
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")

    def test_rejects_string(self):
        with pytest.raises((TypeError, ValueError)):
            check_positive_int("three", "x")


class TestNonneg:
    def test_accepts_zero(self):
        assert check_nonneg(0, "x") == 0.0

    def test_accepts_positive(self):
        assert check_nonneg(1.5, "x") == 1.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonneg(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_nonneg(math.nan, "x")

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            check_nonneg(object(), "x")


@pytest.mark.parametrize(
    "make, field",
    [
        (MachineParams, "hop_latency_cycles"),
        (MachineParams, "packet_cpu_cycles"),
        (MachineParams, "beta_ns_per_byte"),
        (MachineParams, "alpha_packet_cycles"),
        (MachineParams, "gamma_ns_per_byte"),
        (FaultPlan, "retx_timeout_cycles"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_infinite_cost_is_refused(make, field):
    # Unchecked, an infinite cost is accepted here and the run then
    # spins up to the simulator's cycle limit.
    with pytest.raises(ValueError, match=field):
        make(**{field: math.inf})
