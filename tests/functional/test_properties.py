"""Property-based tests (hypothesis) on core invariants.

The exchange postcondition — every ordered pair delivered exactly once —
must hold for every strategy on arbitrary small shapes, message sizes and
seeds.  Since the differential-verification subsystem, the checks
themselves live in :mod:`repro.check.differential`: the functional leg
(payload permutation + sim-vs-functional delivered-count agreement) and
the full three-engine cross-check are defined once there and driven here
over randomized inputs.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.differential import differential_point, functional_leg
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.runner.point import SimPoint
from repro.strategies import (
    ARDirect,
    DRDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

BGL = MachineParams.bluegene_l()

# Small shapes keep each case fast while still covering 1-D/2-D/3-D,
# mesh dims, and odd extents.
shape_labels = st.sampled_from(
    ["4", "5", "8", "2x4", "4x4", "3x3", "4x2M", "2x2x4", "2x4x4", "3x2x2"]
)
msg_sizes = st.sampled_from([1, 7, 16, 32, 33, 64, 100, 250, 300])
seeds = st.integers(0, 2**16)

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_exchange_ok(strategy, lbl, m, seed, **ctx):
    """The repro.check functional leg, as a test assertion."""
    point = SimPoint(strategy, TorusShape.parse(lbl), m, BGL, seed)
    failures = functional_leg(point)
    assert not failures, (lbl, m, seed, ctx, failures)


@given(lbl=shape_labels, m=msg_sizes, seed=seeds)
@settings(**COMMON)
def test_direct_exchange_exactly_once(lbl, m, seed):
    assert_exchange_ok(ARDirect(), lbl, m, seed)


@given(lbl=shape_labels, m=msg_sizes, seed=seeds)
@settings(**COMMON)
def test_dr_exchange_exactly_once(lbl, m, seed):
    assert_exchange_ok(DRDirect(), lbl, m, seed)


@given(lbl=shape_labels, m=msg_sizes, seed=seeds)
@settings(**COMMON)
def test_tps_exchange_exactly_once(lbl, m, seed):
    if TorusShape.parse(lbl).ndim < 2:
        return
    assert_exchange_ok(TwoPhaseSchedule(), lbl, m, seed)


@given(lbl=shape_labels, m=msg_sizes, seed=seeds, axis=st.integers(0, 2))
@settings(**COMMON)
def test_tps_any_linear_axis_exchange(lbl, m, seed, axis):
    shape = TorusShape.parse(lbl)
    if shape.ndim < 2:
        return
    axis = axis % shape.ndim
    assert_exchange_ok(
        TwoPhaseSchedule(linear_axis=axis), lbl, m, seed, axis=axis
    )


@given(lbl=shape_labels, m=msg_sizes, seed=seeds)
@settings(**COMMON)
def test_vmesh_exchange_exactly_once(lbl, m, seed):
    assert_exchange_ok(VirtualMesh2D(), lbl, m, seed)


@given(m=st.integers(1, 5000))
@settings(deadline=None, max_examples=60)
def test_packetization_conserves_bytes(m):
    sizes = BGL.packetize_message(m)
    # Wire total covers payload + header, within rounding + min-packet.
    total = sum(sizes)
    assert total >= m + BGL.header_bytes
    assert total <= m + BGL.header_bytes + 64
    assert all(64 <= s <= 256 and s % 32 == 0 for s in sizes)


@given(
    lbl=st.sampled_from(["2x4", "4x4", "2x2x4"]),
    m=st.sampled_from([1, 40, 300]),
    seed=st.integers(0, 100),
)
@settings(deadline=None, max_examples=12)
def test_three_engines_agree(lbl, m, seed):
    # The full differential harness: oracle-checked simulation, model
    # tolerance band, functional payload permutation, and exact
    # sim-vs-functional delivered-count agreement — one call.
    shape = TorusShape.parse(lbl)
    strat = TwoPhaseSchedule() if shape.ndim >= 2 else ARDirect()
    point = SimPoint(strat, shape, m, BGL, seed)
    report = differential_point(point)
    assert report.ok, (lbl, m, seed, report.failures)


@given(lbl=st.sampled_from(["2x4", "2x2x4"]), seed=st.integers(0, 50))
@settings(deadline=None, max_examples=8)
def test_throttled_exchange_exactly_once(lbl, seed):
    assert_exchange_ok(ThrottledAR(), lbl, 64, seed)
