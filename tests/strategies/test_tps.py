"""Unit tests for the Two Phase Schedule strategy."""

import pytest

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.strategies.tps import (
    PHASE1_GROUP,
    PHASE2_GROUP,
    TwoPhaseSchedule,
    choose_linear_axis,
)


@pytest.fixture
def bgl():
    return MachineParams.bluegene_l()


class TestLinearAxisRule:
    def test_table3_choices(self):
        """The Phase-1 dimension column of Table 3 (symmetric-remainder
        rule first, then longest; fully-symmetric shapes are arbitrary and
        pinned to Z here)."""
        expected = {
            "16x8x8": 0,   # X (leaves 8x8)
            "8x16x8": 1,   # Y
            "8x8x16": 2,   # Z
            "16x16x8": 2,  # Z (leaves 16x16)
            "16x8x16": 1,  # Y
            "8x16x16": 0,  # X
            "8x32x16": 1,  # Y (longest; no symmetric remainder)
            "16x32x16": 1, # Y (leaves 16x16, also longest)
            "32x16x16": 0, # X
            "32x32x16": 2, # Z (leaves 32x32)
            "40x32x16": 0, # X (longest)
        }
        for lbl, axis in expected.items():
            assert choose_linear_axis(TorusShape.parse(lbl)) == axis, lbl

    def test_symmetric_pins_z(self):
        assert choose_linear_axis(TorusShape.parse("8x8x8")) == 2

    def test_2d(self):
        assert choose_linear_axis(TorusShape.parse("8x16")) == 1

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            choose_linear_axis(TorusShape.parse("8"))


class TestIntermediates:
    def test_intermediate_coordinates(self, bgl):
        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule().build_program(shape, 64, bgl)
        assert prog.linear_axis == 2
        src = shape.rank((1, 2, 3))
        dst = shape.rank((3, 0, 6))
        mid = prog.intermediate_for(src, dst)
        # Same planar coords as src, linear coord of dst.
        assert shape.coord(mid) == (1, 2, 6)

    def test_intermediate_identity_on_own_line(self, bgl):
        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule().build_program(shape, 64, bgl)
        src = shape.rank((1, 2, 3))
        dst = shape.rank((1, 2, 7))  # same planar coords
        assert prog.intermediate_for(src, dst) == dst

    def test_forced_axis(self, bgl):
        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule(linear_axis=0).build_program(shape, 64, bgl)
        assert prog.linear_axis == 0


class TestPlan:
    def test_phase_groups(self, bgl):
        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule().build_program(shape, 64, bgl)
        specs = list(prog.injection_plan(0))
        p1 = [s for s in specs if s.fifo_group == PHASE1_GROUP]
        p2 = [s for s in specs if s.fifo_group == PHASE2_GROUP]
        # Destinations sharing this node's linear (z) coordinate need no
        # phase-1 hop - the source is its own intermediate and sends
        # phase-2 direct across the plane: 4*4-1 = 15 of them.
        assert len(p2) == 15
        assert len(p1) == 128 - 1 - 15

    def test_phase1_targets_linear_intermediate(self, bgl):
        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule().build_program(shape, 64, bgl)
        for s in prog.injection_plan(5):
            if s.fifo_group == PHASE1_GROUP:
                # Network dst differs from 5 only in the linear (z) coord.
                c_mid = shape.coord(s.dst)
                c_src = shape.coord(5)
                assert c_mid[:2] == c_src[:2]
                # and matches the final destination's z.
                assert c_mid[2] == shape.coord(s.final_dst)[2]

    def test_unpipelined_uses_single_group(self, bgl):
        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule(pipelined=False).build_program(shape, 64, bgl)
        assert all(
            s.fifo_group == PHASE1_GROUP for s in prog.injection_plan(0)
        )

    def test_forwarding_spec(self, bgl):
        from repro.net.packet import PacketSpec

        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule().build_program(shape, 64, bgl)
        src = shape.rank((1, 1, 0))
        dst = shape.rank((2, 3, 5))
        mid = prog.intermediate_for(src, dst)
        spec = PacketSpec(dst=mid, wire_bytes=128, tag="tps1", final_dst=dst)
        fwd = list(prog.on_delivery(mid, src, spec))
        assert len(fwd) == 1
        assert fwd[0].dst == dst
        assert fwd[0].fifo_group == PHASE2_GROUP
        assert not fwd[0].new_message

    def test_final_delivery_no_forward(self, bgl):
        from repro.net.packet import PacketSpec

        shape = TorusShape.parse("4x4x8")
        prog = TwoPhaseSchedule().build_program(shape, 64, bgl)
        spec = PacketSpec(dst=3, wire_bytes=128, tag="tps2", final_dst=3)
        assert list(prog.on_delivery(3, 0, spec)) == []


class TestPrediction:
    def test_near_peak_on_2nnn(self, bgl):
        # On 16x8x8 the linear phase is the bottleneck and equals Eq. 2's
        # peak; prediction must be within startup terms of peak.
        from repro.model.alltoall import peak_time_cycles

        shape = TorusShape.parse("16x8x8")
        m = 1 << 15
        pred = TwoPhaseSchedule().predict_cycles(shape, m, bgl)
        peak = peak_time_cycles(shape, m, bgl)
        assert pred == pytest.approx(peak, rel=0.05)

    def test_supports(self):
        assert TwoPhaseSchedule().supports(TorusShape.parse("4x4"))
        assert not TwoPhaseSchedule().supports(TorusShape.parse("8"))
