"""Unit tests for the 2-D Virtual Mesh strategy."""

import pytest

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.strategies.vmesh import VirtualMesh2D, VMeshMapping


@pytest.fixture
def bgl():
    return MachineParams.bluegene_l()


class TestMapping:
    def test_bijection(self):
        shape = TorusShape.parse("4x4x4")
        m = VMeshMapping(shape, 8, 8)
        seen = set()
        for node in range(64):
            rc = m.row_col(node)
            assert m.node_at(*rc) == node
            seen.add(rc)
        assert len(seen) == 64

    def test_paper_512_layout(self):
        # 32x16 vmesh on 8x8x8 with the identity order: each row is half
        # an XY plane (Section 4.2's layout).
        shape = TorusShape.parse("8x8x8")
        m = VMeshMapping(shape, 32, 16)
        # All 32 members of row 0 share z=0, y in 0..3.
        members = [m.node_at(0, c) for c in range(32)]
        coords = [shape.coord(n) for n in members]
        assert {c[2] for c in coords} == {0}
        assert {c[1] for c in coords} == {0, 1, 2, 3}

    def test_paper_4096_layout(self):
        # 128x32 vmesh on 8x32x16 with order (X, Z, Y): rows are XZ
        # planes, columns are Y lines.
        shape = TorusShape.parse("8x32x16")
        m = VMeshMapping(shape, 128, 32, axis_order=(0, 2, 1))
        members = [m.node_at(5, c) for c in range(128)]
        coords = [shape.coord(n) for n in members]
        assert {c[1] for c in coords} == {5}  # fixed y = row
        # Column 3 spans all y at fixed (x, z).
        col = [m.node_at(r, 3) for r in range(32)]
        ccoords = [shape.coord(n) for n in col]
        assert len({(c[0], c[2]) for c in ccoords}) == 1

    def test_requires_tiling(self):
        with pytest.raises(ValueError):
            VMeshMapping(TorusShape.parse("4x4"), 5, 3)

    def test_bad_axis_order(self):
        with pytest.raises(ValueError):
            VMeshMapping(TorusShape.parse("4x4"), 4, 4, axis_order=(0, 0))


class TestFactors:
    def test_default_balanced(self):
        v = VirtualMesh2D()
        assert v.factors(TorusShape.parse("8x8x8")) == (32, 16)
        assert v.factors(TorusShape.parse("4x4")) == (4, 4)

    def test_explicit(self):
        v = VirtualMesh2D(pvx=128, pvy=32)
        assert v.factors(TorusShape.parse("8x32x16")) == (128, 32)

    def test_half_specified_rejected(self):
        with pytest.raises(ValueError):
            VirtualMesh2D(pvx=8)


class TestProgram:
    def test_message_sizes(self, bgl):
        shape = TorusShape.parse("4x4")
        prog = VirtualMesh2D().build_program(shape, 8, bgl)
        # pvx=pvy=4; row message combines 4 chunks of (8+8) B = 64 B + 48 B
        # header -> one 128 B packet.
        assert prog.row_packets == [128]
        assert prog.col_packets == [128]

    def test_plan_counts(self, bgl):
        shape = TorusShape.parse("4x4")
        prog = VirtualMesh2D().build_program(shape, 8, bgl)
        specs = list(prog.injection_plan(0))
        assert len(specs) == 3  # pvx-1 row messages (phase 2 is reactive)

    def test_alpha_is_message_level(self, bgl):
        shape = TorusShape.parse("4x4")
        prog = VirtualMesh2D().build_program(shape, 8, bgl)
        for s in prog.injection_plan(1):
            if s.new_message:
                assert s.alpha_cycles == bgl.alpha_message_cycles

    def test_gamma_charged(self, bgl):
        shape = TorusShape.parse("4x4")
        prog = VirtualMesh2D().build_program(shape, 8, bgl)
        for s in prog.injection_plan(1):
            assert s.extra_cpu_cycles == pytest.approx(
                bgl.gamma_cycles_per_byte * s.wire_bytes
            )

    def test_expected_deliveries(self, bgl):
        shape = TorusShape.parse("4x4")
        prog = VirtualMesh2D().build_program(shape, 8, bgl)
        # per node: 3 row packets + 3 col packets.
        assert prog.expected_final_deliveries() == 16 * 6

    def test_phase2_triggered_after_all_rows(self, bgl):
        from repro.net.packet import PacketSpec

        shape = TorusShape.parse("4x4")
        prog = VirtualMesh2D().build_program(shape, 8, bgl)
        node = 0
        spec = PacketSpec(dst=node, wire_bytes=128, tag="vmesh1")
        fwd_total = []
        for _ in range(prog.phase1_expected):
            fwd_total.extend(prog.on_delivery(node, 1, spec))
        # Nothing until the last row message, then all column messages.
        assert len(fwd_total) == (prog.map.pvy - 1) * len(prog.col_packets)


class TestPrediction:
    def test_eq4(self, bgl):
        from repro.model.alltoall import vmesh_time_cycles

        shape = TorusShape.parse("8x8x8")
        pred = VirtualMesh2D().predict_cycles(shape, 8, bgl)
        assert pred == pytest.approx(vmesh_time_cycles(shape, 8, bgl, 32, 16))
