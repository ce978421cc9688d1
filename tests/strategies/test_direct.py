"""Unit tests for the direct strategies' plans and packetization."""

import numpy as np
import pytest

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.packet import PacketSpec, RoutingMode
from repro.strategies.data import PHASE_DIRECT, ChunkTag, DataChunk
from repro.strategies.direct import ARDirect, DRDirect, MPIDirect, ThrottledAR


@pytest.fixture
def bgl():
    return MachineParams.bluegene_l()


@pytest.fixture
def shape():
    return TorusShape.parse("4x4")


def collect_plan(program, node):
    return list(program.injection_plan(node))


class TestPlanStructure:
    def test_every_destination_once(self, shape, bgl):
        prog = ARDirect().build_program(shape, 100, bgl)
        specs = collect_plan(prog, 0)
        dests = {s.dst for s in specs}
        assert dests == set(range(1, 16))  # all but self

    def test_packet_count(self, shape, bgl):
        # 100 B + 48 B header -> one 160 B packet per destination.
        prog = ARDirect().build_program(shape, 100, bgl)
        specs = collect_plan(prog, 3)
        assert len(specs) == 15
        assert all(s.wire_bytes == 160 for s in specs)

    def test_multi_packet_message(self, shape, bgl):
        prog = ARDirect().build_program(shape, 500, bgl)
        specs = collect_plan(prog, 0)
        assert len(specs) == 15 * 3  # 500+48 -> 256+256+64
        per_dest = {}
        for s in specs:
            per_dest.setdefault(s.dst, []).append(s)
        for dst, lst in per_dest.items():
            assert sorted(x.wire_bytes for x in lst) == [64, 256, 256]
            # alpha once per destination message
            assert sum(1 for x in lst if x.new_message) == 1

    def test_payload_accounting(self, shape, bgl):
        prog = ARDirect().build_program(shape, 500, bgl)
        specs = collect_plan(prog, 0)
        per_dest = {}
        for s in specs:
            per_dest[s.dst] = per_dest.get(s.dst, 0) + s.payload_bytes
        assert all(v == 500 for v in per_dest.values())

    def test_round_robin_interleaves(self, shape, bgl):
        # With 3 packets/message and k=2, the first sweep sends 2 packets
        # to each destination before any destination gets its third.
        prog = ARDirect().build_program(shape, 500, bgl)
        specs = collect_plan(prog, 0)
        first_sweep = specs[: 15 * 2]
        counts = {}
        for s in first_sweep:
            counts[s.dst] = counts.get(s.dst, 0) + 1
        assert all(v == 2 for v in counts.values())

    def test_order_differs_across_nodes(self, shape, bgl):
        prog = ARDirect().build_program(shape, 100, bgl)
        o1 = [s.dst for s in collect_plan(prog, 1)]
        o2 = [s.dst for s in collect_plan(prog, 2)]
        assert o1 != o2

    def test_order_deterministic_per_seed(self, shape, bgl):
        p1 = ARDirect().build_program(shape, 100, bgl, seed=9)
        p2 = ARDirect().build_program(shape, 100, bgl, seed=9)
        assert [s.dst for s in collect_plan(p1, 5)] == [
            s.dst for s in collect_plan(p2, 5)
        ]

    def test_expected_deliveries(self, shape, bgl):
        prog = ARDirect().build_program(shape, 500, bgl)
        assert prog.expected_final_deliveries() == 16 * 15 * 3


class TestModes:
    def test_ar_is_adaptive(self, shape, bgl):
        prog = ARDirect().build_program(shape, 64, bgl)
        assert all(
            s.mode == RoutingMode.ADAPTIVE for s in collect_plan(prog, 0)
        )

    def test_dr_is_deterministic(self, shape, bgl):
        prog = DRDirect().build_program(shape, 64, bgl)
        assert all(
            s.mode == RoutingMode.DETERMINISTIC for s in collect_plan(prog, 0)
        )

    def test_mpi_uses_message_alpha(self, shape, bgl):
        prog = MPIDirect().build_program(shape, 64, bgl)
        firsts = [s for s in collect_plan(prog, 0) if s.new_message]
        assert all(s.alpha_cycles == bgl.alpha_message_cycles for s in firsts)

    def test_ar_uses_default_alpha(self, shape, bgl):
        prog = ARDirect().build_program(shape, 64, bgl)
        assert all(s.alpha_cycles < 0 for s in collect_plan(prog, 0))


class TestThrottle:
    def test_pace_positive(self, shape, bgl):
        prog = ThrottledAR().build_program(shape, 464, bgl)
        pace = prog.pace_cycles(0)
        assert pace > 0

    def test_pace_matches_bisection_rate(self, shape, bgl):
        prog = ThrottledAR().build_program(shape, 464, bgl)
        sizes = bgl.packetize_message(464)
        mean_wire = sum(sizes) / len(sizes)
        c = shape.contention_factor
        assert prog.pace_cycles(0) == pytest.approx(
            c * mean_wire * bgl.beta_cycles_per_byte
        )

    def test_slack_scales_pace(self, shape, bgl):
        p1 = ThrottledAR(slack=1.0).build_program(shape, 464, bgl)
        p2 = ThrottledAR(slack=2.0).build_program(shape, 464, bgl)
        assert p2.pace_cycles(0) == pytest.approx(2 * p1.pace_cycles(0))

    def test_invalid_slack(self):
        with pytest.raises(ValueError):
            ThrottledAR(slack=0.0)


class TestPrediction:
    def test_ar_prediction_is_eq3(self, shape, bgl):
        from repro.model.alltoall import simple_direct_time_cycles

        assert ARDirect().predict_cycles(shape, 777, bgl) == pytest.approx(
            simple_direct_time_cycles(shape, 777, bgl)
        )

    def test_mpi_predicts_slower_than_ar(self, shape, bgl):
        assert MPIDirect().predict_cycles(shape, 64, bgl) > ARDirect().predict_cycles(
            shape, 64, bgl
        )


def reference_plan(prog, node):
    """The numpy-cursor plan the shared-spec plan replaced, verbatim in
    its order and values: a fresh spec per packet, cursors per
    destination advanced by up to ``packets_per_round`` per sweep."""
    offsets = np.concatenate(
        ([0], np.cumsum(prog.payload_split[:-1]))
    ).astype(np.int64)

    def make_spec(src, dst, pkt_idx):
        payload = prog.payload_split[pkt_idx]
        if prog.carry_data and payload > 0:
            tag = ChunkTag(
                PHASE_DIRECT,
                (DataChunk(src, dst, int(offsets[pkt_idx]), payload),),
            )
        else:
            tag = PHASE_DIRECT
        return PacketSpec(
            dst=dst,
            wire_bytes=prog.packet_sizes[pkt_idx],
            mode=prog.mode,
            new_message=(pkt_idx == 0),
            tag=tag,
            final_dst=dst,
            payload_bytes=payload,
            alpha_cycles=prog._alpha_override,
        )

    order = prog.destination_order(node)
    npk = len(prog.packet_sizes)
    k = prog.packets_per_round
    cursors = np.zeros(len(order), dtype=np.int64)
    remaining = len(order) * npk
    while remaining > 0:
        for di in range(len(order)):
            c = int(cursors[di])
            take = min(k, npk - c)
            if take <= 0:
                continue
            dst = int(order[di])
            for i in range(take):
                yield make_spec(node, dst, c + i)
            cursors[di] = c + take
            remaining -= take


DIRECT = {
    "AR": ARDirect,
    "DR": DRDirect,
    "AR-throttle": ThrottledAR,
    "MPI": MPIDirect,
}


def _program(name, shape, m, k, carry_data):
    strategy = DIRECT[name]()
    strategy.packets_per_round = k
    return strategy.build_program(shape, m, seed=5, carry_data=carry_data)


CARRY, CARRY_IDS = [False, True], ["plain", "data"]


class TestSharedSpecPlan:
    """The shared-spec plan yields what the numpy-cursor plan yielded."""

    @pytest.mark.parametrize("carry_data", CARRY, ids=CARRY_IDS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m, npk", [(64, 1), (500, 3), (4000, 16)])
    @pytest.mark.parametrize("name", sorted(DIRECT))
    def test_matches_reference_plan(self, name, m, npk, k, carry_data):
        shape = TorusShape.parse("3x2")
        prog = _program(name, shape, m, k, carry_data)
        assert len(prog.packet_sizes) == npk
        for node in range(shape.nnodes):
            got = list(prog.injection_plan(node))
            assert got == list(reference_plan(prog, node))
            assert len(got) == (shape.nnodes - 1) * npk

    def test_plain_specs_are_shared_across_nodes(self, shape, bgl):
        prog = ARDirect().build_program(shape, 500, bgl)
        seen = {}
        for node in range(shape.nnodes):
            per_dst = {}
            for spec in prog.injection_plan(node):
                idx = per_dst.get(spec.dst, 0)
                per_dst[spec.dst] = idx + 1
                first = seen.setdefault((spec.dst, idx), spec)
                assert first is spec
        assert len(seen) == shape.nnodes * 3

    def test_data_specs_name_their_source(self, shape, bgl):
        prog = ARDirect().build_program(shape, 500, bgl, carry_data=True)
        for node in range(shape.nnodes):
            for spec in prog.injection_plan(node):
                assert isinstance(spec.tag, ChunkTag)
                assert [c.src for c in spec.tag.chunks] == [node]
                assert [c.dst for c in spec.tag.chunks] == [spec.dst]
