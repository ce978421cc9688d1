"""Unit tests for machine parameters and packetization."""

import dataclasses

import pytest

from repro.model.machine import MachineParams


@pytest.fixture
def bgl():
    return MachineParams.bluegene_l()


class TestPaperValues:
    def test_alpha_packet(self, bgl):
        assert bgl.alpha_packet_cycles == 450.0

    def test_alpha_message(self, bgl):
        assert bgl.alpha_message_cycles == 1170.0

    def test_beta_cycles(self, bgl):
        assert bgl.beta_cycles_per_byte == pytest.approx(4.536, abs=1e-3)

    def test_gamma_cycles(self, bgl):
        assert bgl.gamma_cycles_per_byte == pytest.approx(1.12, abs=1e-2)

    def test_headers(self, bgl):
        assert bgl.header_bytes == 48
        assert bgl.proto_bytes == 8

    def test_cpu_four_links(self, bgl):
        # "the processor can only keep about four links busy" (Section 2).
        assert bgl.cpu_bytes_per_cycle == pytest.approx(
            4.0 / bgl.beta_cycles_per_byte
        )


class TestPacketization:
    def test_min_packet_64(self, bgl):
        # 1 B message + 48 B header -> one 64 B packet (Section 3).
        assert bgl.packetize_message(1) == [64]

    def test_16_bytes_exactly_64(self, bgl):
        assert bgl.packetize_message(16) == [64]

    def test_rounding_granularity(self, bgl):
        for m in range(1, 400, 7):
            for p in bgl.packetize_message(m):
                assert p % 32 == 0
                assert 64 <= p <= 256

    def test_multi_packet(self, bgl):
        # 500 B payload + 48 B header = 548 B -> 256 + 256 + 64.
        assert bgl.packetize_message(500) == [256, 256, 64]

    def test_wire_bytes_close_to_m_plus_h(self, bgl):
        # Eq. 3 charges (m + h) * beta; the wire total is that, rounded up.
        # Rounding adds at most one granule plus the 64 B minimum-packet
        # padding on the tail packet.
        for m in (1, 100, 1000, 4096):
            wire = bgl.message_wire_bytes(m)
            assert m + 48 <= wire <= m + 48 + 64

    def test_round_packet_bounds(self, bgl):
        assert bgl.round_packet(1) == 64
        assert bgl.round_packet(65) == 96
        assert bgl.round_packet(256) == 256
        with pytest.raises(ValueError):
            bgl.round_packet(257)
        with pytest.raises(ValueError):
            bgl.round_packet(0)


class TestCpuModel:
    def test_full_packet_matches_link_budget(self, bgl):
        # Calibration: a full packet costs exactly its share of the
        # 4-link CPU byte rate.
        cost = bgl.cpu_packet_handling_cycles(bgl.packet_max_bytes)
        assert cost == pytest.approx(
            bgl.packet_max_bytes / bgl.cpu_bytes_per_cycle
        )

    def test_small_packets_less_efficient(self, bgl):
        # Per-byte CPU cost of a 64 B packet exceeds a 256 B packet's.
        c64 = bgl.cpu_packet_handling_cycles(64) / 64
        c256 = bgl.cpu_packet_handling_cycles(256) / 256
        assert c64 > c256


class TestValidation:
    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            MachineParams(beta_ns_per_byte=-1.0)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            MachineParams(packet_max_bytes=250)

    def test_rejects_payload_over_packet(self):
        with pytest.raises(ValueError):
            MachineParams(packet_payload_max=512)

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    @pytest.mark.parametrize(
        "field", ["hop_latency_cycles", "packet_cpu_cycles"]
    )
    def test_rejects_negative_or_nan_latency_and_cpu_cost(
        self, bgl, field, value
    ):
        # A negative router latency would run with headers arriving
        # before they leave, a negative CPU cost with refunded cycles.
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(bgl, **{field: value})

    @pytest.mark.parametrize(
        "field", ["hop_latency_cycles", "packet_cpu_cycles"]
    )
    def test_zero_latency_and_cpu_cost_stay_legal(self, bgl, field):
        assert getattr(dataclasses.replace(bgl, **{field: 0.0}), field) == 0.0

    def test_with_updates(self, bgl):
        p2 = bgl.with_updates(alpha_packet_cycles=0.0)
        assert p2.alpha_packet_cycles == 0.0
        assert bgl.alpha_packet_cycles == 450.0
