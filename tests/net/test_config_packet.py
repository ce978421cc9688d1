"""Unit tests for the packet types."""

import pytest

from repro.net.packet import NO_VC, Packet, PacketSpec, RoutingMode


class TestPacketSpec:
    def test_defaults(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        assert s.mode == RoutingMode.ADAPTIVE
        assert s.final_dst == -1
        assert s.alpha_cycles < 0

    def test_frozen(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        with pytest.raises(AttributeError):
            s.dst = 4  # type: ignore[misc]


class TestPacket:
    def test_from_spec_defaults_final_dst(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        p = Packet.from_spec(0, 1, s, 10.0)
        assert p.final_dst == 3
        assert p.src == 1
        assert p.inject_time == 10.0
        assert p.vc == NO_VC
        assert p.hops == 0

    def test_from_spec_keeps_explicit_final_dst(self):
        s = PacketSpec(dst=3, wire_bytes=64, final_dst=7)
        p = Packet.from_spec(0, 1, s, 0.0)
        assert p.final_dst == 7
        assert p.dst == 3

    def test_halfbits_vary_with_pid(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        bits = {
            Packet.from_spec(pid, 0, s, 0.0).halfbits & 0x7
            for pid in range(64)
        }
        # The per-axis tie-break bits take multiple values across packets
        # (a constant would re-introduce the 25% direction imbalance).
        assert len(bits) > 1

    def test_halfbits_balanced(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        ones = sum(
            (Packet.from_spec(pid, 0, s, 0.0).halfbits >> 0) & 1
            for pid in range(1000)
        )
        assert 350 < ones < 650
