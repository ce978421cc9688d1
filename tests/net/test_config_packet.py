"""Unit tests for the packet spec and the pool's injection path."""

import pytest

from repro.net.packet import NO_VC, PacketPool, PacketSpec, RoutingMode


class TestPacketSpec:
    def test_defaults(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        assert s.mode == RoutingMode.ADAPTIVE
        assert s.final_dst == 3
        assert s.alpha_cycles < 0

    def test_final_dst_defaults_to_dst(self):
        # The spec holds a node number from construction: no sentinel
        # survives for a consumer to resolve.
        assert PacketSpec(dst=3, wire_bytes=64) == PacketSpec(
            dst=3, wire_bytes=64, final_dst=3
        )

    def test_frozen(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        with pytest.raises(AttributeError):
            s.dst = 4  # type: ignore[misc]


def _halfbits(pids):
    """The tie-break bits :meth:`PacketPool.alloc`, the kernel's one
    injection path, gives packets with ids *pids*."""
    pool = PacketPool(1)
    spec = PacketSpec(dst=3, wire_bytes=64)
    bits = []
    for pid in pids:
        h = pool.alloc(pid, 0, spec, 0.0)
        bits.append(pool.halfbits[h])
        pool.free.append(h)
    return bits


class TestPacket:
    def test_alloc_keeps_spec_and_starts_per_hop_state(self):
        s = PacketSpec(dst=3, wire_bytes=64)
        pool = PacketPool(4)
        h = pool.alloc(0, 1, s, 10.0)
        assert pool.spec[h] is s
        assert pool.spec[h].final_dst == 3
        assert pool.src[h] == 1
        assert pool.inject_time[h] == 10.0
        assert pool.vc[h] == NO_VC
        assert pool.hops[h] == 0

    def test_alloc_keeps_explicit_final_dst(self):
        s = PacketSpec(dst=3, wire_bytes=64, final_dst=7)
        pool = PacketPool(4)
        h = pool.alloc(0, 1, s, 0.0)
        assert pool.spec[h].final_dst == 7
        assert pool.dst[h] == 3

    def test_halfbits_vary_with_pid(self):
        bits = {b & 0x7 for b in _halfbits(range(64))}
        # The per-axis tie-break bits take multiple values across packets
        # (a constant would re-introduce the 25% direction imbalance).
        assert len(bits) > 1

    def test_halfbits_balanced(self):
        ones = sum(b & 1 for b in _halfbits(range(1000)))
        assert 350 < ones < 650
