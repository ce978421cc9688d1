"""Edge-case coverage for the struct-of-arrays simulator core (v2).

Three families the ordinary suites exercise only incidentally:

* packet-pool exhaustion and in-place regrowth (column references the
  simulator hoisted at construction must survive a ``grow()``);
* VC/injection ring-buffer wraparound under heavy backpressure, audited
  event-by-event by the invariant oracle;
* fixed-point tick <-> float round-trip exactness for every timing
  parameter in :class:`~repro.model.machine.MachineParams` — the property
  the integer timebase's bit-identity rests on.
"""

import pytest

from repro.check import CheckConfig
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net import (
    ListProgram,
    PacketSpec,
    TorusNetwork,
    build_network,
)
from repro.net import simulator
from repro.net.packet import PacketPool, RoutingMode
from repro.net.simulator import TICK_SCALE, TICK_UNSCALE


# --------------------------------------------------------------------- #
# packet pool: exhaustion and regrowth
# --------------------------------------------------------------------- #


def _spec(dst=3, **over):
    base = dict(
        dst=dst,
        wire_bytes=64,
        mode=RoutingMode.ADAPTIVE,
        tag="t",
        final_dst=5,
        payload_bytes=10,
        seq=7,
    )
    base.update(over)
    return PacketSpec(**base)


class TestPacketPool:
    def test_release_recycles_lifo(self):
        pool = PacketPool(4)
        h = pool.alloc(0, 0, _spec(), 0.0)
        pool.free.append(h)
        assert pool.alloc(1, 0, _spec(), 0.0) == h
        assert pool.live == 1

    def test_exhaustion_grows_columns_in_place(self):
        pool = PacketPool(2)
        # The simulator hoists column references once, at construction.
        src_col, dst_col, spec_col = pool.src, pool.dst, pool.spec
        route_col = pool.route
        handles = []
        for i in range(5):
            h = pool.alloc(i, i, _spec(dst=i + 10), 0.0)
            # The kernel sets the route state right after alloc, through
            # its hoisted reference; values written before a growth must
            # survive it.
            route_col[h] = 100 + i
            handles.append(h)
        # 2 -> 4 -> 8: two doublings to satisfy the fifth allocation.
        assert pool.capacity == 8
        assert pool.live == 5
        # Growth extended the existing lists rather than rebinding them,
        # so the borrowed references still see every live packet.
        assert pool.src is src_col
        assert pool.dst is dst_col
        assert pool.spec is spec_col
        assert pool.route is route_col
        assert len(route_col) == pool.capacity
        assert len(handles) == len(set(handles))
        for i, h in enumerate(handles):
            assert src_col[h] == i
            assert dst_col[h] == i + 10
            assert spec_col[h].dst == i + 10
            assert route_col[h] == 100 + i

    def test_regrowth_preserves_free_list_integrity(self):
        pool = PacketPool(1)
        seen = set()
        for i in range(9):
            h = pool.alloc(i, 0, _spec(), 0.0)
            assert h not in seen
            seen.add(h)
        assert pool.live == 9
        assert pool.capacity == 16
        assert len(pool.free) == 7

    def test_simulation_survives_pool_regrowth(self):
        # 7 senders x 64 packets at one hot receiver: far more packets
        # in flight (injection FIFOs + VC buffers + reception backlog)
        # than the initial pool holds, so the pool must regrow mid-run
        # while the simulator keeps using its hoisted column references.
        shape = TorusShape.parse("2x2x2")
        net = TorusNetwork(shape)
        cap0 = net._pool.capacity
        plans = [[PacketSpec(dst=0, wire_bytes=256)] * 64 for _ in range(8)]
        plans[0] = []
        res = net.run(ListProgram(plans))
        assert res.final_deliveries == 7 * 64
        assert net._pool.capacity > cap0
        assert net._P_src is net._pool.src
        assert net._P_dst is net._pool.dst
        # Quiescent: every handle came back to the free list.
        assert net._pool.live == 0


# --------------------------------------------------------------------- #
# ring buffers: wraparound under backpressure
# --------------------------------------------------------------------- #


class TestRingWraparound:
    def test_vc_and_fifo_rings_wrap_under_backpressure(self):
        # Depth-2 VC rings on an 8-ring with every node streaming 48
        # exact-half (4-hop) packets: thousands of hops cycle through a
        # few dozen ring slots, so every ring head wraps its window many
        # times over.  The invariant oracle audits the ring occupancy
        # accounting after every event and the exactly-once ledger checks
        # each delivery, so any wraparound bug (head/index arithmetic,
        # stride overlap) trips an assertion rather than corrupting
        # traffic silently.
        shape = TorusShape.parse("8")
        params = MachineParams(vc_depth_packets=2)
        net = build_network(shape, params, check=CheckConfig())
        plans = [
            [PacketSpec(dst=(u + 4) % 8, wire_bytes=256)] * 48
            for u in range(8)
        ]
        res = net.run(ListProgram(plans))
        assert res.final_deliveries == 8 * 48
        # Minimal routes only: every packet crosses exactly 4 links.
        assert res.total_hops == 8 * 48 * 4
        # Pigeonhole witnesses that wraparound actually occurred: the
        # traffic far exceeds the total ring capacity...
        total_vc_slots = 8 * net._nvp * params.vc_depth_packets
        assert res.total_hops > 4 * total_vc_slots
        # ... and each node injected more packets than its FIFOs hold.
        fifo_slots = net._nfifos * params.injection_fifo_depth
        assert 48 > fifo_slots

    def test_reception_ring_wraps_at_hot_receiver(self, monkeypatch):
        # All-to-one with a reception FIFO of 4: the receiver's pending
        # ring turns over dozens of times while backpressure holds
        # senders' packets in depth-2 VC rings.
        monkeypatch.setattr(simulator, "RECEPTION_FIFO_DEPTH", 4)
        shape = TorusShape.parse("4x2")
        net = build_network(
            shape, MachineParams(vc_depth_packets=2), check=CheckConfig()
        )
        plans = [[PacketSpec(dst=0, wire_bytes=64)] * 32 for _ in range(8)]
        plans[0] = []
        res = net.run(ListProgram(plans))
        assert res.final_deliveries == 7 * 32
        assert res.final_deliveries > 8 * simulator.RECEPTION_FIFO_DEPTH


# --------------------------------------------------------------------- #
# fixed-point tick <-> float round-trips
# --------------------------------------------------------------------- #


def _assert_roundtrip(cycles: float) -> None:
    """cycles -> ticks -> cycles must be exact, and the tick value must
    be an integer-valued double (the calendar queue buckets on it)."""
    ticks = cycles * TICK_SCALE
    assert ticks.is_integer(), f"{cycles!r} does not scale to an integer"
    assert ticks * TICK_UNSCALE == cycles


_TIMING_PARAMS = [
    "alpha_packet_cycles",
    "alpha_message_cycles",
    "beta_cycles_per_byte",
    "gamma_cycles_per_byte",
    "hop_latency_cycles",
    "packet_cpu_cycles",
    "cpu_incremental_cycles_per_byte",
]


class TestTickRoundTrip:
    @pytest.mark.parametrize("name", _TIMING_PARAMS)
    def test_paper_param_roundtrips(self, name):
        _assert_roundtrip(getattr(MachineParams.bluegene_l(), name))

    @pytest.mark.parametrize("name", _TIMING_PARAMS)
    def test_perturbed_param_roundtrips(self, name):
        # The property is generic for any plausible magnitude (>= 2**-11
        # cycles), not an accident of the paper's round numbers.
        prm = MachineParams(
            alpha_packet_cycles=451.7,
            alpha_message_cycles=1169.3,
            beta_ns_per_byte=6.47,
            gamma_ns_per_byte=1.61,
            hop_latency_cycles=69.9,
            packet_cpu_cycles=100.1,
        )
        _assert_roundtrip(getattr(prm, name))

    @pytest.mark.parametrize("wire_bytes", list(range(64, 257, 32)))
    def test_derived_packet_costs_roundtrip(self, wire_bytes):
        prm = MachineParams.bluegene_l()
        _assert_roundtrip(prm.packet_service_cycles(wire_bytes))
        _assert_roundtrip(prm.cpu_packet_handling_cycles(wire_bytes))

    def test_tick_addition_commutes_with_float_rounding(self):
        # The isomorphism the core rests on: fl(a*S + b*S) == fl(a+b)*S
        # for the power-of-two S, so running the event arithmetic in
        # ticks reproduces the historical float results bit for bit.
        prm = MachineParams.bluegene_l()
        values = [getattr(prm, n) for n in _TIMING_PARAMS]
        values += [prm.packet_service_cycles(w) for w in (64, 96, 256)]
        acc_f = 0.0
        acc_t = 0.0
        for v in values * 7:
            acc_f += v
            acc_t += v * TICK_SCALE
            assert acc_t == acc_f * TICK_SCALE
        assert acc_t * TICK_UNSCALE == acc_f
