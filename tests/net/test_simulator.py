"""Behavioral tests of the torus network simulator.

These pin the semantics the strategies rely on: link service timing,
pipelining, token flow control, local delivery, deterministic vs adaptive
routing, FIFO reservation groups, pacing, and error detection.
"""

import itertools

import pytest

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net import (
    DeadlockError,
    ListProgram,
    PacketSpec,
    RoutingMode,
    SimulationError,
    SimulationLimitError,
    TorusNetwork,
)
from repro.net import simulator
from repro.net.faultsim import FaultyTorusNetwork
from repro.net.program import BaseProgram
from repro.obs import LinkAnalytics
from repro.runner.supervise import watchdog


def ideal_params(**over):
    """Zero-overhead machine for pure network-timing tests."""
    base = dict(
        alpha_packet_cycles=0.0,
        packet_cpu_cycles=0.0,
        cpu_links=1e6,
        hop_latency_cycles=0.0,
    )
    base.update(over)
    return MachineParams(**base)


def run_plans(shape_lbl, plans, params=None):
    shape = TorusShape.parse(shape_lbl)
    net = TorusNetwork(shape, params or ideal_params())
    return net.run(ListProgram(plans))


class TestBasicDelivery:
    def test_single_packet(self):
        res = run_plans("4", [[PacketSpec(dst=1, wire_bytes=256)], [], [], []])
        assert res.final_deliveries == 1
        assert res.injected_packets == 1
        assert res.total_hops == 1

    def test_self_message_bypasses_network(self):
        res = run_plans("4", [[PacketSpec(dst=0, wire_bytes=64)], [], [], []])
        assert res.final_deliveries == 1
        assert res.total_hops == 0

    def test_all_nodes_inject(self):
        plans = [[PacketSpec(dst=(i + 1) % 4, wire_bytes=64)] for i in range(4)]
        res = run_plans("4", plans)
        assert res.final_deliveries == 4

    def test_wrong_expectation_raises(self):
        shape = TorusShape.parse("4")
        prog = ListProgram([[PacketSpec(dst=1, wire_bytes=64)], [], [], []])
        prog._total = 2  # sabotage
        with pytest.raises(DeadlockError):
            TorusNetwork(shape, ideal_params()).run(prog)


class TestLinkTiming:
    def test_stream_throughput(self):
        # 100 packets over one link: exactly 100 service times.
        prm = ideal_params()
        s = 256 * prm.beta_cycles_per_byte
        plans = [[PacketSpec(dst=1, wire_bytes=256)] * 100, [], [], []]
        res = run_plans("4", plans, prm)
        assert res.time_cycles == pytest.approx(100 * s, rel=1e-6)

    def test_cut_through_pipelining(self):
        # A multi-hop stream costs ~1 extra header latency per hop plus
        # one tail service, not a full service time per hop (virtual
        # cut-through).  dst=3 keeps the route unambiguous (a 4-hop
        # destination on an 8-ring would split over both directions).
        prm = ideal_params(hop_latency_cycles=50.0)
        s = 256 * prm.beta_cycles_per_byte
        plans = [[PacketSpec(dst=3, wire_bytes=256)] * 50] + [[]] * 7
        res = run_plans("8", plans, prm)
        assert res.time_cycles == pytest.approx(50 * s + 3 * 50, rel=0.01)

    def test_half_displacement_splits_both_directions(self):
        # Exactly-half torus displacements use both minimal directions
        # (a fixed tie-break would halve the achievable rate).
        prm = ideal_params()
        s = 256 * prm.beta_cycles_per_byte
        plans = [[PacketSpec(dst=4, wire_bytes=256)] * 50] + [[]] * 7
        res = run_plans("8", plans, prm)
        assert res.time_cycles < 30 * s  # ~25*S with the split
        busy = res.link_busy_cycles
        assert busy[0, 0] > 0 and busy[0, 1] > 0

    def test_service_scales_with_wire_bytes(self):
        prm = ideal_params()
        r64 = run_plans("4", [[PacketSpec(dst=1, wire_bytes=64)] * 10, [], [], []], prm)
        r256 = run_plans("4", [[PacketSpec(dst=1, wire_bytes=256)] * 10, [], [], []], prm)
        assert r256.time_cycles == pytest.approx(4 * r64.time_cycles, rel=1e-6)

    def test_link_utilization_accounting(self):
        prm = ideal_params()
        plans = [[PacketSpec(dst=1, wire_bytes=256)] * 10, [], [], []]
        res = run_plans("4", plans, prm)
        la = LinkAnalytics.from_result(
            res, TorusShape.parse("4"), prm.beta_cycles_per_byte
        )
        # Exactly one link busy the whole time.
        assert la.utilization().max() == pytest.approx(1.0, rel=1e-6)
        busy = res.link_busy_cycles
        assert busy.sum() == pytest.approx(res.time_cycles)


class TestRoutingModes:
    def test_adaptive_spreads_over_profitable_dirs(self):
        # Node 0 -> diagonally opposite on 4x4: both +x and +y profitable.
        prm = ideal_params()
        shape = TorusShape.parse("4x4")
        dst = shape.rank((1, 1))
        plans = [[] for _ in range(16)]
        plans[0] = [PacketSpec(dst=dst, wire_bytes=256)] * 40
        net = TorusNetwork(shape, prm)
        res = net.run(ListProgram(plans))
        busy = res.link_busy_cycles
        # Both the +x and +y links out of node 0 carried traffic.
        assert busy[0, 0] > 0 and busy[0, 2] > 0

    def test_deterministic_uses_x_first_only(self):
        prm = ideal_params()
        shape = TorusShape.parse("4x4")
        dst = shape.rank((1, 1))
        plans = [[] for _ in range(16)]
        plans[0] = [
            PacketSpec(dst=dst, wire_bytes=256, mode=RoutingMode.DETERMINISTIC)
        ] * 40
        net = TorusNetwork(shape, prm)
        res = net.run(ListProgram(plans))
        busy = res.link_busy_cycles
        # All traffic leaves node 0 on +x; none on +y.
        assert busy[0, 0] > 0
        assert busy[0, 2] == 0

    def test_deterministic_slower_under_turn_contention(self):
        # All nodes send diagonal traffic: DR serializes on X-then-Y while
        # AR balances, so DR must not be faster.
        prm = ideal_params()
        shape = TorusShape.parse("4x4")
        def plan(mode):
            plans = []
            for u in range(16):
                c = shape.coord(u)
                d = shape.rank(((c[0] + 1) % 4, (c[1] + 1) % 4))
                plans.append([PacketSpec(dst=d, wire_bytes=256, mode=mode)] * 20)
            return plans
        t_ar = run_plans("4x4", plan(RoutingMode.ADAPTIVE), prm).time_cycles
        t_dr = run_plans("4x4", plan(RoutingMode.DETERMINISTIC), prm).time_cycles
        assert t_dr >= t_ar * 0.99

    def test_minimal_routing_hop_counts(self):
        prm = ideal_params()
        shape = TorusShape.parse("4x4x4")
        src = shape.rank((0, 0, 0))
        dst = shape.rank((2, 1, 3))
        plans = [[] for _ in range(64)]
        plans[src] = [PacketSpec(dst=dst, wire_bytes=64)] * 8
        res = run_plans("4x4x4", plans, prm)
        # 2 + 1 + 1 = 4 minimal hops per packet.
        assert res.total_hops == 8 * 4


class TestCpuModel:
    def test_alpha_charged_per_message(self):
        prm = ideal_params(alpha_packet_cycles=1000.0)
        plans = [[
            PacketSpec(dst=1, wire_bytes=64, new_message=True),
            PacketSpec(dst=1, wire_bytes=64),
        ], [], [], []]
        res = run_plans("4", plans, prm)
        r2 = run_plans("4", [[
            PacketSpec(dst=1, wire_bytes=64),
            PacketSpec(dst=1, wire_bytes=64),
        ], [], [], []], prm)
        assert res.time_cycles == pytest.approx(r2.time_cycles + 1000.0)

    def test_alpha_override(self):
        prm = ideal_params(alpha_packet_cycles=1000.0)
        plans = [[PacketSpec(dst=1, wire_bytes=64, new_message=True,
                             alpha_cycles=5000.0)], [], [], []]
        base = [[PacketSpec(dst=1, wire_bytes=64, new_message=True)], [], [], []]
        assert run_plans("4", plans, prm).time_cycles == pytest.approx(
            run_plans("4", base, prm).time_cycles + 4000.0
        )

    def test_cpu_byte_rate_limits_injection(self):
        # CPU at 1 link's bandwidth cannot saturate two outgoing links.
        prm = ideal_params(cpu_links=1.0)
        shape = TorusShape.parse("8")
        plans = [[] for _ in range(8)]
        # Split traffic between +1 and -1 neighbors: network could do 2
        # links in parallel but the CPU feeds at 1 link rate.
        plans[0] = [
            PacketSpec(dst=1 if i % 2 else 7, wire_bytes=256) for i in range(40)
        ]
        res = run_plans("8", plans, prm)
        s = 256 * prm.beta_cycles_per_byte
        assert res.time_cycles >= 40 * s * 0.95

    def test_extra_cpu_cycles_charged(self):
        prm = ideal_params()
        withx = [[PacketSpec(dst=1, wire_bytes=64, extra_cpu_cycles=500.0)]] + [[]] * 3
        base = [[PacketSpec(dst=1, wire_bytes=64)]] + [[]] * 3
        assert run_plans("4", withx, prm).time_cycles == pytest.approx(
            run_plans("4", base, prm).time_cycles + 500.0
        )


class TestPacing:
    def test_paced_injection_spacing(self):
        prm = ideal_params()

        class Paced(ListProgram):
            def pace_cycles(self, node):
                return 10_000.0

        plans = [[PacketSpec(dst=1, wire_bytes=64)] * 5, [], [], []]
        shape = TorusShape.parse("4")
        res = TorusNetwork(shape, prm).run(Paced(plans))
        assert res.time_cycles >= 4 * 10_000.0


class TestFifoGroups:
    def test_group_validation(self):
        net = TorusNetwork(TorusShape.parse("4"), ideal_params())
        with pytest.raises(ValueError):
            net.set_fifo_groups(3)  # does not divide 4
        net.set_fifo_groups(2)

    def test_traffic_in_both_groups_delivered(self):
        prm = ideal_params()
        shape = TorusShape.parse("4")
        net = TorusNetwork(shape, prm)
        net.set_fifo_groups(2)
        plans = [[
            PacketSpec(dst=1, wire_bytes=64, fifo_group=0),
            PacketSpec(dst=2, wire_bytes=64, fifo_group=1),
        ], [], [], []]
        res = net.run(ListProgram(plans))
        assert res.final_deliveries == 2


class TestFlowControl:
    def test_finite_buffers_backpressure(self):
        # With depth-1 VCs a burst still delivers everything (no deadlock,
        # no loss) - just more slowly than with deep buffers.
        shallow = ideal_params(vc_depth_packets=1)
        deep = ideal_params(vc_depth_packets=64)
        plans = [[PacketSpec(dst=4, wire_bytes=256)] * 30] + [[]] * 7
        r_sh = run_plans("8", plans, shallow)
        r_dp = run_plans("8", plans, deep)
        assert r_sh.final_deliveries == r_dp.final_deliveries == 30
        assert r_sh.time_cycles >= r_dp.time_cycles

    def test_reception_backpressure(self, monkeypatch):
        # A tiny reception FIFO with a slow CPU still delivers everything.
        monkeypatch.setattr(simulator, "RECEPTION_FIFO_DEPTH", 1)
        prm = ideal_params(cpu_links=0.5)
        plans = [[PacketSpec(dst=1, wire_bytes=256)] * 20, [], [], []]
        res = run_plans("4", plans, prm)
        assert res.final_deliveries == 20


class TestLimits:
    def test_event_limit(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_EVENTS", 10)
        plans = [[PacketSpec(dst=1, wire_bytes=64)] * 50, [], [], []]
        with pytest.raises(SimulationLimitError):
            run_plans("4", plans)

    def test_cycle_limit(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_CYCLES", 10.0)
        plans = [[PacketSpec(dst=1, wire_bytes=256)] * 50, [], [], []]
        with pytest.raises(SimulationLimitError):
            run_plans("4", plans)

    def test_limit_error_carries_diagnostics(self, monkeypatch):
        # A limit abort must say *where* the simulation was stuck, not just
        # that it stopped: event count, packets still in the network, and
        # the per-node pending-work hotspots.
        monkeypatch.setattr(simulator, "MAX_EVENTS", 10)
        plans = [[PacketSpec(dst=1, wire_bytes=64)] * 50, [], [], []]
        with pytest.raises(SimulationLimitError) as ei:
            run_plans("4", plans)
        err = ei.value
        assert err.events_processed >= 10
        assert err.packets_in_flight >= 0
        assert isinstance(err.pending_by_node, dict)
        msg = str(err)
        assert "events_processed=" in msg
        assert "packets_in_flight=" in msg

    def test_tick_that_never_ends_trips_the_event_budget(self, monkeypatch):
        # Self-messages never touch the network, and with free CPU ops
        # every injection completes at the tick it starts: an endless
        # plan grows one tick without bound.  The budget must still trip
        # (a loop that checked it only at tick ends would never return);
        # the watchdog turns such a hang into a failure.
        class Endless(BaseProgram):
            def injection_plan(self, node):
                if node == 0:
                    return itertools.repeat(PacketSpec(dst=0, wire_bytes=64))
                return iter(())

            def expected_final_deliveries(self):
                return 0

        monkeypatch.setattr(simulator, "MAX_EVENTS", 10_000)
        prm = ideal_params(cpu_links=float("inf"))
        net = TorusNetwork(TorusShape.parse("4"), prm)
        with watchdog(20.0, "endless-tick run"):
            with pytest.raises(SimulationLimitError) as ei:
                net.run(Endless())
        assert ei.value.events_processed > 10_000


class TestSingleRun:
    @pytest.mark.parametrize(
        "network", [TorusNetwork, FaultyTorusNetwork], ids=lambda c: c.__name__
    )
    def test_second_run_is_rejected_before_any_event(self, network):
        # A network's queues, credits, clock and statistics carry its
        # first run's end state; a second run would double-count into
        # them and end in a spurious DeadlockError.
        from repro.strategies import ARDirect

        shape = TorusShape.parse("4x4")
        net = network(shape)
        net.run(ARDirect().build_program(shape, 64, seed=0))
        before = (net.stats.events_processed, net.stats.injected_packets)
        now = net._now
        with pytest.raises(SimulationError, match="build a new network"):
            net.run(ARDirect().build_program(shape, 64, seed=0))
        assert (net.stats.events_processed, net.stats.injected_packets) == (
            before
        )
        assert net._now == now


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        from repro.strategies import ARDirect

        shape = TorusShape.parse("4x4")
        prog1 = ARDirect().build_program(shape, 100, seed=5)
        prog2 = ARDirect().build_program(shape, 100, seed=5)
        r1 = TorusNetwork(shape).run(prog1)
        r2 = TorusNetwork(shape).run(prog2)
        assert r1.time_cycles == r2.time_cycles
        assert r1.events_processed == r2.events_processed

    def test_seed_changes_schedule(self):
        from repro.strategies import ARDirect

        shape = TorusShape.parse("4x4")
        r1 = TorusNetwork(shape).run(ARDirect().build_program(shape, 100, seed=1))
        r2 = TorusNetwork(shape).run(ARDirect().build_program(shape, 100, seed=2))
        assert r1.time_cycles != r2.time_cycles


class TestForwarding:
    def test_on_delivery_forwarding(self):
        """A relay program: node 1 bounces everything to node 2."""

        class Relay(BaseProgram):
            def injection_plan(self, node):
                if node == 0:
                    return iter(
                        [PacketSpec(dst=1, wire_bytes=64, final_dst=2)] * 5
                    )
                return iter(())

            def on_delivery(self, node, src, spec):
                if spec.final_dst == node:
                    return ()
                return (PacketSpec(dst=2, wire_bytes=64, final_dst=2),)

            def expected_final_deliveries(self):
                return 5

        shape = TorusShape.parse("4")
        res = TorusNetwork(shape, ideal_params()).run(Relay())
        assert res.final_deliveries == 5
        assert res.forwarded_packets == 5
        assert res.injected_packets == 10  # 5 original + 5 re-injected


class TestMalformedTraffic:
    """Specs the network cannot carry fail at injection, naming the node,
    the destination and the size."""

    @pytest.mark.parametrize(
        "dst, wire_bytes",
        [(1, -5), (1, 0), (-1, 64), (9, 64)],
        ids=["negative-size", "zero-size", "negative-dst", "dst-past-end"],
    )
    def test_bad_spec_raises_at_injection(self, dst, wire_bytes):
        shape = TorusShape.parse("4")
        prog = ListProgram(
            [[], [], [PacketSpec(dst=dst, wire_bytes=wire_bytes)], []]
        )
        with pytest.raises(SimulationError) as exc_info:
            TorusNetwork(shape).run(prog)
        assert type(exc_info.value) is SimulationError
        msg = str(exc_info.value)
        assert "node 2" in msg
        assert f"dst={dst}" in msg
        assert f"wire_bytes={wire_bytes}" in msg


class _Proxy:
    """A duck-typed program: forwards everything to a wrapped program,
    so its class does not inherit ``BaseProgram.on_delivery``."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestNonForwardingDelivery:
    """``BaseProgram.on_delivery`` rejects a non-final delivery, on the
    plain path (final deliveries skip the hook) and through a duck-typed
    program."""

    @pytest.mark.parametrize("wrap", [False, True], ids=["plain", "proxy"])
    def test_non_final_delivery_raises(self, wrap):
        shape = TorusShape.parse("4")
        spec = PacketSpec(dst=1, wire_bytes=64, final_dst=3)
        prog = ListProgram([[spec], [], [], []])
        net = TorusNetwork(shape)
        with pytest.raises(RuntimeError, match=(
            r"non-final packet delivered to node 1 under a non-forwarding "
            r"program \(final_dst=3\)"
        )):
            net.run(_Proxy(prog) if wrap else prog)
        assert net._plain_delivery is not wrap

    @pytest.mark.parametrize("wrap", [False, True], ids=["plain", "proxy"])
    def test_final_deliveries_agree_across_paths(self, wrap):
        from repro.strategies import ARDirect

        shape = TorusShape.parse("4x2")
        prog = ARDirect().build_program(shape, 500, seed=3)
        net = TorusNetwork(shape)
        res = net.run(_Proxy(prog) if wrap else prog)
        ref = TorusNetwork(shape).run(
            ARDirect().build_program(shape, 500, seed=3)
        )
        assert net._plain_delivery is not wrap
        for field in ("time_cycles", "events_processed", "final_deliveries"):
            assert getattr(res, field) == getattr(ref, field)
