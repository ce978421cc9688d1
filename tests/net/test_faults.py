"""Unit tests of the fault-injection subsystem.

Covers the declarative :class:`FaultPlan` (validation, determinism,
connectivity rejection), neighbor masking, the fault-aware up*/down*
routing table, the deterministic loss hash, and the behaviors
:class:`FaultyTorusNetwork` layers on top of the pristine simulator:
lossy-wire retransmission with exactly-once delivery and rerouting
around dead links — plus the zero-fault fast path (an empty plan must
be bit-identical to no plan at all).
"""

import math

import pytest

from repro.api import simulate_alltoall
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net import (
    FaultPlan,
    FaultRoutingTable,
    FaultyTorusNetwork,
    ListProgram,
    PacketSpec,
    PartitionedNetworkError,
    TorusNetwork,
    build_network,
)
from repro.net.faults import loss_draw, loss_salt, masked_neighbors
from repro.net.topology import Topology
from repro.strategies import ARDirect


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


def run_faulty(shape_lbl, plans, plan, params=None):
    shape = TorusShape.parse(shape_lbl)
    net = FaultyTorusNetwork(shape, params or ideal_params(), faults=plan)
    return net.run(ListProgram(plans))


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not plan.has_loss

    def test_non_empty_predicates(self):
        assert not FaultPlan(loss_prob=0.01).is_empty
        assert FaultPlan(loss_prob=0.01).has_loss
        assert not FaultPlan(dead_links=frozenset({(0, 0)})).has_loss
        assert not FaultPlan(dead_links=frozenset({(0, 0)})).is_empty

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_prob=1.0),
            dict(loss_prob=-0.1),
            dict(retx_timeout_cycles=0.0),
            dict(loss_prob=math.nan),
            dict(retx_timeout_cycles=-1.0),
            dict(retx_timeout_cycles=math.nan),
            dict(loss_prob=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_random_is_deterministic(self):
        shape = TorusShape.parse("4x4x4")
        a = FaultPlan.random(shape, seed=7, dead_link_fraction=0.05)
        b = FaultPlan.random(shape, seed=7, dead_link_fraction=0.05)
        assert a == b
        c = FaultPlan.random(shape, seed=8, dead_link_fraction=0.05)
        assert c.dead_links != a.dead_links

    def test_random_stays_connected(self):
        shape = TorusShape.parse("4x4")
        # At this fraction seed 3's first two draws disconnect 4x4; the
        # returned plan must still admit a full routing table.
        plan = FaultPlan.random(shape, seed=3, dead_link_fraction=0.4)
        FaultRoutingTable(Topology(shape), plan)

    def test_random_rejects_impossible(self):
        # Killing 3 of 4 wires of a 2x2 ring disconnects it; rejection
        # sampling must give up with PartitionedNetworkError.
        with pytest.raises(PartitionedNetworkError):
            FaultPlan.random(
                TorusShape.parse("2x2"), seed=0, dead_link_fraction=0.75
            )


class TestMasking:
    def test_no_fault_mask_is_identity(self):
        topo = Topology(TorusShape.parse("4x4"))
        assert masked_neighbors(topo, FaultPlan()) == topo.neighbor.tolist()

    def test_dead_wire_kills_both_directions(self):
        topo = Topology(TorusShape.parse("4"))
        nbr = masked_neighbors(
            topo, FaultPlan(dead_links=frozenset({(0, 0)}))
        )
        v = topo.neighbor[0][0]
        assert nbr[0][0] == -1
        assert nbr[v][1] == -1  # reverse entry masked too


class TestRoutingTable:
    def test_partition_detected(self):
        # Cut every wire of node 0 on a 1-D ring of 4 -> 0 is stranded.
        topo = Topology(TorusShape.parse("4"))
        plan = FaultPlan(dead_links=frozenset({(0, 0), (0, 1)}))
        with pytest.raises(PartitionedNetworkError) as ei:
            FaultRoutingTable(topo, plan)
        assert len(ei.value.unreachable) > 0

    def test_escape_path_reaches_every_destination(self):
        # Walk the up*/down* escape next-hops from every src to every dst
        # on a faulty torus: the walk must terminate at dst without loops.
        shape = TorusShape.parse("4x4")
        topo = Topology(shape)
        plan = FaultPlan.random(shape, seed=11, dead_link_fraction=0.1)
        rt = FaultRoutingTable(topo, plan)
        p = topo.nnodes
        for dst in range(p):
            base = dst * p
            for src in range(p):
                u, down, hops = src, False, 0
                while u != dst:
                    d = rt.nh_down[base + u] if down else rt.nh_up[base + u]
                    assert d >= 0, f"no escape hop at {u} toward {dst}"
                    v = rt.nbr[u][d]
                    assert v >= 0
                    if rt.order[v] > rt.order[u]:
                        down = True
                    u = v
                    hops += 1
                    assert hops <= 2 * p, "escape walk is looping"

    def test_dist_is_bfs_on_surviving_links(self):
        shape = TorusShape.parse("4x4")
        topo = Topology(shape)
        plan = FaultPlan(dead_links=frozenset({(0, 0)}))
        rt = FaultRoutingTable(topo, plan)
        v = topo.neighbor[0][0]
        # The pristine distance 0 -> v is 1; with the wire cut the faulty
        # BFS must route around (distance >= 2, here exactly 3 on a 4-ring
        # axis... at least strictly longer than pristine).
        assert rt.dist[v * topo.nnodes + 0] > 1

    def test_num_links_counts_survivors(self):
        shape = TorusShape.parse("4x4")
        topo = Topology(shape)
        rt = FaultRoutingTable(topo, FaultPlan(dead_links=frozenset({(0, 0)})))
        assert rt.num_links == topo.num_links - 2

    def test_productive_directions_shrink_distance(self):
        shape = TorusShape.parse("4x4x2")
        topo = Topology(shape)
        plan = FaultPlan.random(shape, seed=2, dead_link_fraction=0.15)
        rt = FaultRoutingTable(topo, plan)
        p = topo.nnodes
        for dst in range(p):
            for u in range(p):
                du = rt.dist[dst * p + u]
                want = tuple(
                    d
                    for d, v in enumerate(rt.nbr[u])
                    if v >= 0 and 0 <= rt.dist[dst * p + v] < du
                )
                assert rt.productive[dst * p + u] == want
        # Interned: one object per distinct direction subset.
        assert len({id(t) for t in rt.productive}) == len(set(rt.productive))
        assert len(set(rt.productive)) <= 2 ** topo.ndirs


#: Plans naming a link a 4x4x2 torus (32 nodes, 6 directions) does not
#: have.  Unchecked, negative indices wrap into node 31's slots of the
#: flat tables and the rest fail late.
BAD_NAMES = {
    "dead-link-node-negative": FaultPlan(dead_links=frozenset({(-1, 0)})),
    "dead-link-direction-too-big": FaultPlan(dead_links=frozenset({(0, 9)})),
}


class TestPlanNames:
    @pytest.mark.parametrize("plan", BAD_NAMES.values(), ids=BAD_NAMES.keys())
    def test_nonexistent_entry_rejected_before_any_event(self, plan):
        shape = TorusShape.parse("4x4x2")
        with pytest.raises(ValueError, match="fault plan .* entry"):
            build_network(shape, faults=plan)
        with pytest.raises(ValueError, match="fault plan .* entry"):
            simulate_alltoall(ARDirect(), shape, 64, seed=1, faults=plan)

    def test_in_range_entries_accepted(self):
        topo = Topology(TorusShape.parse("4x4x2"))
        plan = FaultPlan(dead_links=frozenset({(31, 0), (0, 5)}))
        FaultRoutingTable(topo, plan)


class TestLossHash:
    def test_deterministic_and_uniform_range(self):
        salt = loss_salt(FaultPlan(loss_prob=0.1, seed=42))
        draws = [loss_draw(salt, pid, 3, 17) for pid in range(1000)]
        assert draws == [loss_draw(salt, pid, 3, 17) for pid in range(1000)]
        assert all(0.0 <= x < 1.0 for x in draws)
        # Crude uniformity: about 10% below 0.1.
        frac = sum(x < 0.1 for x in draws) / len(draws)
        assert 0.05 < frac < 0.2

    def test_salt_depends_on_seed(self):
        s1 = loss_salt(FaultPlan(loss_prob=0.1, seed=1))
        s2 = loss_salt(FaultPlan(loss_prob=0.1, seed=2))
        assert s1 != s2


class TestFaultyNetwork:
    def test_lossy_wire_exactly_once(self):
        # 20% loss: every packet still arrives exactly once, losses and
        # retransmissions are accounted, and dedup absorbs any duplicates.
        plan = FaultPlan(loss_prob=0.2, seed=9, retx_timeout_cycles=2_000.0)
        plans = [[PacketSpec(dst=2, wire_bytes=64)] * 30, [], [], []]
        res = run_faulty("4", plans, plan)
        assert res.final_deliveries == 30
        assert res.lost_packets > 0
        assert res.retransmitted_packets >= res.lost_packets
        assert res.duplicate_packets >= 0

    def test_zero_loss_plan_counts_nothing(self):
        plan = FaultPlan(dead_links=frozenset({(0, 0)}))
        plans = [[PacketSpec(dst=1, wire_bytes=64)] * 5, [], [], []]
        res = run_faulty("4", plans, plan)
        assert res.final_deliveries == 5
        assert res.lost_packets == 0
        assert res.retransmitted_packets == 0
        assert res.duplicate_packets == 0

    def test_dead_link_routes_around(self):
        # Cut the direct wire 0 -> 1 on a 4-ring: the packet must take the
        # long way (3 hops instead of 1).
        plan = FaultPlan(dead_links=frozenset({(0, 0)}))
        plans = [[PacketSpec(dst=1, wire_bytes=64)], [], [], []]
        res = run_faulty("4", plans, plan)
        assert res.final_deliveries == 1
        assert res.total_hops == 3
        assert res.rerouted_hops > 0



class TestZeroFaultFastPath:
    def test_factory_returns_plain_network(self):
        shape = TorusShape.parse("4x4")
        assert type(build_network(shape)) is TorusNetwork
        assert type(build_network(shape, faults=None)) is TorusNetwork
        assert type(build_network(shape, faults=FaultPlan())) is TorusNetwork
        net = build_network(shape, faults=FaultPlan(loss_prob=0.01))
        assert type(net) is FaultyTorusNetwork

    def test_empty_plan_reproduces_baseline_exactly(self):
        # The acceptance bar: an empty FaultPlan must be *bit-identical* to
        # running without one — same schedule, same event count, same time.
        import dataclasses

        import numpy as np

        shape = TorusShape.parse("4x4")
        a = simulate_alltoall(ARDirect(), shape, 240, seed=3, faults=None)
        b = simulate_alltoall(
            ARDirect(), shape, 240, seed=3, faults=FaultPlan()
        )
        for f in dataclasses.fields(a.result):
            va, vb = getattr(a.result, f.name), getattr(b.result, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name
