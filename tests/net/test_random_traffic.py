"""Property-based simulator tests under arbitrary random traffic.

Hypothesis drives random shapes, traffic matrices, packet sizes and
routing modes through the full network; the invariants are exact delivery
accounting, resource conservation and timing sanity.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net import ListProgram, PacketSpec, RoutingMode, TorusNetwork

SHAPES = ["4", "2x4", "4x4", "2x2x2", "2x2x4", "3x3", "5", "4x2M"]

COMMON = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def traffic_case(draw):
    lbl = draw(st.sampled_from(SHAPES))
    shape = TorusShape.parse(lbl)
    p = shape.nnodes
    n_flows = draw(st.integers(1, 12))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(0, p - 1))
        dst = draw(st.integers(0, p - 1))
        count = draw(st.integers(1, 4))
        wire = draw(st.sampled_from([64, 96, 160, 256]))
        mode = draw(
            st.sampled_from([RoutingMode.ADAPTIVE, RoutingMode.DETERMINISTIC])
        )
        flows.append((src, dst, count, wire, mode))
    return lbl, flows


@given(case=traffic_case())
@settings(**COMMON)
def test_every_packet_delivered_exactly_once(case):
    lbl, flows = case
    shape = TorusShape.parse(lbl)
    plans = [[] for _ in range(shape.nnodes)]
    total = 0
    for src, dst, count, wire, mode in flows:
        for _ in range(count):
            plans[src].append(PacketSpec(dst=dst, wire_bytes=wire, mode=mode))
            total += 1
    net = TorusNetwork(shape)
    res = net.run(ListProgram(plans))
    assert res.final_deliveries == total
    assert res.delivered_packets == total
    # All resources returned.
    assert all(t == net.params.vc_depth_packets for t in net._tokens)
    assert all(
        f == net.params.injection_fifo_depth for f in net._fifo_free
    )


@given(case=traffic_case())
@settings(**COMMON)
def test_timing_sane(case):
    lbl, flows = case
    shape = TorusShape.parse(lbl)
    plans = [[] for _ in range(shape.nnodes)]
    for src, dst, count, wire, mode in flows:
        plans[src].extend(
            PacketSpec(dst=dst, wire_bytes=wire, mode=mode)
            for _ in range(count)
        )
    net = TorusNetwork(shape)
    res = net.run(ListProgram(plans))
    # Completion after every per-link busy interval it accounts.
    assert res.time_cycles >= 0
    assert res.link_busy_cycles.max(initial=0.0) <= res.time_cycles or (
        res.time_cycles == 0.0
    )
    assert res.mean_final_latency >= 0


@given(
    lbl=st.sampled_from(SHAPES),
    seed=st.integers(0, 1000),
    m=st.sampled_from([1, 100]),
)
@settings(deadline=None, max_examples=15)
def test_strategy_runs_deterministic(lbl, seed, m):
    from repro.strategies import ARDirect

    shape = TorusShape.parse(lbl)
    r1 = TorusNetwork(shape).run(ARDirect().build_program(shape, m, seed=seed))
    r2 = TorusNetwork(shape).run(ARDirect().build_program(shape, m, seed=seed))
    assert r1.time_cycles == r2.time_cycles
    assert r1.total_hops == r2.total_hops
