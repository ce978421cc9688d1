"""Conservation/consistency invariants of the simulator.

The invariants themselves — every token returned, every FIFO/reception
slot freed, packet accounting closed, busy time equal to observed
launches — are defined ONCE, in :mod:`repro.check.oracle`, and enforced
at runtime by the checked network classes.  These tests run real programs
under ``build_network(check=...)`` so the conservation/progress oracles
verify the whole run (any leak raises :class:`InvariantError`), then keep
only the assertions the oracles cannot know: exact service-time algebra,
minimal-hop routing, latency ordering.  Detection of *violations* is
covered by the sabotage tests in ``tests/check/test_oracle.py``.
"""

import pytest

from repro.check import CheckConfig, oracle
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net import ListProgram, PacketSpec
from repro.net.displacement import displacement_tables
from repro.net.faultsim import build_network
from repro.net.simulator import RECEPTION_FIFO_DEPTH
from repro.strategies import ARDirect, TwoPhaseSchedule, VirtualMesh2D

CHECK = CheckConfig()


@pytest.fixture(autouse=True)
def _frequent_audits(monkeypatch):
    # Audit progress every 64 deliveries, not only at the end.
    monkeypatch.setattr(oracle, "AUDIT_INTERVAL", 64)


def run_checked(shape_lbl, program, fifo_groups=1):
    """Run *program* with every repro.check oracle armed."""
    shape = TorusShape.parse(shape_lbl)
    net = build_network(shape, MachineParams.bluegene_l(), check=CHECK)
    if fifo_groups > 1:
        net.set_fifo_groups(fifo_groups)
    return net, net.run(program)


@pytest.mark.parametrize(
    "strategy", [ARDirect(), TwoPhaseSchedule(), VirtualMesh2D()]
)
def test_resource_conservation_oracles_stay_silent(strategy):
    # A completed checked run IS the assertion: the conservation oracle
    # raises if any token/FIFO slot/reception slot leaks or any packet
    # goes unaccounted, and the progress oracle audits queue counters
    # throughout.
    shape = TorusShape.parse("2x4x4")
    net, res = run_checked(
        "2x4x4",
        strategy.build_program(shape, 100),
        fifo_groups=strategy.fifo_groups,
    )
    assert res.delivered_packets == res.injected_packets
    # Belt and braces: the oracle checked these before _result returned.
    assert all(t == net.params.vc_depth_packets for t in net._tokens)
    assert all(f == net.params.injection_fifo_depth for f in net._fifo_free)
    assert all(r == RECEPTION_FIFO_DEPTH for r in net._recv_free)


def test_busy_cycles_match_hops_exactly():
    # Uniform 256 B packets: total link-busy time == hops * service.
    # (Stronger than the oracle's launch-accounting identity, which holds
    # for any mix of sizes; this pins the actual service-time algebra.)
    plans = [
        [PacketSpec(dst=(u + 5) % 16, wire_bytes=256)] * 3 for u in range(16)
    ]
    net, res = run_checked("4x4", ListProgram(plans))
    beta = net.params.beta_cycles_per_byte
    assert res.link_busy_cycles.sum() == pytest.approx(
        res.total_hops * 256 * beta
    )


def test_hops_are_minimal_for_direct_traffic():
    shape = TorusShape.parse("4x4x4")
    tabs = displacement_tables(shape)
    plans = [[] for _ in range(64)]
    total_min = 0
    for u in (0, 17, 40):
        for v in (3, 22, 63):
            if u == v:
                continue
            plans[u].append(PacketSpec(dst=v, wire_bytes=64))
            cu, cv = shape.coord(u), shape.coord(v)
            # |displacement| is the same for either tie bit.
            total_min += sum(
                abs(tabs.displacement(a, cu[a], cv[a])) for a in range(3)
            )
    _, res = run_checked("4x4x4", ListProgram(plans))
    assert res.total_hops == total_min


def test_delivery_counts_consistent():
    shape = TorusShape.parse("2x4x4")
    strat = TwoPhaseSchedule()
    _, res = run_checked(
        "2x4x4", strat.build_program(shape, 100), fifo_groups=2
    )
    # Every injected packet is eventually drained exactly once.
    assert res.delivered_packets == res.injected_packets
    assert res.final_deliveries + res.forwarded_packets == res.delivered_packets


def test_mean_latency_positive_and_bounded():
    shape = TorusShape.parse("4x4")
    _, res = run_checked("4x4", ARDirect().build_program(shape, 64))
    assert 0 < res.mean_final_latency <= res.max_final_latency
    assert res.max_final_latency <= res.time_cycles
