"""End-to-end fault resilience: the acceptance bar of the fault subsystem.

With a connected plan of >= 5% dead links plus 1% per-hop packet loss on a
4x4x4 torus, every built-in all-to-all strategy must (a) run to completion
in the timed simulator — routing around the cuts and recovering losses via
retransmission + dedup — and (b) pass the functional exchange verification
(every pair's bytes delivered exactly once).
"""

import pytest

pytestmark = pytest.mark.slow

from repro.api import simulate_alltoall
from repro.functional.verify import run_and_verify
from repro.model.torus import TorusShape
from repro.net import FaultPlan
from repro.strategies import (
    ARDirect,
    CreditedTPS,
    DRDirect,
    MPIDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

SHAPE = TorusShape.parse("4x4x4")

#: >= 5% of the 192 wires dead (connected), 1% per-hop loss.
PLAN = FaultPlan.random(
    SHAPE,
    seed=1,
    dead_link_fraction=0.05,
    loss_prob=0.01,
    retx_timeout_cycles=10_000.0,
)

ALL_STRATEGIES = [
    ARDirect(),
    DRDirect(),
    MPIDirect(),
    ThrottledAR(),
    TwoPhaseSchedule(),
    CreditedTPS(),
    VirtualMesh2D(),
]


def _n_dead_wires(plan):
    return len(plan.dead_links)


def test_plan_meets_acceptance_fault_level():
    assert _n_dead_wires(PLAN) >= 0.05 * SHAPE.total_links / 2
    assert PLAN.loss_prob == 0.01


@pytest.mark.parametrize(
    "strategy", ALL_STRATEGIES, ids=lambda s: s.name
)
def test_timed_run_completes_under_faults(strategy):
    run = simulate_alltoall(strategy, SHAPE, 64, seed=0, faults=PLAN)
    p = SHAPE.nnodes
    assert run.result.final_deliveries > 0
    assert run.time_cycles > 0
    # Losses occurred and every one was recovered.
    assert run.result.lost_packets > 0
    assert run.result.retransmitted_packets >= run.result.lost_packets
    # Dead links forced detours.
    assert run.result.rerouted_hops > 0


@pytest.mark.parametrize(
    "strategy", ALL_STRATEGIES, ids=lambda s: s.name
)
def test_exchange_verifies_under_faults(strategy):
    _, report = run_and_verify(strategy, SHAPE, 64, seed=0, faults=PLAN)
    assert report.ok, report.summary()


def test_deterministic_under_faults():
    a = simulate_alltoall(ARDirect(), SHAPE, 64, seed=0, faults=PLAN)
    b = simulate_alltoall(ARDirect(), SHAPE, 64, seed=0, faults=PLAN)
    assert a.time_cycles == b.time_cycles
    assert a.result.lost_packets == b.result.lost_packets
    assert a.result.events_processed == b.result.events_processed
