"""End-to-end fault resilience: the acceptance bar of the fault subsystem.

With a connected plan of >= 5% dead links plus 1% per-hop packet loss on a
4x4x4 torus, every built-in all-to-all strategy must (a) run to completion
in the timed simulator — routing around the cuts and recovering losses via
retransmission + dedup — and (b) pass the functional exchange verification
(every surviving pair's bytes delivered exactly once).  Dead-node plans are
additionally exercised for the strategies that can degrade around them.
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

#: A plan that also takes ranks down entirely.
DEAD_NODE_PLAN = FaultPlan.random(
    SHAPE,
    seed=2,
    dead_link_fraction=0.02,
    dead_node_fraction=0.05,
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


@pytest.mark.parametrize(
    "strategy",
    [ARDirect(), DRDirect(), MPIDirect(), TwoPhaseSchedule(), CreditedTPS()],
    ids=lambda s: s.name,
)
def test_dead_nodes_degrade_gracefully(strategy):
    run = simulate_alltoall(
        strategy, SHAPE, 64, seed=0, faults=DEAD_NODE_PLAN
    )
    alive = SHAPE.nnodes - len(DEAD_NODE_PLAN.dead_nodes)
    assert len(DEAD_NODE_PLAN.dead_nodes) > 0
    assert run.result.final_deliveries > 0
    _, report = run_and_verify(
        strategy, SHAPE, 64, seed=0, faults=DEAD_NODE_PLAN
    )
    assert report.ok, report.summary()
    # The exchange is restricted to the survivors.
    assert alive < SHAPE.nnodes


def test_bijective_strategies_refuse_dead_nodes():
    with pytest.raises(ValueError, match="dead nodes"):
        VirtualMesh2D().build_program(SHAPE, 64, faults=DEAD_NODE_PLAN)


def test_deterministic_under_faults():
    a = simulate_alltoall(ARDirect(), SHAPE, 64, seed=0, faults=PLAN)
    b = simulate_alltoall(ARDirect(), SHAPE, 64, seed=0, faults=PLAN)
    assert a.time_cycles == b.time_cycles
    assert a.result.lost_packets == b.result.lost_packets
    assert a.result.events_processed == b.result.events_processed
