"""Golden digests of the observed, checked fault path.

ARDirect and TwoPhaseSchedule at 4x4x2 run on a fault plan with a dead
link, loss (retransmissions), an outage window and a degraded wire, with
every observation layer on (sampled trace, metrics, link stats, profiler)
and every invariant oracle on.  Each section of the output is pinned by
its own digest in ``data/fault_golden_4x4x2.json``, so a failure names
the section that moved.  The profiler's host-time fields are dropped:
they measure the machine, not the simulation.

Regenerate only after a deliberate, schema-bumping change to simulated
results::

    PYTHONPATH=src python tests/net/test_fault_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import simulate_alltoall
from repro.check.config import CheckConfig
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan, LinkOutage
from repro.obs.config import ObsConfig
from repro.strategies import ARDirect, TwoPhaseSchedule

GOLDEN = Path(__file__).parent / "data" / "fault_golden_4x4x2.json"

SHAPE = TorusShape.parse("4x4x2")
MSG = 128
PLAN = dataclasses.replace(
    FaultPlan.random(
        SHAPE,
        seed=3,
        dead_link_fraction=0.05,
        loss_prob=0.02,
        retx_timeout_cycles=2000.0,
        outages=(LinkOutage(node=0, direction=0, start=100.0, end=600.0),),
    ),
    degraded_links={(5, 2): 2.5},
)
OBS = ObsConfig(
    trace=True, trace_sample=4, metrics=True, link_stats=True, profile=True
)
STRATEGIES = {"AR": ARDirect, "TPS": TwoPhaseSchedule}

#: SimulationResult fields a host-speed change must leave bit-identical.
STAT_FIELDS = (
    "time_cycles",
    "events_processed",
    "injected_packets",
    "delivered_packets",
    "final_deliveries",
    "forwarded_packets",
    "injected_wire_bytes",
    "total_hops",
    "mean_final_latency",
    "max_final_latency",
    "peak_forward_backlog",
    "lost_packets",
    "retransmitted_packets",
    "duplicate_packets",
    "rerouted_hops",
    "outage_cycles",
)

#: Profile payload keys that carry host time, not simulated time.
HOST_TIME = ("wall_s", "cpu_s", "wall_s_est", "cpu_s_est")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _strip_host_time(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_host_time(v) for k, v in obj.items() if k not in HOST_TIME
        }
    return obj


def sections(name: str) -> dict:
    """Per-section digests of one observed, checked fault run."""
    run = simulate_alltoall(
        STRATEGIES[name](),
        SHAPE,
        MSG,
        seed=1,
        faults=PLAN,
        obs=OBS,
        check=CheckConfig(),
    )
    res = run.result
    obs = res.extras["obs"]
    return {
        "stats": _digest([getattr(res, f) for f in STAT_FIELDS]),
        "links": _digest(
            [
                res.link_busy_cycles.tolist(),
                res.link_packets.tolist(),
                res.num_links,
            ]
        ),
        "metrics": _digest(obs["metrics"]),
        "link_stats": _digest(obs["link_stats"]),
        "profile": _digest(_strip_host_time(obs["profile"])),
        "trace": _digest(obs["trace"]),
    }


def test_plan_exercises_every_fault_kind():
    assert PLAN.dead_links and PLAN.outages and PLAN.has_loss
    assert (5, 2) not in PLAN.dead_links


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_observed_checked_fault_run_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = sections(name)
    for section in want:
        assert got[section] == want[section], f"{name}: {section} moved"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({n: sections(n) for n in sorted(STRATEGIES)}, indent=2)
        + "\n"
    )
