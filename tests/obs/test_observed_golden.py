"""Golden digests of the observed payloads: link stats and metrics.

The observation layer reads the kernel's state from its hooks — every
launch, arbitration stall, arrival, injection and delivery — so its
payloads pin what the kernel's hook sites see, not only what a run
returns.  AR, DR, TPS and VMesh run on an even and an odd 3-D torus with
one-packet and three-packet messages, plus AR under a fault plan with
dead links and loss, all with
``ObsConfig(metrics=True, link_stats=True)``.  Each run is pinned by two
digests in ``data/observed_golden.json``: one of the link-stats counters
(:data:`LINK_STATS_FIELDS`) and one of the metrics payload.  The profile
payload carries wall times, so it stays off.

Regenerate only after a deliberate, schema-bumping change to simulated
results::

    PYTHONPATH=src python tests/obs/test_observed_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import simulate_alltoall
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.obs.config import ObsConfig
from repro.strategies import (
    ARDirect,
    DRDirect,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

GOLDEN = Path(__file__).parent / "data" / "observed_golden.json"

OBS = ObsConfig(metrics=True, link_stats=True)
STRATEGIES = {
    "AR": ARDirect,
    "DR": DRDirect,
    "TPS": TwoPhaseSchedule,
    "VMesh": VirtualMesh2D,
}
SHAPES = ("4x4x2", "3x5x2")
SIZES = (8, 700)
SEED = 1

#: The fault case: dead links and loss (retransmissions) on 4x4x2 —
#: every event kind a fault plan adds to the kernel.
FAULT_SHAPE = TorusShape.parse("4x4x2")
FAULT_MSG = 128
FAULT_PLAN = FaultPlan.random(
    FAULT_SHAPE,
    seed=3,
    dead_link_fraction=0.05,
    loss_prob=0.02,
    retx_timeout_cycles=2000.0,
)
FAULT_CASE = f"AR@4x4x2/{FAULT_MSG}/faulty"

#: The per-link and per-node counters of ``extras["obs"]["link_stats"]``.
LINK_STATS_FIELDS = (
    "wire_bytes",
    "vc_packets",
    "stall_cycles",
    "drops",
    "retx_by_node",
    "phase_busy",
)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cases() -> list[str]:
    """``strategy@shape/m`` ids of every supported combination, then the
    fault case."""
    out = []
    for name, cls in STRATEGIES.items():
        for label in SHAPES:
            if not cls().supports(TorusShape.parse(label)):
                continue
            out.extend(f"{name}@{label}/{m}" for m in SIZES)
    out.append(FAULT_CASE)
    return out


def digests(case: str) -> dict:
    """The two digests of one observed run."""
    if case == FAULT_CASE:
        run = simulate_alltoall(
            ARDirect(), FAULT_SHAPE, FAULT_MSG, seed=SEED,
            faults=FAULT_PLAN, obs=OBS,
        )
    else:
        name, rest = case.split("@")
        label, m = rest.split("/")
        run = simulate_alltoall(
            STRATEGIES[name](), TorusShape.parse(label), int(m),
            seed=SEED, obs=OBS,
        )
    obs = run.result.extras["obs"]
    ls = obs["link_stats"]
    return {
        "link_stats": _digest({f: ls[f] for f in LINK_STATS_FIELDS}),
        "metrics": _digest(obs["metrics"]),
    }


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_observed_payloads_match_golden(case):
    want = json.loads(GOLDEN.read_text())[case]
    got = digests(case)
    for section in want:
        assert got[section] == want[section], f"{case}: {section} moved"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({c: digests(c) for c in cases()}, indent=2, sort_keys=True)
        + "\n"
    )
