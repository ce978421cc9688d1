"""Golden digests of the pristine (fault-free, unobserved) run kernel.

Every strategy whose traffic the pristine routing closures move — AR, DR,
TPS, VMesh and ThrottledAR — runs on shapes that cover each axis kind the
displacement tables distinguish: odd and even torus axes (the even ones
exercise the halfbit tie-break), mesh axes, extent-1 and extent-2 axes,
in one, two and three dimensions.  Each run is pinned by two digests in
``data/pristine_golden.json``: one of the :data:`STAT_FIELDS`, one of the
per-link busy cycles and packet counts, so a failure says whether the
schedule moved or only the link accounting did.

Regenerate only after a deliberate, schema-bumping change to simulated
results::

    PYTHONPATH=src python tests/net/test_pristine_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import simulate_alltoall
from repro.model.torus import TorusShape
from repro.strategies import (
    ARDirect,
    DRDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

GOLDEN = Path(__file__).parent / "data" / "pristine_golden.json"

STRATEGIES = {
    "AR": ARDirect,
    "DR": DRDirect,
    "TPS": TwoPhaseSchedule,
    "VMesh": VirtualMesh2D,
    "ThrottledAR": ThrottledAR,
}
#: Ring, odd 3-D torus with an extent-2 axis, odd 2-D torus, mesh X with
#: even torus axes, extent-1 X, even torus with a mesh Y.
SHAPES = ("8", "3x5x2", "5x3", "4Mx4x2", "1x4x3", "6x4M")
#: One single-packet message and one three-packet message per pair.
SIZES = (8, 700)
SEED = 1

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


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cases() -> list[str]:
    """``strategy@shape/m`` ids of every supported combination."""
    out = []
    for name, cls in STRATEGIES.items():
        for label in SHAPES:
            if not cls().supports(TorusShape.parse(label)):
                continue
            out.extend(f"{name}@{label}/{m}" for m in SIZES)
    return out


def digests(case: str) -> dict:
    """The two digests of one pristine run."""
    name, rest = case.split("@")
    label, m = rest.split("/")
    res = simulate_alltoall(
        STRATEGIES[name](), TorusShape.parse(label), int(m), seed=SEED
    ).result
    return {
        "stats": _digest([getattr(res, f) for f in STAT_FIELDS]),
        "links": _digest(
            [res.link_busy_cycles.tolist(), res.link_packets.tolist()]
        ),
    }


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_pristine_run_matches_golden(case):
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
