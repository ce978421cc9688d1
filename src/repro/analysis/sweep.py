"""Parameter sweeps: message-size series for the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.api import AllToAllRun
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.runner import SimPoint, run_points
from repro.strategies.base import AllToAllStrategy


@dataclass(frozen=True)
class SweepPoint:
    """One (message size, strategy) measurement."""

    m_bytes: int
    run: AllToAllRun

    @property
    def time_us(self) -> float:
        return self.run.time_us

    @property
    def percent_of_peak(self) -> float:
        return self.run.percent_of_peak

    @property
    def per_node_mb_per_s(self) -> float:
        return self.run.per_node_mb_per_s


def message_size_sweep(
    strategy: AllToAllStrategy,
    shape: TorusShape,
    sizes: Sequence[int],
    params: Optional[MachineParams] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> list[SweepPoint]:
    """Simulate the all-to-all at every message size in *sizes* (through
    the parallel runner and its result cache)."""
    runs = run_points(
        [SimPoint(strategy, shape, m, params, seed) for m in sizes],
        jobs=jobs,
    )
    return [SweepPoint(m, run) for m, run in zip(sizes, runs)]
