"""High-level entry points: simulate or predict one all-to-all.

These wrap strategy + simulator + metric computation into a single call and
are what the examples, experiments and most tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.model.alltoall import percent_of_peak
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.net.faultsim import build_network
from repro.net.trace import SimulationResult
from repro.util.units import cycles_to_ms, cycles_to_us
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.config import CheckConfig
    from repro.obs.config import ObsConfig
    from repro.strategies.base import AllToAllStrategy


@dataclass(frozen=True)
class AllToAllRun:
    """Outcome of one simulated all-to-all."""

    strategy: str
    shape: TorusShape
    msg_bytes: int
    params: MachineParams
    result: SimulationResult
    predicted_cycles: float

    @property
    def time_cycles(self) -> float:
        """Measured completion time (last final delivery), cycles."""
        return self.result.time_cycles

    @property
    def time_us(self) -> float:
        """Measured completion time, microseconds."""
        return cycles_to_us(self.time_cycles)

    @property
    def time_ms(self) -> float:
        """Measured completion time, milliseconds."""
        return cycles_to_ms(self.time_cycles)

    @property
    def percent_of_peak(self) -> float:
        """Percent of the Eq. 2 peak achieved (the tables' metric)."""
        return percent_of_peak(
            self.shape, self.msg_bytes, self.time_cycles, self.params
        )

    @property
    def per_node_bytes_per_cycle(self) -> float:
        """Per-node payload bandwidth sourced during the run."""
        return self.shape.nnodes * self.msg_bytes / self.time_cycles

    @property
    def per_node_mb_per_s(self) -> float:
        """Per-node payload bandwidth in MB/s (Figure 3's unit)."""
        from repro.util.units import CLOCK_HZ

        return self.per_node_bytes_per_cycle * CLOCK_HZ / 1e6


def simulate_alltoall(
    strategy: "AllToAllStrategy",
    shape: TorusShape,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
    obs: Optional["ObsConfig"] = None,
    check: Optional["CheckConfig"] = None,
) -> AllToAllRun:
    """Simulate one all-to-all of *msg_bytes* per rank pair under
    *strategy* on *shape* and return the measured run.

    ``faults`` injects hardware faults: the network routes around dead
    links and retransmits over lossy wires; the strategy never sees the
    plan.  ``None`` (or an empty plan) takes the pristine fast path.

    ``obs`` opts into observability: an enabled
    :class:`~repro.obs.config.ObsConfig` runs the instrumented network
    and attaches the trace/metrics payload as ``result.extras["obs"]``
    without changing any measured quantity.

    ``check`` opts into runtime verification: a
    :class:`~repro.check.config.CheckConfig` runs the oracle-checked
    network, which makes identical decisions but raises
    :class:`~repro.check.oracle.InvariantError` the moment an invariant
    (conservation, exactly-once, credits, progress, phases) breaks."""
    msg_bytes = check_positive_int(msg_bytes, "msg_bytes")
    params = params or MachineParams.bluegene_l()
    strategy.check_params(params)
    program = strategy.build_program(shape, msg_bytes, params, seed)
    net = build_network(shape, params, faults, obs, check)
    if strategy.fifo_groups > 1:
        net.set_fifo_groups(strategy.fifo_groups)
    result = net.run(program)
    return AllToAllRun(
        strategy=strategy.name,
        shape=shape,
        msg_bytes=msg_bytes,
        params=params,
        result=result,
        predicted_cycles=strategy.predict_cycles(shape, msg_bytes, params),
    )


def predict_alltoall(
    strategy: "AllToAllStrategy",
    shape: TorusShape,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
) -> float:
    """Analytic prediction (cycles) without running the simulator."""
    params = params or MachineParams.bluegene_l()
    return strategy.predict_cycles(shape, msg_bytes, params)
