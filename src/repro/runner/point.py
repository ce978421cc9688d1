"""One independent simulation point of a sweep.

Every table and figure in the paper is a collection of *independent*
(shape, strategy, message size, seed) simulations.  :class:`SimPoint`
captures one of them as plain data so the runner can hash it (result
cache), pickle it (worker processes) and execute it anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.strategies.base import AllToAllStrategy


@dataclass(frozen=True)
class SimPoint:
    """One ``simulate_alltoall`` invocation, as data.

    The strategy is carried as the configured *instance* (strategies are
    plain picklable objects whose ``vars()`` are their options); everything
    else mirrors the :func:`repro.api.simulate_alltoall` signature.
    """

    strategy: "AllToAllStrategy"
    shape: TorusShape
    msg_bytes: int
    params: Optional[MachineParams] = None
    seed: int = 0
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # 64.0 and 64 must share one cache key, and 1.5 must fail here,
        # not when the point runs.
        object.__setattr__(
            self, "msg_bytes", check_positive_int(self.msg_bytes, "msg_bytes")
        )
        # The default machine's four injection FIFOs split evenly for
        # every strategy; an explicit machine is checked here, not after
        # its program and network are built.
        if self.params is not None:
            self.strategy.check_params(self.params)

    @property
    def cost_hint(self) -> float:
        """Relative wall-clock cost estimate: total bytes exchanged.

        An all-to-all moves ``nnodes * (nnodes - 1) * msg_bytes`` payload
        bytes, which is what the event count (and hence simulation wall
        time) tracks to first order.  The supervision layer derives
        default per-point timeouts from this; it feeds nothing that
        affects results or cache keys.
        """
        n = self.shape.nnodes
        return float(n * n * self.msg_bytes)
