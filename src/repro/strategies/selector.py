"""Strategy auto-selection (the paper's Section 5 recipe).

"All-to-all performance in excess of 95% of peak can be achieved by using
our best algorithm: a direct algorithm on a symmetric torus or the Two
Phase algorithm on an asymmetric torus" — plus the virtual-mesh combining
scheme below the short-message crossover.
"""

from __future__ import annotations

from typing import Optional

from repro.model.alltoall import ar_vmesh_crossover_bytes
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.strategies.base import AllToAllStrategy
from repro.strategies.direct import ARDirect
from repro.strategies.tps import TwoPhaseSchedule
from repro.strategies.vmesh import VirtualMesh2D


def select_strategy(
    shape: TorusShape,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
) -> AllToAllStrategy:
    """Pick the paper's best algorithm for (shape, message size).

    * below the ``h - 2*proto`` crossover (~32 B, in practice up to 64 B):
      :class:`VirtualMesh2D` message combining;
    * symmetric torus: the :class:`ARDirect` direct scheme;
    * asymmetric torus (or any mesh dimension): :class:`TwoPhaseSchedule`,
      provided the partition has >= 2 dimensions.
    """
    params = params or MachineParams.bluegene_l()
    crossover = ar_vmesh_crossover_bytes(params)
    # The measured change-over lands between 32 and 64 B (Section 4.2)
    # because large packets use the network more efficiently; use the
    # model's crossover as the conservative switch point.
    if msg_bytes <= crossover and shape.nnodes >= 16:
        return VirtualMesh2D()
    if shape.is_symmetric or shape.ndim < 2:
        return ARDirect()
    return TwoPhaseSchedule()
