"""The paper's all-to-all strategies.

Direct (Section 3): :class:`ARDirect`, :class:`DRDirect`,
:class:`MPIDirect`, :class:`ThrottledAR`.
Indirect (Section 4): :class:`TwoPhaseSchedule`, :class:`VirtualMesh2D`.
Plus the auto-selector (:func:`select_strategy`).
"""

from repro.strategies.base import AllToAllStrategy
from repro.strategies.data import ChunkTag, DataChunk, chunks_of
from repro.strategies.direct import (
    ARDirect,
    DirectProgram,
    DRDirect,
    MPIDirect,
    ThrottledAR,
)
from repro.strategies.flowcontrol import CreditedTPS, CreditedTPSProgram
from repro.strategies.tps import TPSProgram, TwoPhaseSchedule, choose_linear_axis
from repro.strategies.vmesh import VirtualMesh2D, VMeshMapping, VMeshProgram
from repro.strategies.selector import select_strategy

__all__ = [
    "AllToAllStrategy",
    "ChunkTag",
    "DataChunk",
    "chunks_of",
    "ARDirect",
    "DirectProgram",
    "DRDirect",
    "MPIDirect",
    "ThrottledAR",
    "CreditedTPS",
    "CreditedTPSProgram",
    "TPSProgram",
    "TwoPhaseSchedule",
    "choose_linear_axis",
    "VirtualMesh2D",
    "VMeshMapping",
    "VMeshProgram",
    "select_strategy",
]
