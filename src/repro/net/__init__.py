"""Packet-level discrete-event simulator of the BG/L torus network.

Public surface: :class:`TorusNetwork` (the engine), :class:`PacketSpec` /
:class:`RoutingMode` (traffic), the :class:`NodeProgram` protocol with
:class:`ListProgram` helper, the :class:`SimulationResult` summary, and
the fault-injection layer (:class:`FaultPlan`, :class:`FaultyTorusNetwork`,
:func:`build_network`).
"""

from repro.net.errors import (
    DeadlockError,
    PartitionedNetworkError,
    SimulationError,
    SimulationLimitError,
)
from repro.net.faults import FaultPlan, FaultRoutingTable
from repro.net.faultsim import FaultyTorusNetwork, build_network
from repro.net.packet import NO_VC, PacketSpec, RoutingMode
from repro.net.program import BaseProgram, ListProgram, NodeProgram
from repro.net.simulator import TorusNetwork
from repro.net.topology import Topology, direction_of
from repro.net.trace import SimStats, SimulationResult

__all__ = [
    "DeadlockError",
    "PartitionedNetworkError",
    "SimulationError",
    "SimulationLimitError",
    "FaultPlan",
    "FaultRoutingTable",
    "FaultyTorusNetwork",
    "build_network",
    "NO_VC",
    "PacketSpec",
    "RoutingMode",
    "BaseProgram",
    "ListProgram",
    "NodeProgram",
    "TorusNetwork",
    "Topology",
    "direction_of",
    "SimStats",
    "SimulationResult",
]
