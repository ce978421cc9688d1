"""Strategy interface: every all-to-all algorithm builds a node program.

A strategy is a *planner*: given a partition shape and message size it
produces (a) a :class:`repro.net.NodeProgram` executable by both the timed
simulator and the functional data engine, and (b) an analytic prediction of
its cost (the paper's Eq. 3/4 family).  Strategies are stateless and
reusable across shapes.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.program import BaseProgram
from repro.util.rng import shuffled_others
from repro.util.validation import check_positive_int


class AllToAllStrategy(abc.ABC):
    """Base class of the paper's all-to-all algorithms."""

    #: Short identifier used in tables and benchmark output.
    name: str = "abstract"
    #: Injection-FIFO reservation groups the program uses (TPS: 2).
    fifo_groups: int = 1

    @abc.abstractmethod
    def build_program(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
        seed: int = 0,
        carry_data: bool = False,
    ) -> BaseProgram:
        """Build the node program for one all-to-all of *msg_bytes* per
        (ordered) rank pair on *shape*.

        ``carry_data=True`` attaches :class:`DataChunk` descriptors for the
        functional engine (costs memory; timed runs leave it off).  A
        program never sees a fault plan: dead links and packet loss are
        the network's concern, and every rank takes part.
        """

    @abc.abstractmethod
    def predict_cycles(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
    ) -> float:
        """Analytic completion-time prediction, cycles."""

    def check_params(self, params: MachineParams) -> None:
        """Refuse a machine whose injection FIFOs this strategy's
        reservation groups cannot split evenly."""
        if params.num_injection_fifos % self.fifo_groups:
            raise ValueError(
                f"num_injection_fifos={params.num_injection_fifos} is not "
                f"a multiple of {self.name}'s fifo_groups="
                f"{self.fifo_groups}"
            )

    def supports(self, shape: TorusShape) -> bool:
        """Whether the strategy applies to *shape* (e.g. TPS needs >= 2
        dimensions)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name!r}>"


class DirectProgramBase(BaseProgram):
    """Shared machinery of direct (and phase-1-like) injection plans:
    a randomized destination permutation per node, packetized messages,
    round-robin over destinations with a configurable number of packets
    per destination per round (the production-MPI tuning parameter of
    Section 3)."""

    def __init__(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: MachineParams,
        seed: int,
        carry_data: bool,
        packets_per_round: int = 2,
    ) -> None:
        msg_bytes = check_positive_int(msg_bytes, "msg_bytes")
        self.shape = shape
        self.msg_bytes = msg_bytes
        self.params = params
        self.seed = seed
        self.carry_data = carry_data
        self.packets_per_round = check_positive_int(
            packets_per_round, "packets_per_round"
        )
        #: Wire sizes of one message's packets (header in the first).
        self.packet_sizes = params.packetize_message(msg_bytes)
        #: Payload bytes carried by each packet of a message.
        self.payload_split = self._payload_split()

    def _payload_split(self) -> list[int]:
        """How the m payload bytes distribute over the message's packets.

        The first packet carries the 48 B header and whatever payload fits
        beside it; subsequent packets carry up to 240 B payload each (the
        wire size also covers link-protocol bytes, hence payload <= wire).
        """
        p = self.params
        remaining = self.msg_bytes
        split: list[int] = []
        first_room = max(0, p.packet_max_bytes - p.header_bytes)
        take = min(remaining, first_room)
        split.append(take)
        remaining -= take
        while remaining > 0:
            take = min(remaining, p.packet_max_bytes)
            split.append(take)
            remaining -= take
        # packetize_message() computed sizes from the same arithmetic, so
        # the two decompositions must agree in length.
        assert len(split) == len(self.packet_sizes), (split, self.packet_sizes)
        return split

    def destination_order(self, node: int) -> list[int]:
        """Random permutation of the other P-1 ranks, derived from the
        experiment seed and the node id (independent across nodes)."""
        return shuffled_others(
            self.seed, "destorder", node, self.shape.nnodes, node
        )
