"""Direct all-to-all strategies (Section 3).

Every rank sends each message straight to its destination; the variants
differ in routing mode and injection policy:

* :class:`ARDirect` — the paper's low-overhead *AR* scheme: randomized
  destination order, adaptive (dynamic-VC) routing.  >=97 % of peak on
  symmetric tori, 70-86 % on asymmetric ones (Tables 1-2).
* :class:`MPIDirect` — the production MPI all-to-all: same randomized
  packet scheme but with the heavier message-layer startup (~1170 cycles
  vs 450), costing ~2 % of peak on a midplane.
* :class:`DRDirect` — *DR*: random order but deterministic dimension-order
  routing on the bubble VC.  Wins when X is the longest dimension, loses
  to AR otherwise (Figure 4).
* :class:`ThrottledAR` — AR with injection paced to the bisection rate
  (Eq. 2); the paper found it helps only 2-3 %.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Optional

from repro.model.alltoall import simple_direct_time_cycles
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.packet import PacketSpec, RoutingMode
from repro.strategies.base import AllToAllStrategy, DirectProgramBase
from repro.strategies.data import PHASE_DIRECT, ChunkTag, DataChunk
from repro.util.validation import require


class DirectProgram(DirectProgramBase):
    """Node program for all direct variants.

    Without ``carry_data`` a spec depends only on its destination and its
    index in the message, so the program builds one spec per (dst, index)
    on first use and every node's plan yields those shared objects: a
    run allocates no spec per packet.  With ``carry_data`` each spec's
    :class:`ChunkTag` names its source, so specs are built one at a time
    as the plan is consumed and million-packet schedules never
    materialize in memory.
    """

    def __init__(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: MachineParams,
        seed: int,
        carry_data: bool,
        mode: RoutingMode,
        packets_per_round: int = 2,
        pace: float = 0.0,
        alpha_override: float = -1.0,
    ) -> None:
        super().__init__(
            shape, msg_bytes, params, seed, carry_data, packets_per_round
        )
        self.mode = mode
        self._pace = pace
        self._alpha_override = alpha_override
        self._payload_offsets = [0, *accumulate(self.payload_split[:-1])]
        #: ``_shared[dst]``: the message's specs, built on first use
        #: (``carry_data`` off only).
        self._shared: Optional[list[tuple[PacketSpec, ...]]] = None

    def _make_spec(
        self, dst: int, pkt_idx: int, src: int = -1
    ) -> PacketSpec:
        """Packet *pkt_idx* of the message to *dst*; with ``carry_data``,
        its :class:`ChunkTag` names the message's source *src*."""
        payload = self.payload_split[pkt_idx]
        if self.carry_data and payload > 0:
            tag: object = ChunkTag(
                PHASE_DIRECT,
                (DataChunk(src, dst, self._payload_offsets[pkt_idx], payload),),
            )
        else:
            tag = PHASE_DIRECT
        return PacketSpec(
            dst=dst,
            wire_bytes=self.packet_sizes[pkt_idx],
            mode=self.mode,
            new_message=(pkt_idx == 0),
            tag=tag,
            payload_bytes=payload,
            alpha_cycles=self._alpha_override,
        )

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        # Round-robin over this node's random destination order, k
        # packets per destination per sweep.  Every message has the same
        # packet count, so all destinations advance in lockstep: the sweep
        # starting at packet lo sends packets [lo, lo + k) of each message.
        order = self.destination_order(node)
        npk = len(self.packet_sizes)
        k = self.packets_per_round
        if self.carry_data:
            for lo in range(0, npk, k):
                idx = range(lo, min(lo + k, npk))
                for dst in order:
                    for i in idx:
                        yield self._make_spec(dst, i, node)
            return
        shared = self._shared
        if shared is None:
            shared = self._shared = [
                tuple(self._make_spec(dst, i) for i in range(npk))
                for dst in range(self.shape.nnodes)
            ]
        for lo in range(0, npk, k):
            hi = lo + k
            for dst in order:
                yield from shared[dst][lo:hi]

    def expected_final_deliveries(self) -> int:
        p = self.shape.nnodes
        return p * (p - 1) * len(self.packet_sizes)

    def pace_cycles(self, node: int) -> float:
        return self._pace


class _DirectStrategy(AllToAllStrategy):
    """Common plumbing of the four direct variants."""

    mode = RoutingMode.ADAPTIVE
    packets_per_round = 2

    def build_program(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
        seed: int = 0,
        carry_data: bool = False,
    ) -> DirectProgram:
        params = params or MachineParams.bluegene_l()
        return DirectProgram(
            shape,
            msg_bytes,
            params,
            seed,
            carry_data,
            self.mode,
            packets_per_round=self.packets_per_round,
            pace=self._pace(shape, msg_bytes, params),
        )

    def _pace(
        self, shape: TorusShape, msg_bytes: int, params: MachineParams
    ) -> float:
        return 0.0

    def predict_cycles(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
    ) -> float:
        params = params or MachineParams.bluegene_l()
        return simple_direct_time_cycles(shape, msg_bytes, params)


class ARDirect(_DirectStrategy):
    """Adaptive-routing randomized direct all-to-all (the paper's *AR*)."""

    name = "AR"
    mode = RoutingMode.ADAPTIVE


class DRDirect(_DirectStrategy):
    """Deterministic dimension-order direct all-to-all (the paper's *DR*).

    Packets ride the bubble VC only, in X-then-Y-then-Z order; the paper
    expects this to beat AR exactly when the longest (bottleneck) dimension
    is X, because every deterministic packet enters the network on an X
    link (Section 3.2).
    """

    name = "DR"
    mode = RoutingMode.DETERMINISTIC


class MPIDirect(_DirectStrategy):
    """Production-MPI-flavoured direct all-to-all: identical traffic to AR
    but paying the message-layer startup per destination."""

    name = "MPI"
    mode = RoutingMode.ADAPTIVE

    def build_program(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
        seed: int = 0,
        carry_data: bool = False,
    ) -> DirectProgram:
        params = params or MachineParams.bluegene_l()
        return DirectProgram(
            shape,
            msg_bytes,
            params,
            seed,
            carry_data,
            self.mode,
            packets_per_round=self.packets_per_round,
            alpha_override=params.alpha_message_cycles,
        )

    def predict_cycles(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
    ) -> float:
        params = params or MachineParams.bluegene_l()
        heavy = params.with_updates(
            alpha_packet_cycles=params.alpha_message_cycles
        )
        return simple_direct_time_cycles(shape, msg_bytes, heavy)


class ThrottledAR(_DirectStrategy):
    """AR with injection paced at the bisection-driven rate of Eq. 2.

    Each node may source at most ``1/(C*beta)`` bytes/cycle without
    overloading the bottleneck bisection, so consecutive packet injections
    are spaced ``wire_bytes * C * beta`` cycles apart.
    """

    name = "AR-throttle"
    mode = RoutingMode.ADAPTIVE

    def __init__(self, slack: float = 1.0) -> None:
        require(slack > 0, "slack must be positive")
        #: Multiplier on the pace (>1 injects slower than bisection rate).
        self.slack = slack

    def _pace(
        self, shape: TorusShape, msg_bytes: int, params: MachineParams
    ) -> float:
        c = shape.contention_factor
        sizes = params.packetize_message(msg_bytes)
        mean_wire = sum(sizes) / len(sizes)
        return self.slack * c * mean_wire * params.beta_cycles_per_byte
