"""The Two Phase Schedule (TPS) indirect strategy (Section 4.1).

Phase 1 sends every message along a chosen *linear* dimension to the
intermediate node whose linear coordinate matches the final destination
(and whose other coordinates match the source).  Phase 2 forwards from the
intermediate across the remaining *planar* dimensions.  The two phases
overlap: phase-1 packets and phase-2 packets use disjoint injection-FIFO
groups, so neither blocks behind the other, and both phases route
adaptively — which is exactly what distinguishes TPS from deterministic
dimension-order routing (three VCs stay usable, and planar packets never
sit behind linear packets in a VC FIFO).

Linear-dimension choice (paper): pick the dimension whose removal leaves
the remaining dimensions symmetric, if one exists; otherwise pick the
longest dimension (the bottleneck).  The table-3 performance argument: if
the longest dimension has size n and the second-longest m, near-peak only
needs the planar phase to run at (m/n) * 100% of peak.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Optional

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.packet import PacketSpec, RoutingMode
from repro.strategies.base import AllToAllStrategy, DirectProgramBase
from repro.strategies.data import (
    PHASE_TPS1,
    PHASE_TPS2,
    ChunkTag,
    DataChunk,
    chunks_of,
)
from repro.util.validation import require

#: Injection-FIFO group of phase-1 (linear) packets.
PHASE1_GROUP = 0
#: Injection-FIFO group of phase-2 (planar) packets.
PHASE2_GROUP = 1


def choose_linear_axis(shape: TorusShape) -> int:
    """The paper's linear-dimension rule.

    1. Prefer an axis whose removal leaves the remaining axes equal-extent
       (e.g. Z on 32x32x16, X on 16x8x8); among several such candidates
       take the longest (then the highest index, so 8x8x8 picks Z as in
       Table 3).
    2. Otherwise take the longest axis (Y on 8x32x16, X on 40x32x16).
    """
    require(shape.ndim >= 2, "TPS needs at least 2 dimensions")
    dims = shape.dims
    symmetric_candidates = []
    for axis in range(shape.ndim):
        rest = [d for i, d in enumerate(dims) if i != axis]
        if len(set(rest)) == 1:
            symmetric_candidates.append(axis)
    if symmetric_candidates:
        return max(symmetric_candidates, key=lambda a: (dims[a], a))
    longest = max(dims)
    return dims.index(longest)


class TPSProgram(DirectProgramBase):
    """Node program implementing TPS traffic.

    Without ``carry_data`` a spec depends only on its network
    destination, its final destination, its phase and its index in the
    message, and a forwarded spec only on its final destination and
    sizes.  The program builds each distinct spec once, on first use,
    and every node shares it, as
    :class:`~repro.strategies.direct.DirectProgram` does.  With
    ``carry_data`` each spec's :class:`ChunkTag` names its source, so
    specs are built one at a time as the plan is consumed.
    """

    def __init__(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: MachineParams,
        seed: int,
        carry_data: bool,
        linear_axis: Optional[int] = None,
        packets_per_round: int = 2,
        pipelined: bool = True,
    ) -> None:
        super().__init__(
            shape, msg_bytes, params, seed, carry_data, packets_per_round
        )
        self.linear_axis = (
            choose_linear_axis(shape) if linear_axis is None else linear_axis
        )
        require(
            0 <= self.linear_axis < shape.ndim,
            f"linear_axis out of range for {shape.label}",
        )
        #: With pipelining off (ablation), phase-2 packets share group 0,
        #: so they queue behind phase-1 packets in the injection FIFOs.
        self.pipelined = pipelined
        self._phase2_group = PHASE2_GROUP if pipelined else PHASE1_GROUP
        self._stride = 1
        for a in range(self.linear_axis):
            self._stride *= shape.dims[a]
        self._payload_offsets = [0, *accumulate(self.payload_split[:-1])]
        #: Shared message specs, keyed ``(net_dst * P + dst) * 2 + phase2``.
        self._messages: dict[int, tuple[PacketSpec, ...]] = {}
        #: Shared forwarded specs, as 1-tuples keyed (dst, wire, payload).
        self._forwards: dict[tuple[int, int, int], tuple[PacketSpec]] = {}

    # -------------------------------------------------------------- #

    def intermediate_for(self, src: int, dst: int) -> int:
        """Intermediate rank: source's coords with the linear coordinate
        replaced by the destination's."""
        axis, stride = self.linear_axis, self._stride
        n = self.shape.dims[axis]
        src_c = (src // stride) % n
        dst_c = (dst // stride) % n
        return src + (dst_c - src_c) * stride

    def _make_spec(self, src: int, dst: int, mid: int, i: int) -> PacketSpec:
        """Packet *i* of the message *src* sends to *dst* through *mid*.

        A source on the destination's line (``mid == src``) sends phase 2
        directly."""
        direct = mid == src
        kind = PHASE_TPS2 if direct else PHASE_TPS1
        payload = self.payload_split[i]
        if self.carry_data and payload > 0:
            tag: object = ChunkTag(
                kind, (DataChunk(src, dst, self._payload_offsets[i], payload),)
            )
        else:
            tag = kind
        return PacketSpec(
            dst=dst if direct else mid,
            wire_bytes=self.packet_sizes[i],
            mode=RoutingMode.ADAPTIVE,
            fifo_group=self._phase2_group if direct else PHASE1_GROUP,
            new_message=(i == 0),
            tag=tag,
            final_dst=dst,
            payload_bytes=payload,
        )

    def _message(self, src: int, dst: int, mid: int) -> tuple[PacketSpec, ...]:
        """The shared specs of the message *src* sends to *dst* through
        *mid* (``carry_data`` off)."""
        direct = mid == src
        key = ((dst if direct else mid) * self.shape.nnodes + dst) * 2 + direct
        specs = self._messages.get(key)
        if specs is None:
            specs = self._messages[key] = tuple(
                self._make_spec(src, dst, mid, i)
                for i in range(len(self.packet_sizes))
            )
        return specs

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        # Round-robin over this node's random destination order, k
        # packets per destination per sweep; every message has the same
        # packet count, so the sweep starting at packet lo sends packets
        # [lo, lo + k) of each message.
        order = self.destination_order(node)
        mids = [self.intermediate_for(node, dst) for dst in order]
        npk = len(self.packet_sizes)
        k = self.packets_per_round
        if self.carry_data:
            for lo in range(0, npk, k):
                idx = range(lo, min(lo + k, npk))
                for dst, mid in zip(order, mids):
                    for i in idx:
                        yield self._make_spec(node, dst, mid, i)
            return
        messages = [self._message(node, d, m) for d, m in zip(order, mids)]
        for lo in range(0, npk, k):
            hi = lo + k
            for specs in messages:
                yield from specs[lo:hi]

    def _forward_spec(self, spec: PacketSpec, tag: object) -> PacketSpec:
        return PacketSpec(
            dst=spec.final_dst,
            wire_bytes=spec.wire_bytes,
            mode=RoutingMode.ADAPTIVE,
            fifo_group=self._phase2_group,
            new_message=False,
            tag=tag,
            payload_bytes=spec.payload_bytes,
        )

    def on_delivery(
        self, node: int, src: int, spec: PacketSpec
    ) -> Iterable[PacketSpec]:
        if spec.final_dst == node:
            return ()
        # Phase-1 packet at its intermediate: forward across the plane.
        chunks = chunks_of(spec.tag)
        if chunks:
            return (self._forward_spec(spec, ChunkTag(PHASE_TPS2, chunks)),)
        key = (spec.final_dst, spec.wire_bytes, spec.payload_bytes)
        fwd = self._forwards.get(key)
        if fwd is None:
            fwd = self._forwards[key] = (self._forward_spec(spec, PHASE_TPS2),)
        return fwd

    def expected_final_deliveries(self) -> int:
        p = self.shape.nnodes
        return p * (p - 1) * len(self.packet_sizes)


class TwoPhaseSchedule(AllToAllStrategy):
    """The paper's Two Phase Schedule indirect all-to-all."""

    name = "TPS"
    fifo_groups = 2

    def __init__(
        self,
        linear_axis: Optional[int] = None,
        pipelined: bool = True,
        packets_per_round: int = 2,
    ) -> None:
        #: Force a specific linear dimension (ablation); None = paper rule.
        self.linear_axis = linear_axis
        #: Reserved-FIFO pipelining of the two phases (ablation switch).
        self.pipelined = pipelined
        self.packets_per_round = packets_per_round

    def supports(self, shape: TorusShape) -> bool:
        return shape.ndim >= 2

    def build_program(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
        seed: int = 0,
        carry_data: bool = False,
    ) -> TPSProgram:
        params = params or MachineParams.bluegene_l()
        return TPSProgram(
            shape,
            msg_bytes,
            params,
            seed,
            carry_data,
            linear_axis=self.linear_axis,
            packets_per_round=self.packets_per_round,
            pipelined=self.pipelined,
        )

    def predict_cycles(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
    ) -> float:
        """Pipelined two-phase model: completion ~= startup + the slower of
        (linear-phase network, planar-phase network, the node CPU, which
        handles every byte four times: inject, intermediate drain,
        re-inject, final drain)."""
        params = params or MachineParams.bluegene_l()
        axis = (
            choose_linear_axis(shape)
            if self.linear_axis is None
            else self.linear_axis
        )
        p = shape.nnodes
        beta = params.beta_cycles_per_byte
        # Linear phase: every byte crosses the linear dimension's links.
        c_lin = shape.contention_factor_dim(axis)
        t1 = p * c_lin * msg_bytes * beta
        # Planar phase: the remaining dimensions' bottleneck.
        planar = [
            shape.contention_factor_dim(a)
            for a in range(shape.ndim)
            if a != axis
        ]
        t2 = p * max(planar, default=0.0) * msg_bytes * beta
        # CPU: 4 packet handlings per packet (2 injections + 2 drains).
        sizes = params.packetize_message(msg_bytes)
        per_msg_cpu = 4.0 * sum(
            params.cpu_packet_handling_cycles(w) for w in sizes
        )
        t_cpu = p * (params.alpha_packet_cycles + per_msg_cpu)
        return p * params.alpha_packet_cycles + max(t1, t2, t_cpu - p * params.alpha_packet_cycles)
