"""The 2-D Virtual Mesh message-combining strategy (Section 4.2).

A virtual ``pvx x pvy`` mesh (``pvx`` columns per row, ``pvy`` rows) is
mapped onto the physical partition.  The exchange runs in two
*non-overlapping* phases of combined messages:

* **Phase 1 (rows)**: node (r, c) sends, to each row peer (r, c'), one
  message combining the chunks destined to every node of column c' —
  ``pvx - 1`` messages of ``pvy * (m + proto)`` bytes.
* **Phase 2 (columns)**: once a node has received *all* its row messages,
  it sorts the chunks by destination row and sends, to each column peer
  (r', c), one message of ``pvx * (m + proto)`` bytes.

Combining pays each byte twice on the network plus a gamma memcpy, but
replaces P per-destination startups with ``pvx + pvy`` — a large win below
the ``m = h - 2*proto ~ 32 B`` crossover (Figures 5-7).

The default virtual-mesh mapping linearizes physical coordinates in a
configurable axis order and splits the linear rank as (column = low bits,
row = high bits).  With the identity order this reproduces the paper's
512-node layout (rows = half XY planes); with order (X, Z, Y) on 8x32x16
it reproduces the 4096-node layout (rows = XZ planes, columns = Y lines).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.model.alltoall import balanced_vmesh_factors, vmesh_time_cycles
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.packet import PacketSpec, RoutingMode
from repro.net.program import BaseProgram
from repro.strategies.base import AllToAllStrategy
from repro.strategies.data import (
    PHASE_VMESH1,
    PHASE_VMESH2,
    ChunkTag,
    DataChunk,
    chunks_of,
)
from repro.util.rng import shuffled_others
from repro.util.validation import check_positive_int, require


class VMeshMapping:
    """Bijection between physical ranks and virtual-mesh (row, col)."""

    def __init__(
        self,
        shape: TorusShape,
        pvx: int,
        pvy: int,
        axis_order: Optional[Sequence[int]] = None,
    ) -> None:
        require(pvx * pvy == shape.nnodes, "virtual mesh must tile partition")
        self.shape = shape
        self.pvx = pvx
        self.pvy = pvy
        order = tuple(axis_order) if axis_order is not None else tuple(
            range(shape.ndim)
        )
        require(
            sorted(order) == list(range(shape.ndim)),
            "axis_order must be a permutation of the axes",
        )
        self.axis_order = order
        # vrank/node tables both ways.
        p = shape.nnodes
        self._vrank = [0] * p
        self._node = [0] * p
        for node in range(p):
            coord = shape.coord(node)
            v = 0
            strd = 1
            for a in order:
                v += coord[a] * strd
                strd *= shape.dims[a]
            self._vrank[node] = v
            self._node[v] = node

    def row_col(self, node: int) -> tuple[int, int]:
        """(row, column) of a physical rank."""
        v = self._vrank[node]
        return v // self.pvx, v % self.pvx

    def node_at(self, row: int, col: int) -> int:
        """Physical rank at virtual (row, column)."""
        return self._node[row * self.pvx + col]


class VMeshProgram(BaseProgram):
    """Node program implementing the two-phase virtual-mesh exchange."""

    def __init__(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: MachineParams,
        seed: int,
        carry_data: bool,
        mapping: VMeshMapping,
    ) -> None:
        msg_bytes = check_positive_int(msg_bytes, "msg_bytes")
        self.shape = shape
        self.msg_bytes = msg_bytes
        self.params = params
        self.seed = seed
        self.carry_data = carry_data
        self.map = mapping
        pvx, pvy = mapping.pvx, mapping.pvy
        chunk = msg_bytes + params.proto_bytes
        #: Wire packets of one phase-1 (row) message: pvy combined chunks.
        self.row_packets = params.packetize_message(pvy * chunk)
        #: Wire packets of one phase-2 (column) message: pvx chunks.
        self.col_packets = params.packetize_message(pvx * chunk)
        #: Phase-1 packets each node must receive before phase 2 starts.
        self.phase1_expected = (pvx - 1) * len(self.row_packets)
        self._alpha = params.alpha_message_cycles
        self._gamma = params.gamma_cycles_per_byte
        # Per-node phase-1 reception counters and buffered chunks.
        self._p1_count = [0] * shape.nnodes
        self._p1_chunks: list[list[DataChunk]] = [
            [] for _ in range(shape.nnodes)
        ]
        self._p2_sent = [False] * shape.nnodes
        #: Shared chunkless message specs, keyed (dst, kind).
        self._messages: dict[tuple[int, str], tuple[PacketSpec, ...]] = {}

    # -------------------------------------------------------------- #

    def _message_specs(
        self, dst: int, kind: str, chunks: tuple[DataChunk, ...] = ()
    ) -> tuple[PacketSpec, ...]:
        """Specs of one combined row (``PHASE_VMESH1``) or column message
        to *dst*; chunks ride the first packet.

        The gamma memcpy for gathering/sorting the combined payload is
        charged per packet, pro-rated by wire size."""
        if kind == PHASE_VMESH1:
            packets = self.row_packets
            payload_total = self.map.pvy * self.msg_bytes
        else:
            packets = self.col_packets
            payload_total = self.map.pvx * self.msg_bytes
        wire_total = sum(packets)
        return tuple(
            PacketSpec(
                dst=dst,
                wire_bytes=wire,
                mode=RoutingMode.ADAPTIVE,
                new_message=(i == 0),
                tag=(
                    ChunkTag(kind, chunks)
                    if (self.carry_data and i == 0)
                    else kind
                ),
                payload_bytes=(payload_total * wire) // wire_total,
                extra_cpu_cycles=self._gamma * wire,
                alpha_cycles=self._alpha if i == 0 else -1.0,
            )
            for i, wire in enumerate(packets)
        )

    def _shared_message(self, dst: int, kind: str) -> tuple[PacketSpec, ...]:
        """The specs of a chunkless message, built once per (dst, kind)
        and shared by every sender (``carry_data`` off)."""
        specs = self._messages.get((dst, kind))
        if specs is None:
            specs = self._messages[dst, kind] = self._message_specs(dst, kind)
        return specs

    def _row_message(self, node: int, col: int) -> tuple[PacketSpec, ...]:
        """Phase-1 message from *node* to its row peer in column *col*:
        chunks for every row of that column."""
        r, c = self.map.row_col(node)
        dst = self.map.node_at(r, col)
        if not self.carry_data:
            return self._shared_message(dst, PHASE_VMESH1)
        chunks = tuple(
            DataChunk(node, self.map.node_at(rr, col), 0, self.msg_bytes)
            for rr in range(self.map.pvy)
            if self.map.node_at(rr, col) != node
        )
        return self._message_specs(dst, PHASE_VMESH1, chunks)

    def _emit_phase2(self, node: int) -> list[PacketSpec]:
        """All phase-2 messages of *node* (called once phase 1 is in)."""
        assert not self._p2_sent[node], "phase 2 emitted twice"
        self._p2_sent[node] = True
        r, c = self.map.row_col(node)
        rows = shuffled_others(self.seed, "vmesh2", node, self.map.pvy, r)
        specs: list[PacketSpec] = []
        if self.carry_data:
            # Sort buffered + own chunks by destination row.
            by_row: dict[int, list[DataChunk]] = {rr: [] for rr in rows}
            for ch in self._p1_chunks[node]:
                rr, cc = self.map.row_col(ch.dst)
                if ch.dst == node:
                    continue
                assert cc == c, "phase-1 chunk routed to wrong column"
                by_row[rr].append(ch)
            for rr in rows:
                dst = self.map.node_at(rr, c)
                by_row[rr].append(DataChunk(node, dst, 0, self.msg_bytes))
                specs.extend(
                    self._message_specs(dst, PHASE_VMESH2, tuple(by_row[rr]))
                )
        else:
            for rr in rows:
                specs.extend(
                    self._shared_message(self.map.node_at(rr, c), PHASE_VMESH2)
                )
        return specs

    # -------------------------------------------------------------- #
    # NodeProgram interface
    # -------------------------------------------------------------- #

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        r, c = self.map.row_col(node)
        for col in shuffled_others(self.seed, "vmesh1", node, self.map.pvx, c):
            yield from self._row_message(node, col)
        # Degenerate single-column mesh: no phase-1 traffic arrives, so
        # phase 2 must be driven from the plan.
        if self.phase1_expected == 0 and not self._p2_sent[node]:
            yield from self._emit_phase2(node)

    def on_delivery(
        self, node: int, src: int, spec: PacketSpec
    ) -> Iterable[PacketSpec]:
        tag = spec.tag
        kind = tag.kind if isinstance(tag, ChunkTag) else tag
        if kind == PHASE_VMESH2:
            return ()
        # Phase-1 row message packet.
        self._p1_chunks[node].extend(
            ch for ch in chunks_of(tag) if ch.dst != node
        )
        self._p1_count[node] += 1
        if self._p1_count[node] == self.phase1_expected:
            return self._emit_phase2(node)
        return ()

    def expected_final_deliveries(self) -> int:
        p = self.shape.nnodes
        return p * (
            (self.map.pvx - 1) * len(self.row_packets)
            + (self.map.pvy - 1) * len(self.col_packets)
        )


class VirtualMesh2D(AllToAllStrategy):
    """The paper's short-message virtual-mesh combining strategy."""

    name = "VMesh"
    fifo_groups = 1

    def __init__(
        self,
        pvx: Optional[int] = None,
        pvy: Optional[int] = None,
        axis_order: Optional[Sequence[int]] = None,
    ) -> None:
        require(
            (pvx is None) == (pvy is None),
            "specify both pvx and pvy or neither",
        )
        self.pvx = pvx
        self.pvy = pvy
        self.axis_order = axis_order

    def factors(self, shape: TorusShape) -> tuple[int, int]:
        """The (pvx, pvy) actually used on *shape*."""
        if self.pvx is not None and self.pvy is not None:
            return self.pvx, self.pvy
        return balanced_vmesh_factors(shape.nnodes)

    def mapping(self, shape: TorusShape) -> VMeshMapping:
        """The virtual-mesh layout used on *shape*."""
        pvx, pvy = self.factors(shape)
        return VMeshMapping(shape, pvx, pvy, self.axis_order)

    def build_program(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
        seed: int = 0,
        carry_data: bool = False,
    ) -> VMeshProgram:
        params = params or MachineParams.bluegene_l()
        return VMeshProgram(
            shape, msg_bytes, params, seed, carry_data, self.mapping(shape)
        )

    def predict_cycles(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
    ) -> float:
        params = params or MachineParams.bluegene_l()
        pvx, pvy = self.factors(shape)
        return vmesh_time_cycles(shape, msg_bytes, params, pvx, pvy)
