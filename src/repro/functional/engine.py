"""Untimed functional executor: runs a node program over real data.

The timed simulator answers "how long does this schedule take"; this engine
answers "does this schedule move every byte to the right place".  It
executes the same :class:`~repro.net.program.NodeProgram` objects —
injection plans plus delivery/forwarding hooks — but delivers instantly,
collecting the :class:`~repro.strategies.data.DataChunk` descriptors each
packet carries.  :mod:`repro.functional.verify` then checks the all-to-all
postcondition: for every ordered pair (src, dst), dst received exactly the
bytes [0, m) of src's message, exactly once.

A :class:`~repro.net.faults.FaultPlan` with packet loss can be attached:
the engine then emulates the lossy wire plus the simulator's reliability
layer — each packet is delivered only after a geometric number of
(re)transmissions, with a deterministic chance that a slow original *and*
its retransmission both arrive, exercising receiver-side dedup.  The data
postcondition must hold regardless, which is exactly what end-to-end
reliability promises.  Dead links only reroute packets, so the engine,
which delivers instantly, ignores them.

Programs must be built with ``carry_data=True``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.net.packet import PacketSpec
from repro.strategies.data import DataChunk, chunks_of
from repro.util.rng import derive_rng


@dataclass
class FunctionalResult:
    """Outcome of one functional execution."""

    #: chunks consumed at their destination, per (src, dst) pair.
    received: dict[tuple[int, int], list[DataChunk]]
    packets_delivered: int = 0
    packets_forwarded: int = 0
    max_forward_depth: int = 0
    #: peak per-node intermediate buffering, in chunk-bytes (the space cost
    #: Section 4 warns about: indirect strategies double buffering).
    peak_intermediate_bytes: int = 0
    #: loss emulation: transmissions dropped / extra sends / dups discarded.
    packets_lost: int = 0
    packets_retransmitted: int = 0
    duplicates_discarded: int = 0


class FunctionalEngine:
    """Executes a node program's data movement without timing.

    ``faults`` enables the loss/reliability emulation described in the
    module docstring; ``None`` or a loss-free plan executes exactly as
    before.
    """

    def __init__(
        self, shape: TorusShape, faults: Optional[FaultPlan] = None
    ) -> None:
        self.shape = shape
        self.faults = faults

    def execute(self, program) -> FunctionalResult:
        """Run *program* to quiescence and collect delivered chunks."""
        p = self.shape.nnodes
        received: dict[tuple[int, int], list[DataChunk]] = {}
        result = FunctionalResult(received=received)
        # (node, src, spec, forward depth, pid) per packet in flight.
        pending: deque[tuple[int, int, PacketSpec, int, int]] = deque()
        pid = 0
        intermediate_bytes = [0] * p

        faults = self.faults
        lossy = faults is not None and faults.has_loss
        rng = derive_rng(faults.seed, "functional-loss") if lossy else None
        loss_p = faults.loss_prob if lossy else 0.0
        delivered_pids: set[int] = set()

        def inject(src: int, spec: PacketSpec, depth: int) -> None:
            nonlocal pid
            entry = (spec.dst, src, spec, depth, pid)
            pid += 1
            pending.append(entry)
            if lossy:
                # Emulate the lossy wire + sender retransmission: each
                # transmission is lost with probability loss_p and simply
                # re-sent (geometric), and occasionally a retransmission
                # races an original that was only slow — both arrive and
                # the receiver must dedup.
                while rng.random() < loss_p:
                    result.packets_lost += 1
                    result.packets_retransmitted += 1
                if rng.random() < loss_p:
                    result.packets_retransmitted += 1
                    pending.append(entry)

        for node in range(p):
            for spec in program.injection_plan(node):
                inject(node, spec, 0)

        while pending:
            node, src, spec, depth, pkt_id = pending.popleft()
            if lossy:
                if pkt_id in delivered_pids:
                    # Receiver-side dedup: the logical packet was already
                    # consumed; its duplicate twin is dropped silently.
                    result.duplicates_discarded += 1
                    continue
                delivered_pids.add(pkt_id)
            result.packets_delivered += 1
            if depth > result.max_forward_depth:
                result.max_forward_depth = depth
            chunks = chunks_of(spec.tag)
            consumed_here = 0
            for chunk in chunks:
                if chunk.dst == node:
                    received.setdefault((chunk.src, chunk.dst), []).append(chunk)
                    consumed_here += chunk.nbytes
            forwards = program.on_delivery(node, src, spec)
            carried = sum(c.nbytes for c in chunks)
            if spec.final_dst != node or carried > consumed_here:
                # Intermediate buffering: everything not consumed here.
                intermediate_bytes[node] += carried - consumed_here
                if intermediate_bytes[node] > result.peak_intermediate_bytes:
                    result.peak_intermediate_bytes = intermediate_bytes[node]
            for fwd in forwards:
                result.packets_forwarded += 1
                inject(node, fwd, depth + 1)
        return result
