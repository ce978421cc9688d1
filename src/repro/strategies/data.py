"""Payload descriptors carried by packets for data-correctness execution.

The timed simulator treats packet tags as opaque.  The functional engine
(:mod:`repro.functional`) instead interprets tags that carry
:class:`DataChunk` descriptors to verify that every strategy moves every
byte of the all-to-all exactly once to exactly the right rank.

A chunk describes ``nbytes`` of rank *src*'s message to rank *dst*,
starting at byte *offset* of that message.  Combined messages (VMesh) carry
several chunks per packet; direct and TPS packets carry one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.packet import Packet


@dataclass(frozen=True)
class DataChunk:
    """A contiguous piece of one (src, dst) all-to-all message."""

    src: int
    dst: int
    offset: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.nbytes <= 0:
            raise ValueError("chunk must have offset >= 0 and nbytes > 0")


@dataclass(frozen=True)
class ChunkTag:
    """Packet tag carrying data chunks plus a strategy-specific marker.

    ``kind`` identifies the traffic class (``"direct"``, ``"tps1"``,
    ``"vmesh1"``, ...) so forwarding hooks can dispatch without inspecting
    chunk contents.
    """

    kind: str
    chunks: tuple[DataChunk, ...] = ()
    #: Optional strategy payload (e.g. the VMesh sender's row position).
    meta: object = None


def chunks_of(packet: Packet) -> tuple[DataChunk, ...]:
    """Extract the chunks of a packet, or () when it carries none (timed
    runs that skip data materialization)."""
    tag = packet.tag
    if isinstance(tag, ChunkTag):
        return tag.chunks
    return ()


def kind_of_tag(tag: object) -> Optional[str]:
    """The traffic-class marker of a raw packet tag, if any.

    Works on the bare tag value so struct-of-arrays consumers (the
    instrumented/checked networks read the pool's ``tag`` column, not a
    :class:`Packet`) share one dispatch rule with :func:`tag_kind`."""
    if tag.__class__ is str:  # timed runs tag packets with the bare marker
        return tag
    if isinstance(tag, ChunkTag):
        return tag.kind
    return tag if isinstance(tag, str) else None


def tag_kind(packet: Packet) -> Optional[str]:
    """The traffic-class marker of a packet's tag, if any."""
    return kind_of_tag(packet.tag)


# --------------------------------------------------------------------- #
# phase markers
# --------------------------------------------------------------------- #
#
# Each strategy stamps its packets with one of these traffic-class
# markers.  They double as *phase markers* for observability: the tracer
# carries the marker on every deliver event, so a Perfetto view of a TPS
# run shows phase-1 spreading overlapped with phase-2 delivery (the
# paper's Section 4 pipelining) without any extra instrumentation.
# Strategy modules import the constants rather than repeating literals —
# the strings themselves are load-bearing (forwarding hooks dispatch on
# them) and must not drift.

PHASE_DIRECT = "direct"
PHASE_TPS1 = "tps1"
PHASE_TPS2 = "tps2"
PHASE_VMESH1 = "vmesh1"
PHASE_VMESH2 = "vmesh2"
PHASE_CREDIT = "credit"
PHASE_M2M = "m2m"

#: Marker -> human-readable phase description (trace/metrics legends).
PHASE_NAMES = {
    PHASE_DIRECT: "direct single-phase send",
    PHASE_TPS1: "TPS phase 1: spread along the linear dimension",
    PHASE_TPS2: "TPS phase 2: deliver within the hyperplane",
    PHASE_VMESH1: "virtual mesh phase 1: combine along rows",
    PHASE_VMESH2: "virtual mesh phase 2: distribute along columns",
    PHASE_CREDIT: "memory-credit control traffic",
    PHASE_M2M: "many-to-many subcommunicator traffic",
}


def phase_name(kind: Optional[str]) -> str:
    """Human-readable description of a traffic-class marker."""
    if kind is None:
        return "untagged"
    return PHASE_NAMES.get(kind, kind)


def total_chunk_bytes(chunks: Iterable[DataChunk]) -> int:
    """Sum of chunk sizes."""
    return sum(c.nbytes for c in chunks)
