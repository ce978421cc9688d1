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
from typing import Optional


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


def chunks_of(tag: object) -> tuple[DataChunk, ...]:
    """The chunks a packet tag carries, or () when it carries none (timed
    runs that skip data materialization)."""
    if isinstance(tag, ChunkTag):
        return tag.chunks
    return ()


def kind_of_tag(tag: object) -> Optional[str]:
    """The traffic-class marker of a packet tag, if any."""
    if tag.__class__ is str:  # timed runs tag packets with the bare marker
        return tag
    if isinstance(tag, ChunkTag):
        return tag.kind
    return tag if isinstance(tag, str) else None


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
