"""Packet representation and injection specifications.

A :class:`Packet` is the unit the torus moves: up to 256 B on the wire,
carrying a routing mode (adaptive dynamic-VC or deterministic bubble-VC),
the node it must be *delivered* to, and an opaque ``tag`` that node
programs use to recognize forwarded traffic (TPS phase-1 packets, VMesh row
messages, ...).

:class:`PacketSpec` is the strategy-facing description of a packet to
inject; the simulator turns specs into packets at injection time so that
multi-million-packet schedules can be generated lazily.

The timed simulator does not move :class:`Packet` *objects* through the
network: it allocates an integer handle from a :class:`PacketPool` — a
struct-of-arrays store whose parallel columns (``src``, ``dst``,
``wire_bytes``, ``hops``, ...) are plain flat lists indexed by handle —
and threads that handle through queues, events and launches.  A real
``Packet`` is materialized only at the delivery boundary, where node
programs consume it.  The pool recycles handles through a LIFO free list
and doubles its columns in place when it runs dry, so column references
borrowed by the simulator stay valid across regrowth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable


class RoutingMode(enum.IntEnum):
    """How the torus routes a packet (Section 2: BG/L supports both)."""

    #: JSQ adaptive routing on the dynamic VCs, bubble VC as escape.
    ADAPTIVE = 0
    #: Dimension-ordered routing on the bubble VC only.
    DETERMINISTIC = 1


@dataclass(frozen=True)
class PacketSpec:
    """A packet a node program wants injected.

    Attributes
    ----------
    dst:
        Node rank the *network* delivers this packet to (an intermediate
        node for indirect strategies).
    wire_bytes:
        On-the-wire size, a legal torus packet size (32 B granularity).
    mode:
        Routing mode.
    fifo_group:
        Injection FIFO group; TPS reserves one group per phase so phase-1
        packets are never blocked behind phase-2 packets (Section 4.1).
    new_message:
        True on the first packet of a message: charges the per-message
        startup alpha on the injecting CPU.
    tag:
        Opaque marker handed to the receiving node program.
    final_dst:
        Ultimate destination rank (accounting/verification only).
    payload_bytes:
        Application payload carried (accounting only; <= wire_bytes).
    extra_cpu_cycles:
        Additional CPU cycles to charge when injecting (e.g. the VMesh
        gamma memcpy for combining at intermediates).
    alpha_cycles:
        Startup charged when ``new_message`` (negative = use the machine's
        packet-runtime alpha).  Message-level strategies (MPI, VMesh) set
        the heavier 1170-cycle alpha here.
    seq:
        End-to-end sequence number for at-most-once delivery under packet
        loss (negative = unsequenced; assigned by the fault-aware network
        at first injection and reused verbatim on retransmission).
    """

    dst: int
    wire_bytes: int
    mode: RoutingMode = RoutingMode.ADAPTIVE
    fifo_group: int = 0
    new_message: bool = False
    tag: Hashable = None
    final_dst: int = -1
    payload_bytes: int = 0
    extra_cpu_cycles: float = 0.0
    alpha_cycles: float = -1.0
    seq: int = -1


#: Sentinel for "no VC assigned yet".
NO_VC = -1

#: :class:`RoutingMode` by value: the pool's ``mode`` column back to the
#: enum without an enum call per delivery.
_MODES = (RoutingMode.ADAPTIVE, RoutingMode.DETERMINISTIC)


@dataclass
class Packet:
    """A live packet inside the simulated network (mutable)."""

    __slots__ = (
        "pid",
        "src",
        "dst",
        "wire_bytes",
        "mode",
        "tag",
        "final_dst",
        "payload_bytes",
        "inject_time",
        "deliver_time",
        "hops",
        "vc",
        "halfbits",
        "seq",
        "downphase",
    )

    pid: int
    src: int
    dst: int
    wire_bytes: int
    mode: RoutingMode
    tag: Hashable
    final_dst: int
    payload_bytes: int
    inject_time: float
    deliver_time: float
    hops: int
    vc: int
    #: Per-axis direction choice for exact-half torus displacements (bit a
    #: set => axis a resolves +).  Fixed at injection from a hash of the
    #: packet id so the two minimal directions are used evenly, matching
    #: the hardware/runtime behavior the paper's Eq. 2 peak assumes; a
    #: fixed tie-break would overload one direction by 25 % on even tori.
    halfbits: int
    #: End-to-end sequence number (negative = unsequenced run).
    seq: int
    #: Up*/down* escape phase under faults: True once the packet has taken
    #: a down link on the escape VC (it may then never climb again while it
    #: stays on that VC).  Reset whenever the packet moves adaptively.
    downphase: bool

    @classmethod
    def from_spec(
        cls, pid: int, src: int, spec: PacketSpec, now: float
    ) -> "Packet":
        """Materialize a packet from its spec at injection time."""
        return cls(
            pid=pid,
            src=src,
            dst=spec.dst,
            wire_bytes=spec.wire_bytes,
            mode=spec.mode,
            tag=spec.tag,
            final_dst=spec.final_dst if spec.final_dst >= 0 else spec.dst,
            payload_bytes=spec.payload_bytes,
            inject_time=now,
            deliver_time=-1.0,
            hops=0,
            vc=NO_VC,
            halfbits=(pid * 0x9E3779B1) >> 7,
            seq=spec.seq,
            downphase=False,
        )


class PacketPool:
    """Struct-of-arrays packet store with integer handles.

    Each live packet is an index ``h`` into the parallel columns below;
    the timed simulator queues, routes and retires handles instead of
    ``Packet`` objects.  Columns mirror :class:`Packet` fields, except
    that ``mode`` is stored as a plain ``int`` (the :class:`RoutingMode`
    value) and ``inject_time`` is stored in whatever timebase the owner
    uses (the simulator stores scaled ticks).  ``deliver_time`` has no
    column: delivery is the moment the handle dies, so the owner passes
    the delivery timestamp straight to :meth:`materialize`.  One column
    has no :class:`Packet` field: ``route``, the pristine kernel's route
    state (the remaining displacement as one index, see
    :mod:`repro.net.displacement`), which the kernel sets at injection
    and steps at every hop; :meth:`alloc` leaves it alone.

    Handles are recycled through a LIFO ``free`` list (hot handles stay
    cache-warm).  When the pool runs dry it doubles every column *in
    place* via ``list.extend``, so references to the column lists held
    by the simulator remain valid across regrowth.
    """

    __slots__ = (
        "capacity",
        "free",
        "pid",
        "src",
        "dst",
        "wire_bytes",
        "mode",
        "tag",
        "final_dst",
        "payload_bytes",
        "inject_time",
        "hops",
        "vc",
        "halfbits",
        "seq",
        "downphase",
        "route",
    )

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        # Popped from the tail: handle 0 is handed out first.
        self.free = list(range(capacity - 1, -1, -1))
        self.pid = [0] * capacity
        self.src = [0] * capacity
        self.dst = [0] * capacity
        self.wire_bytes = [0] * capacity
        self.mode = [0] * capacity
        self.tag: list[Hashable] = [None] * capacity
        self.final_dst = [0] * capacity
        self.payload_bytes = [0] * capacity
        self.inject_time = [0.0] * capacity
        self.hops = [0] * capacity
        self.vc = [NO_VC] * capacity
        self.halfbits = [0] * capacity
        self.seq = [-1] * capacity
        self.downphase = [False] * capacity
        self.route = [0] * capacity

    @property
    def live(self) -> int:
        """Number of handles currently allocated."""
        return self.capacity - len(self.free)

    def grow(self) -> None:
        """Double capacity, extending every column in place."""
        old = self.capacity
        new = old * 2
        self.pid.extend([0] * old)
        self.src.extend([0] * old)
        self.dst.extend([0] * old)
        self.wire_bytes.extend([0] * old)
        self.mode.extend([0] * old)
        self.tag.extend([None] * old)
        self.final_dst.extend([0] * old)
        self.payload_bytes.extend([0] * old)
        self.inject_time.extend([0.0] * old)
        self.hops.extend([0] * old)
        self.vc.extend([NO_VC] * old)
        self.halfbits.extend([0] * old)
        self.seq.extend([-1] * old)
        self.downphase.extend([False] * old)
        self.route.extend([0] * old)
        self.free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def alloc(
        self, pid: int, src: int, spec: PacketSpec, inject_time: float
    ) -> int:
        """Allocate a handle initialized exactly as
        :meth:`Packet.from_spec` would initialize a packet."""
        free = self.free
        if not free:
            self.grow()
            free = self.free
        h = free.pop()
        self.pid[h] = pid
        self.src[h] = src
        self.dst[h] = spec.dst
        self.wire_bytes[h] = spec.wire_bytes
        self.mode[h] = int(spec.mode)
        self.tag[h] = spec.tag
        self.final_dst[h] = spec.final_dst if spec.final_dst >= 0 else spec.dst
        self.payload_bytes[h] = spec.payload_bytes
        self.inject_time[h] = inject_time
        self.hops[h] = 0
        self.vc[h] = NO_VC
        self.halfbits[h] = (pid * 0x9E3779B1) >> 7
        self.seq[h] = spec.seq
        self.downphase[h] = False
        return h

    def release(self, h: int) -> None:
        """Return a handle to the free list (caller must not use it
        again until re-allocated)."""
        self.free.append(h)

    def materialize(
        self, h: int, inject_time: float, deliver_time: float
    ) -> Packet:
        """Build a real :class:`Packet` from a handle at the delivery
        boundary, with caller-supplied (unscaled) timestamps."""
        return Packet(
            self.pid[h],
            self.src[h],
            self.dst[h],
            self.wire_bytes[h],
            _MODES[self.mode[h]],
            self.tag[h],
            self.final_dst[h],
            self.payload_bytes[h],
            inject_time,
            deliver_time,
            self.hops[h],
            self.vc[h],
            self.halfbits[h],
            self.seq[h],
            self.downphase[h],
        )
