"""Packet injection specifications and the simulator's packet store.

:class:`PacketSpec` is the strategy-facing description of a packet: up
to 256 B on the wire, carrying a routing mode (adaptive dynamic-VC or
deterministic bubble-VC), the node the network delivers it to, its final
destination, and an opaque ``tag`` that node programs use to recognize
forwarded traffic (TPS phase-1 packets, VMesh row messages, ...).
Strategies yield specs lazily, so multi-million-packet schedules never
materialize at once.

The timed simulator keeps no per-packet object of its own: it allocates
an integer handle from a :class:`PacketPool` — a struct-of-arrays store
whose parallel columns (``src``, ``dst``, ``wire_bytes``, ``hops``, ...)
are plain flat lists indexed by handle — and threads that handle through
queues, events and launches.  The ``spec`` column holds the spec the
packet was injected from, so at the delivery boundary the node program
receives that same object and the injecting node's rank, and a
forwarding program reads the packet's final destination, tag and sizes
from it.  The pool recycles handles through a LIFO free list and doubles
its columns in place when it runs dry, so column references borrowed by
the simulator stay valid across regrowth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Optional


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
        Ultimate destination rank; left out, it is ``dst`` (the spec
        holds that rank from construction on).  A delivery is final iff
        it happens at this node.
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
    final_dst: Optional[int] = None
    payload_bytes: int = 0
    extra_cpu_cycles: float = 0.0
    alpha_cycles: float = -1.0
    seq: int = -1

    def __post_init__(self) -> None:
        if self.final_dst is None:
            object.__setattr__(self, "final_dst", self.dst)


#: Sentinel for "no VC assigned yet".
NO_VC = -1


class PacketPool:
    """Struct-of-arrays packet store with integer handles.

    Each live packet is an index ``h`` into the parallel columns below;
    the timed simulator queues, routes and retires handles.  ``spec``
    holds the :class:`PacketSpec` the packet was injected from, which the
    delivery hook receives as is.  The other columns hold what the kernel
    reads or writes per packet: ``dst``, ``wire_bytes`` and ``mode`` (a
    plain ``int``, the :class:`RoutingMode` value) copied from the spec,
    so a hop reads them with one index; the source rank and packet id;
    ``inject_time`` in whatever timebase the owner uses (the simulator
    stores scaled ticks); the hop count and VC; ``halfbits``, the
    per-axis direction choice for exact-half torus displacements (bit a
    set => axis a resolves +), hashed from the packet id so the two
    minimal directions are used evenly, as the paper's Eq. 2 peak
    assumes; ``seq``, which the fault network assigns when the spec has
    none; and ``downphase``, the up*/down* escape phase of fault runs.
    ``route`` is the pristine kernel's route state (the remaining
    displacement as one index, see :mod:`repro.net.displacement`), which
    the kernel sets at injection and steps at every hop; :meth:`alloc`
    leaves it alone.

    Handles are recycled through a LIFO ``free`` list (hot handles stay
    cache-warm): whoever retires a handle appends it to ``free``.  When
    the pool runs dry it doubles every column *in place* via
    ``list.extend``, so references to the column lists held by the
    simulator remain valid across regrowth.
    """

    __slots__ = (
        "capacity",
        "free",
        "pid",
        "src",
        "dst",
        "wire_bytes",
        "mode",
        "spec",
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
        self.spec: list[Optional[PacketSpec]] = [None] * capacity
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
        self.spec.extend([None] * old)
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
        """Allocate a handle for a packet *src* injects from *spec* at
        *inject_time*; the kernel's one injection path."""
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
        self.spec[h] = spec
        self.inject_time[h] = inject_time
        self.hops[h] = 0
        self.vc[h] = NO_VC
        self.halfbits[h] = (pid * 0x9E3779B1) >> 7
        self.seq[h] = spec.seq
        self.downphase[h] = False
        return h
