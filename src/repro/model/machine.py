"""Machine parameters of the Blue Gene/L node and torus network.

All values default to the numbers measured in the paper (Sections 2-4):

====================  =======================================================
``alpha_packet``      450 cycles (~0.64 us) per-destination startup of the
                      packet-level AR runtime (Section 3).
``alpha_message``     1170 cycles (~1.7 us) per-message startup of the
                      message-level runtime used by VMesh (Section 4.2).
``beta``              6.48 ns/B per-link / per-byte network transfer time.
``gamma``             1.6 ns/B memory-copy cost for VMesh combining.
``header_bytes``      48 B software header, carried in the first packet of a
                      message only.
``proto_bytes``       8 B VMesh protocol header per combined message chunk.
``packet_bytes``      256 B max torus packet, 32 B granularity, and the
                      runtime's 64 B minimum; 240 B max payload per packet.
``cpu_links``         A core can keep ~4 links busy when data is out of L1
                      (5 when in L1) — Section 2.
====================  =======================================================

Time is carried in 700 MHz processor cycles everywhere (see
:mod:`repro.util.units`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.util.units import per_byte_ns_to_cycles, us_to_cycles
from repro.util.validation import check_nonneg, check_positive_int, require


@dataclass(frozen=True)
class MachineParams:
    """Cost and micro-architecture parameters of a BG/L-like machine."""

    #: Per-destination startup of the packet runtime, cycles (paper: 450).
    alpha_packet_cycles: float = 450.0
    #: Per-message startup of the message runtime, cycles (paper: 1170).
    alpha_message_cycles: float = 1170.0
    #: Per-byte network transfer time, ns/B (paper: 6.48).
    beta_ns_per_byte: float = 6.48
    #: Memory-copy cost for intermediate combining, ns/B (paper: 1.6).
    gamma_ns_per_byte: float = 1.6
    #: Software message header, bytes, first packet only (paper: 48).
    header_bytes: int = 48
    #: VMesh protocol header per combined chunk, bytes (paper: 8).
    proto_bytes: int = 8
    #: Maximum torus packet size, bytes (paper: 256).
    packet_max_bytes: int = 256
    #: Torus packet size granularity, bytes (paper: 32).
    packet_granularity: int = 32
    #: Smallest packet the runtime sends, bytes (paper: 64).
    packet_min_bytes: int = 64
    #: Max payload in a full packet, bytes (paper: 240 of 256).
    packet_payload_max: int = 240
    #: Links a core can keep busy, data not in L1 (paper: ~4).
    cpu_links: float = 4.0
    #: Links a core can keep busy, data in L1 (paper: ~5).
    cpu_links_l1: float = 5.0
    #: Dynamic (adaptively routed) virtual channels per link (BG/L: 2).
    num_dynamic_vcs: int = 2
    #: Bubble/deterministic escape VCs per link (BG/L: 1).
    num_bubble_vcs: int = 1
    #: Simulated VC buffer depth in full-size packets.  The hardware VC is
    #: 1 KB (~4 packets), but its credits are *flit-granular* and turn over
    #: far faster than a packet-granularity token model allows; 16 nominal
    #: packet slots is the calibrated equivalent elasticity — it reproduces
    #: the symmetric-torus AR baseline while preserving the asymmetric
    #: congestion collapse of Section 3.2 (deeper buffers wash it out,
    #: shallower ones starve symmetric tori).  See DESIGN.md section 5.
    vc_depth_packets: int = 16
    #: Router/wire latency per hop, cycles (~100 ns on BG/L).
    hop_latency_cycles: float = 70.0
    #: Per-packet processor handling cost, cycles (injection or reception).
    packet_cpu_cycles: float = 100.0
    #: Injection FIFOs per node (BG/L torus has several; >=2 lets TPS
    #: reserve disjoint groups per phase).
    num_injection_fifos: int = 4
    #: Injection FIFO depth in packets.
    injection_fifo_depth: int = 8

    def __post_init__(self) -> None:
        check_nonneg(self.alpha_packet_cycles, "alpha_packet_cycles")
        check_nonneg(self.alpha_message_cycles, "alpha_message_cycles")
        require(self.beta_ns_per_byte > 0, "beta must be positive")
        check_nonneg(self.gamma_ns_per_byte, "gamma_ns_per_byte")
        # A negative router latency would deliver headers before they
        # leave, a negative CPU cost would refund cycles; zero is legal
        # (ideal machines in tests set both to 0).
        check_nonneg(self.hop_latency_cycles, "hop_latency_cycles")
        check_nonneg(self.packet_cpu_cycles, "packet_cpu_cycles")
        check_positive_int(self.packet_max_bytes, "packet_max_bytes")
        check_positive_int(self.packet_granularity, "packet_granularity")
        check_positive_int(self.packet_min_bytes, "packet_min_bytes")
        check_positive_int(self.packet_payload_max, "packet_payload_max")
        require(
            self.packet_max_bytes % self.packet_granularity == 0,
            "packet_max_bytes must be a multiple of packet_granularity",
        )
        require(
            self.packet_min_bytes % self.packet_granularity == 0,
            "packet_min_bytes must be a multiple of packet_granularity",
        )
        require(
            self.packet_payload_max <= self.packet_max_bytes,
            "payload cannot exceed packet size",
        )
        require(self.cpu_links > 0, "cpu_links must be positive")
        check_positive_int(self.num_dynamic_vcs, "num_dynamic_vcs")
        check_positive_int(self.num_bubble_vcs, "num_bubble_vcs")
        check_positive_int(self.vc_depth_packets, "vc_depth_packets")
        check_positive_int(self.num_injection_fifos, "num_injection_fifos")
        check_positive_int(self.injection_fifo_depth, "injection_fifo_depth")

    # ------------------------------------------------------------------ #
    # derived rates (cycles)
    # ------------------------------------------------------------------ #

    @cached_property
    def beta_cycles_per_byte(self) -> float:
        """Per-byte link time in cycles/B (~4.54 at the paper's beta)."""
        return per_byte_ns_to_cycles(self.beta_ns_per_byte)

    @cached_property
    def gamma_cycles_per_byte(self) -> float:
        """Per-byte memcpy time in cycles/B."""
        return per_byte_ns_to_cycles(self.gamma_ns_per_byte)

    @cached_property
    def link_bytes_per_cycle(self) -> float:
        """Raw one-link bandwidth in B/cycle (1/beta)."""
        return 1.0 / self.beta_cycles_per_byte

    @cached_property
    def cpu_bytes_per_cycle(self) -> float:
        """Node processor messaging bandwidth: ~cpu_links links' worth."""
        return self.cpu_links * self.link_bytes_per_cycle

    @cached_property
    def cpu_incremental_cycles_per_byte(self) -> float:
        """Per-byte CPU handling cost *beyond* the fixed per-packet cost,
        calibrated so a full-size packet costs exactly its share of the
        cpu_links byte rate:  ``packet_cpu + 256*incr = 256/cpu_rate``.
        Short packets then process *less* efficiently per byte, matching
        the paper's observation that 64 B packets waste throughput."""
        full = self.packet_max_bytes
        total = full / self.cpu_bytes_per_cycle
        return max(0.0, (total - self.packet_cpu_cycles) / full)

    def cpu_packet_handling_cycles(self, wire_bytes: int) -> float:
        """CPU cycles to inject or drain one packet of *wire_bytes*."""
        return (
            self.packet_cpu_cycles
            + wire_bytes * self.cpu_incremental_cycles_per_byte
        )

    def packet_service_cycles(self, packet_bytes: int) -> float:
        """Cycles a link is occupied transmitting one *packet_bytes* packet."""
        check_positive_int(packet_bytes, "packet_bytes")
        return packet_bytes * self.beta_cycles_per_byte

    # ------------------------------------------------------------------ #
    # packetization
    # ------------------------------------------------------------------ #

    def round_packet(self, raw_bytes: int) -> int:
        """Round a raw on-wire byte count to a legal torus packet size:
        a multiple of ``packet_granularity`` between ``packet_min_bytes``
        and ``packet_max_bytes``."""
        require(raw_bytes >= 1, "raw_bytes must be >= 1")
        require(
            raw_bytes <= self.packet_max_bytes,
            f"{raw_bytes} B exceeds max packet {self.packet_max_bytes} B",
        )
        g = self.packet_granularity
        rounded = ((raw_bytes + g - 1) // g) * g
        return max(rounded, self.packet_min_bytes)

    def packetize_message(self, payload_bytes: int) -> list[int]:
        """On-wire packet sizes for a *payload_bytes* message.

        The 48 B software header rides in the first packet (Section 3), so
        a 1 B message becomes a single 64 B packet and the per-message
        on-wire total is ~(m + h) rounded up to packet granularity.
        """
        require(payload_bytes >= 0, "payload must be >= 0")
        remaining = payload_bytes + self.header_bytes
        sizes: list[int] = []
        while remaining > 0:
            chunk = min(remaining, self.packet_max_bytes)
            sizes.append(self.round_packet(chunk))
            remaining -= chunk
        return sizes

    def message_wire_bytes(self, payload_bytes: int) -> int:
        """Total on-wire bytes for one message (header + rounding included)."""
        return sum(self.packetize_message(payload_bytes))

    # ------------------------------------------------------------------ #
    # variants
    # ------------------------------------------------------------------ #

    def with_updates(self, **changes: object) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def bluegene_l(cls) -> "MachineParams":
        """The paper's measured BG/L parameter set (the defaults)."""
        return cls()
