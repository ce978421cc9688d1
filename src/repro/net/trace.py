"""Simulation instrumentation and results.

:class:`SimStats` accumulates counters during a run;
:class:`SimulationResult` is the immutable summary handed back to callers,
carrying everything the experiment harness needs: completion time, per-link
busy cycles and packet counts, delivery latencies and event counts.
:class:`repro.obs.linkstats.LinkAnalytics` turns the link counters into
utilization and percent of peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(slots=True)
class SimStats:
    """Mutable in-flight counters (one per simulation run)."""

    injected_packets: int = 0
    delivered_packets: int = 0
    final_deliveries: int = 0
    forwarded_packets: int = 0
    injected_wire_bytes: int = 0
    events_processed: int = 0
    last_final_delivery: float = 0.0
    last_delivery: float = 0.0
    #: Sum of (deliver - inject) over final deliveries.
    final_latency_sum: float = 0.0
    #: Max (deliver - inject) over final deliveries.
    final_latency_max: float = 0.0
    #: Peak per-node backlog of forwarding work (packets received but not
    #: yet re-injected) — the intermediate memory credit flow control
    #: bounds (Section 5).
    peak_forward_backlog: int = 0
    #: Packets dropped on a lossy link (fault injection only).
    lost_packets: int = 0
    #: Sender-side retransmissions issued after a timeout.
    retransmitted_packets: int = 0
    #: Duplicate deliveries discarded by receiver-side dedup.
    duplicate_packets: int = 0
    #: Hops taken in a non-minimal direction to route around faults.
    rerouted_hops: int = 0


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulated collective."""

    #: Completion time: last *final* delivery, cycles.
    time_cycles: float
    #: Per-(node, direction) link busy cycles.
    link_busy_cycles: np.ndarray
    #: Number of directed links that exist.
    num_links: int
    injected_packets: int
    delivered_packets: int
    final_deliveries: int
    forwarded_packets: int
    injected_wire_bytes: int
    total_hops: int
    events_processed: int
    mean_final_latency: float
    max_final_latency: float
    peak_forward_backlog: int = 0
    #: Fault observability (all zero on a pristine run).
    lost_packets: int = 0
    retransmitted_packets: int = 0
    duplicate_packets: int = 0
    rerouted_hops: int = 0
    #: Always 0.0: the fault model has no outage windows.  The field
    #: stays so cached and golden payloads keep their layout.
    outage_cycles: float = 0.0
    #: Per-(node, direction) packets launched onto each directed link,
    #: same layout as :attr:`link_busy_cycles`.  Always collected (the
    #: counter is one integer add per launch); ``None`` only on results
    #: built by code predating the counter.
    link_packets: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)
