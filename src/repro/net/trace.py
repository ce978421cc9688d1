"""Simulation instrumentation and results.

:class:`SimStats` accumulates counters during a run;
:class:`SimulationResult` is the immutable summary handed back to callers,
carrying everything the experiment harness needs: completion time, per-link
utilization, delivery latencies and event counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.model.torus import TorusShape


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

    @property
    def mean_link_utilization(self) -> float:
        """Mean busy fraction over existing links during the run."""
        if self.time_cycles <= 0 or self.num_links == 0:
            return 0.0
        return float(self.link_busy_cycles.sum()) / (
            self.time_cycles * self.num_links
        )

    @property
    def max_link_utilization(self) -> float:
        """Busy fraction of the hottest link."""
        if self.time_cycles <= 0 or self.link_busy_cycles.size == 0:
            return 0.0
        return float(self.link_busy_cycles.max()) / self.time_cycles

    def _check_shape(self, shape: TorusShape) -> None:
        """Reject a *shape* that cannot be the one this run simulated.

        The busy matrix is (nnodes, 2*ndim); passing a mismatched shape
        used to index out of bounds or silently misattribute columns to
        the wrong axis.
        """
        nnodes, ncols = self.link_busy_cycles.shape
        if shape.nnodes != nnodes or 2 * shape.ndim != ncols:
            raise ValueError(
                f"shape {shape.dims} (nnodes={shape.nnodes}, "
                f"ndim={shape.ndim}) does not match this run's busy "
                f"matrix of {nnodes} nodes x {ncols} directions"
            )

    def axis_utilization(self, shape: TorusShape) -> list[float]:
        """Mean busy fraction per dimension (+/- pooled), confirming the
        Section 3.2 analysis that long dimensions run hotter.

        Degenerate axes are handled explicitly: an extent-1 dimension has
        no links (utilization 0.0), and an extent-2 dimension counts its
        links once even when the torus flag is set (the wrap link *is*
        the mesh link, which :meth:`TorusShape.links_in_dim` already
        accounts for)."""
        self._check_shape(shape)
        out = []
        for axis in range(shape.ndim):
            cols = [2 * axis, 2 * axis + 1]
            busy = self.link_busy_cycles[:, cols]
            nlinks = shape.links_in_dim(axis)
            if nlinks == 0 or self.time_cycles <= 0:
                out.append(0.0)
            else:
                out.append(float(busy.sum()) / (self.time_cycles * nlinks))
        return out
