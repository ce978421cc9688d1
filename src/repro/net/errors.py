"""Simulator error types."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class DeadlockError(SimulationError):
    """The event queue drained while packets were still undelivered.

    A correctly configured simulation cannot deadlock (the bubble escape VC
    guarantees forward progress); this error therefore indicates either a
    mis-built node program (e.g. a forwarding rule that drops packets) or a
    configuration whose reception queues were disabled.  The message carries
    a per-node diagnostic snapshot.
    """


class SimulationLimitError(SimulationError):
    """The simulation exceeded its configured cycle or event budget.

    Carries a diagnostic snapshot of where the simulation stood when the
    budget ran out (mirroring :class:`DeadlockError`'s per-node report), so
    a runaway run can be triaged without re-running under a debugger:

    * ``events_processed`` — events handled before the limit tripped;
    * ``packets_in_flight`` — packets sitting in VC buffers and injection
      FIFOs at that moment;
    * ``recv_pending`` — packets accepted into reception FIFOs but not yet
      drained by their node's CPU;
    * ``fwd_pending`` — forward/retransmission specs awaiting re-injection;
    * ``pending_by_node`` — per-node count of CPU work still queued
      (receptions to drain plus forwards to re-inject), non-zero nodes only.
    """

    def __init__(
        self,
        reason: str,
        *,
        events_processed: int = 0,
        packets_in_flight: int = 0,
        pending_by_node: Optional[Mapping[int, int]] = None,
        recv_pending: int = 0,
        fwd_pending: int = 0,
    ) -> None:
        self.events_processed = events_processed
        self.packets_in_flight = packets_in_flight
        self.recv_pending = recv_pending
        self.fwd_pending = fwd_pending
        self.pending_by_node = dict(pending_by_node or {})
        msg = reason
        if (
            events_processed
            or packets_in_flight
            or recv_pending
            or fwd_pending
            or self.pending_by_node
        ):
            hot = sorted(
                self.pending_by_node.items(), key=lambda kv: -kv[1]
            )[:8]
            hot_s = ", ".join(f"node {u}: {n}" for u, n in hot) or "none"
            msg = (
                f"{reason} [events_processed={events_processed}, "
                f"packets_in_flight={packets_in_flight}, "
                f"recv_pending={recv_pending}, fwd_pending={fwd_pending}, "
                f"pending work ({len(self.pending_by_node)} nodes): {hot_s}]"
            )
        super().__init__(msg)


class PartitionedNetworkError(SimulationError):
    """A fault plan disconnects the torus.

    Raised by connectivity validation before any traffic is simulated: the
    plan's dead links leave at least one node unreachable from the rest,
    so no routing table can keep the collective complete.
    ``unreachable`` lists the stranded ranks.
    """

    def __init__(self, msg: str, unreachable: Sequence[int] = ()) -> None:
        self.unreachable = tuple(unreachable)
        if self.unreachable:
            shown = ", ".join(str(u) for u in self.unreachable[:16])
            more = "..." if len(self.unreachable) > 16 else ""
            msg = f"{msg} (unreachable ranks: {shown}{more})"
        super().__init__(msg)
