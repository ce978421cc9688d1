"""Fault-aware variant of the torus network simulator.

:class:`FaultyTorusNetwork` extends :class:`~repro.net.simulator.TorusNetwork`
with everything a :class:`~repro.net.faults.FaultPlan` demands:

* dead links and dead nodes are masked out of the neighbor table, so the
  arbitration machinery can never pick them (they look exactly like mesh
  edges);
* routing switches to the plan's :class:`~repro.net.faults.FaultRoutingTable`
  — adaptive packets take any surviving link that strictly decreases BFS
  distance to the destination (JSQ among the dynamic VCs), and the escape
  virtual channel follows deadlock-free up*/down* next hops instead of
  dimension order (the bubble rule's rings no longer exist);
* degraded links stretch their service time, transient outages hold links
  busy for their window, and lossy links drop packets deterministically
  (the drop still occupies the wire for the full service time and returns
  the downstream credit when the tail would have passed);
* when any link is lossy, an end-to-end reliability layer activates:
  every network-bound packet gets a sequence number, the sender keeps the
  spec outstanding and retransmits on a timeout with exponential backoff,
  and receivers discard duplicate sequence numbers — so the collective
  completes with exactly-once delivery semantics.

This class holds the fault *state*: the routing tables, the per-link
degrade/loss tables, the retransmission ledger and the pre-posted outage
events.  The fault *behavior* runs inside the one run kernel,
:meth:`TorusNetwork._run_fused`, as a second set of routing closures
picked once per run from :attr:`_FAULTY`; the pristine closures carry no
fault branches.  Only receiver-side dedup stays a method
(:meth:`_finish_delivery`), so it can be patched like the base delivery.

Like the base class, all state is struct-of-arrays: packets are integer
handles into the shared :class:`~repro.net.packet.PacketPool`, the
retransmission ledger keys sequence numbers to specs (never handles — a
dropped packet's handle is recycled the moment it dies on the wire), and
event times are 2**64-scaled ticks (see the base module docstring).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.check.config import CheckConfig
    from repro.obs.config import ObsConfig

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.config import NetworkConfig
from repro.net.errors import SimulationError
from repro.net.faults import FaultPlan, FaultRoutingTable, loss_salt
from repro.net.packet import PacketSpec
from repro.net.program import NodeProgram
from repro.net.simulator import (
    _ADAPTIVE,
    _EV_OUTAGE,
    TICK_SCALE,
    TorusNetwork,
)
from repro.net.trace import SimulationResult


class FaultyTorusNetwork(TorusNetwork):
    """A torus partition degraded by a :class:`FaultPlan`.

    Construction validates connectivity of the surviving nodes (raising
    :class:`~repro.net.errors.PartitionedNetworkError` otherwise) and
    precomputes all routing tables; the per-event cost of fault awareness
    is then a handful of list lookups.
    """

    __slots__ = (
        "faults", "routing", "_dist", "_prod", "_nh_up", "_nh_down",
        "_order", "_dead_set", "_degrade", "_loss", "_has_loss",
        "_loss_salt", "_seqno", "_outstanding", "_delivered_seqs",
    )

    _FAULTY = True

    def __init__(
        self,
        shape: TorusShape,
        params: Optional[MachineParams] = None,
        config: Optional[NetworkConfig] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(shape, params, config)
        plan = faults if faults is not None else FaultPlan()
        self.faults = plan
        rt = FaultRoutingTable(self.topo, plan)
        self.routing = rt
        # Masked neighbors: the arbitration/token machinery sees dead
        # links as absent (== mesh edges) and can never route over them.
        # The interned TOKEN events bake the upstream neighbor in, so they
        # must be rebuilt against the masked table.
        self._nbr = rt.nbr
        self._build_token_events()
        self._num_links = rt.num_links
        self._dist = rt.dist
        self._prod = rt.productive
        self._nh_up = rt.nh_up
        self._nh_down = rt.nh_down
        self._order = rt.order
        self._dead_set = plan.dead_nodes
        self._degrade = rt.degrade_table()
        self._loss = rt.loss_table()
        self._has_loss = plan.has_loss
        self._loss_salt = loss_salt(plan)
        # Reliability layer state (active only when links can drop): the
        # ledger maps a sequence number to its sender and first spec.
        self._seqno = itertools.count()
        self._outstanding: dict[int, tuple[int, PacketSpec]] = {}
        self._delivered_seqs: set[int] = set()
        # Transient outages become pre-posted events: the start event
        # extends the link's busy horizon to the window end, the end event
        # re-arbitrates waiters.  No routing logic needed.
        for o in plan.outages:
            if self._nbr[o.node][o.direction] < 0:
                continue  # outage on a dead/absent link changes nothing
            li = o.node * self._ndirs + o.direction
            self._post_ev(
                o.start * TICK_SCALE, (_EV_OUTAGE, li, o.end * TICK_SCALE, 0)
            )
            self._post_ev(o.end * TICK_SCALE, self._link_evs[li])
            self.stats.outage_cycles += o.end - o.start

    def _wants_link(self, u: int, d: int, h: int) -> bool:
        # Fault-aware routing truth for the link-stats stall accounting:
        # adaptive packets want any surviving direction that shrinks the
        # fault-distance; deterministic/escape packets want exactly the
        # up*/down* next hop.  Cold path (never called on plain runs).
        if self._nbr[u][d] < 0:
            return False
        db = self._P_dst[h] * self._p
        if self._P_mode[h] == _ADAPTIVE and d in self._prod[db + u]:
            return True
        nh = self._nh_down if self._P_down[h] else self._nh_up
        return nh[db + u] == d

    def _finish_delivery(self, u: int, h: int) -> None:
        seq = self._P_seq[h]
        if seq >= 0:
            if seq in self._delivered_seqs:
                # The original was slow, not lost; the retransmitted twin
                # already arrived (or vice versa).  At-most-once delivery:
                # drop it before the program sees it.
                self.stats.duplicate_packets += 1
                self._pool.free.append(h)
                return
            self._delivered_seqs.add(seq)
            self._outstanding.pop(seq, None)
        super()._finish_delivery(u, h)

    def run(self, program: NodeProgram) -> SimulationResult:
        # A dead node's CPU never runs.  A plan that asks it to inject is
        # a strategy bug — surface it before the first event.
        for u in sorted(self._dead_set):
            if next(iter(program.injection_plan(u)), None) is not None:
                raise SimulationError(
                    f"program injects from dead node {u}; strategies "
                    f"must be built with the fault plan"
                )
        return super().run(program)


def build_network(
    shape: TorusShape,
    params: Optional[MachineParams] = None,
    config: Optional[NetworkConfig] = None,
    faults: Optional[FaultPlan] = None,
    obs: Optional["ObsConfig"] = None,
    check: Optional["CheckConfig"] = None,
) -> TorusNetwork:
    """Instantiate the right network for *faults*, *obs* and *check*.

    The zero-fault path (no plan, or an empty plan) builds the plain
    :class:`TorusNetwork`, whose run kernel picks the pristine routing
    closures — no fault branches in the hot loop.  Observation and
    checking attach as observers (:class:`~repro.net.simulator.SimObserver`):
    an :class:`~repro.obs.config.ObsConfig` with something enabled adds
    the instrumentation, a :class:`~repro.check.config.CheckConfig` with
    at least one oracle on adds the invariant oracles.  The network is
    always exactly :class:`TorusNetwork` or :class:`FaultyTorusNetwork`.
    """
    if faults is None or faults.is_empty:
        net = TorusNetwork(shape, params, config)
    else:
        net = FaultyTorusNetwork(shape, params, config, faults)
    if obs is not None and obs.enabled:
        # Imported here, not at module top: both modules import this one.
        from repro.net.instrumented import Instrumentation

        net.attach(Instrumentation(obs))
    if check is not None and check.enabled:
        from repro.check.oracle import InvariantOracles

        net.attach(InvariantOracles(check))
    return net
