"""Fault-aware variant of the torus network simulator.

:class:`FaultyTorusNetwork` extends :class:`~repro.net.simulator.TorusNetwork`
with everything a :class:`~repro.net.faults.FaultPlan` demands:

* dead links and dead nodes are masked out of the neighbor table, so the
  base arbitration machinery can never pick them (they look exactly like
  mesh edges);
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

The zero-fault path stays on the base class: :func:`build_network` only
instantiates this subclass for a non-empty plan, and the base class's fused
hot loop carries **no** fault branches (the overrides below are copies with
the fault logic woven in, not hooks called per event).  A fault run has no
loop of its own: the overrides send it through the base class's generic
dispatch loop, which also serves the retransmission and outage event kinds.

Like the base class, all state is struct-of-arrays: packets are integer
handles into the shared :class:`~repro.net.packet.PacketPool`, the
retransmission ledger keys sequence numbers to specs (never handles — a
dropped packet's handle is recycled the moment it dies on the wire), and
event times are 2**64-scaled ticks (see the base module docstring).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.check.config import CheckConfig
    from repro.obs.config import ObsConfig

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.config import NetworkConfig
from repro.net.errors import SimulationError
from repro.net.faults import (
    FaultPlan,
    FaultRoutingTable,
    loss_draw,
    loss_salt,
)
from repro.net.packet import PacketSpec
from repro.net.program import NodeProgram
from repro.net.simulator import (
    _ADAPTIVE,
    _EV_ARRIVE,
    _EV_OUTAGE,
    _EV_RETX,
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
        "faults", "routing", "_dist", "_nh_up", "_nh_down", "_order",
        "_dead_set", "_degrade", "_loss", "_has_loss", "_loss_salt",
        "_seqno", "_outstanding", "_delivered_seqs",
    )

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
        # Masked neighbors: the base arbitration/token machinery sees dead
        # links as absent (== mesh edges) and can never route over them.
        # The interned TOKEN events bake the upstream neighbor in, so they
        # must be rebuilt against the masked table.
        self._nbr = rt.nbr
        self._build_token_events()
        self._num_links = rt.num_links
        self._dist = rt.dist
        self._nh_up = rt.nh_up
        self._nh_down = rt.nh_down
        self._order = rt.order
        self._dead_set = plan.dead_nodes
        self._degrade = rt.degrade_table()
        self._loss = rt.loss_table()
        self._has_loss = plan.has_loss
        self._loss_salt = loss_salt(plan)
        # Reliability layer state (active only when links can drop).
        self._seqno = itertools.count()
        self._outstanding: dict[int, tuple[int, PacketSpec]] = {}
        self._delivered_seqs: set[int] = set()
        # Transient outages become pre-posted events: the start event
        # extends the link's busy horizon to the window end, the end event
        # re-arbitrates waiters.  No routing logic needed.
        for o in plan.outages:
            if o.direction >= self._ndirs or o.node >= self._p:
                raise SimulationError(
                    f"outage names nonexistent link ({o.node}, {o.direction})"
                )
            if self._nbr[o.node][o.direction] < 0:
                continue  # outage on a dead/absent link changes nothing
            li = o.node * self._ndirs + o.direction
            self._post_ev(
                o.start * TICK_SCALE, (_EV_OUTAGE, li, o.end * TICK_SCALE, 0)
            )
            self._post_ev(o.end * TICK_SCALE, self._link_evs[li])
            self.stats.outage_cycles += o.end - o.start

    # ------------------------------------------------------------------ #
    # fault-aware routing
    # ------------------------------------------------------------------ #

    def _vc_for_link(
        self, u: int, d: int, v: int, h: int, in_axis: int,
        dynamic_pass: bool,
    ) -> int:
        db = self._P_dst[h] * self._p
        base = (v * self._ndirs + (d ^ 1)) * self._nvcs
        tokens = self._tokens
        if dynamic_pass:
            if self._P_mode[h] != _ADAPTIVE:
                return -1
            # Adaptive progress = any surviving link that strictly reduces
            # BFS distance to the destination (minimal on the degraded
            # graph); JSQ across the dynamic VCs as on the pristine torus.
            dist = self._dist
            dv = dist[db + v]
            if dv < 0 or dv >= dist[db + u]:
                return -1
            best, best_free = -1, 0
            for vc in range(self._ndyn):
                f = tokens[base + vc]
                if f > best_free:
                    best, best_free = vc, f
            return best
        # Escape pass: up*/down* on the bubble VC.  A single free slot
        # suffices — the up*/down* channel dependency graph is acyclic, so
        # no bubble is needed for deadlock freedom.
        nh = self._nh_down if self._P_down[h] else self._nh_up
        if nh[db + u] != d:
            return -1
        if tokens[base + self._bubble] >= 1:
            return self._bubble
        return -1

    def _arbitrate_link(self, u: int, d: int) -> bool:
        """Generic single-pass port scan through ``_vc_for_link``.

        The base class inlines its pristine-torus routing checks into the
        scan for speed; the fault-aware network keeps this generic version
        so the BFS-distance / up*-down* logic above stays the single source
        of truth for routing decisions."""
        v = self._nbr[u][d]
        if v < 0:
            return False
        li = u * self._ndirs + d
        m = self._pmask[u]
        if not m or self._link_busy[li] > self._now:
            return False
        nports = self._nports
        nvp = self._nvp
        q_buf = self._q_buf
        q_hd = self._q_hd
        qsh = self._q_shift
        ubase = u * nports
        P_dst = self._P_dst
        vc_for_link = self._vc_for_link
        start = self._arb[li]
        mm = ((m >> start) | (m << (nports - start))) & ((1 << nports) - 1)
        b_port = -1
        b_h = -1
        b_vc = -1
        while mm:
            low = mm & -mm
            mm -= low
            port = start + low.bit_length() - 1
            if port >= nports:
                port -= nports
            h = q_buf[((ubase + port) << qsh) | q_hd[ubase + port]]
            in_axis = -1
            if port < nvp:
                if P_dst[h] == u:
                    continue  # waiting for reception space
                in_axis = port // self._nvcs >> 1
            use_vc = vc_for_link(u, d, v, h, in_axis, True)
            if use_vc >= 0:
                b_port, b_h, b_vc = port, h, use_vc
                break
            if b_port < 0:
                use_vc = vc_for_link(u, d, v, h, in_axis, False)
                if use_vc >= 0:
                    b_port, b_h, b_vc = port, h, use_vc
        if b_port < 0:
            return False
        port = b_port
        qi = ubase + port
        q_hd[qi] = (q_hd[qi] + 1) & self._q_mask
        n = self._q_n[qi] - 1
        self._q_n[qi] = n
        if not n:
            self._pmask[u] &= self._nbit[port]
        self._queued[u] -= 1
        self._arb[li] = port + 1 if port + 1 < nports else 0
        if port < nvp:
            self._immediate.append(self._tok_evs[u * nvp + port])
            self._launch(u, d, v, b_h, b_vc)
            self._advance_queue_head(u, port)
        else:
            f = port - nvp
            self._immediate.append(self._fifo_evs[u * self._nfifos + f])
            self._launch(u, d, v, b_h, b_vc)
            self._advance_fifo_head(u, f)
        return True

    def _try_send_head(self, u: int, h: int, in_axis: int) -> bool:
        link_busy = self._link_busy
        nbr_u = self._nbr[u]
        lbase = u * self._ndirs
        now = self._now
        db = self._P_dst[h] * self._p
        dist = self._dist
        du = dist[db + u]
        tokens = self._tokens
        if self._P_mode[h] == _ADAPTIVE:
            best_d, best_vc, best_free = -1, -1, 0
            for d in range(self._ndirs):
                v = nbr_u[d]
                if v < 0 or link_busy[lbase + d] > now:
                    continue
                dv = dist[db + v]
                if dv < 0 or dv >= du:
                    continue
                base = (v * self._ndirs + (d ^ 1)) * self._nvcs
                for vc in range(self._ndyn):
                    f = tokens[base + vc]
                    if f > best_free:
                        best_d, best_vc, best_free = d, vc, f
            if best_d >= 0:
                self._launch(u, best_d, nbr_u[best_d], h, best_vc)
                return True
        # Escape (also the only path for DETERMINISTIC packets).
        nh = self._nh_down if self._P_down[h] else self._nh_up
        d = nh[db + u]
        if d < 0:
            return False
        v = nbr_u[d]
        if v < 0 or link_busy[lbase + d] > now:
            return False
        base = (v * self._ndirs + (d ^ 1)) * self._nvcs
        if tokens[base + self._bubble] >= 1:
            self._launch(u, d, v, h, self._bubble)
            return True
        return False

    def _wants_link(self, u: int, d: int, h: int) -> bool:
        # Fault-aware routing truth for the instrumented stall accounting:
        # adaptive packets want any surviving direction that shrinks the
        # fault-distance; deterministic/escape packets want exactly the
        # up*/down* next hop.  Cold path (never called on plain runs).
        v = self._nbr[u][d]
        if v < 0:
            return False
        db = self._P_dst[h] * self._p
        dist = self._dist
        if self._P_mode[h] == _ADAPTIVE:
            dv = dist[db + v]
            du = dist[db + u]
            if 0 <= dv < du:
                return True
        nh = self._nh_down if self._P_down[h] else self._nh_up
        return nh[db + u] == d

    def _launch(self, u: int, d: int, v: int, h: int, vc: int) -> None:
        self._tokens[(v * self._ndirs + (d ^ 1)) * self._nvcs + vc] -= 1
        self._P_vc[h] = vc
        self._P_hops[h] += 1
        st = self.stats
        st.total_hops += 1
        li = u * self._ndirs + d
        service = self._svc_f[self._P_wire[h]] * self._degrade[li]
        done = self._now + service * TICK_SCALE
        self._link_busy[li] = done
        self._busy_cycles[li] += service
        self._link_packets[li] += 1
        self._post_ev(done, self._link_evs[li])
        # Track the up*/down* phase: once a packet descends on the escape
        # VC it may never climb again while it stays there; any adaptive
        # hop resets the phase (a fresh escape episode starts clean).
        if vc == self._bubble:
            if self._order[v] > self._order[u]:
                self._P_down[h] = True
        else:
            self._P_down[h] = False
        # A hop that is not minimal on the pristine torus is a reroute
        # forced by the fault plan.
        dst = self._P_dst[h]
        disp = self._disp(u, dst, d >> 1, self._P_half[h])
        if disp == 0 or (disp > 0) != ((d & 1) == 0):
            st.rerouted_hops += 1
        if self._has_loss:
            p_loss = self._loss[li]
            if p_loss > 0.0 and (
                loss_draw(self._loss_salt, self._P_pid[h], self._P_hops[h], li)
                < p_loss
            ):
                # Dropped on the wire: the transmission still occupies the
                # link, and the reserved downstream slot frees when the
                # tail would have passed.  No arrival is ever posted; the
                # sender's retransmission timer recovers the payload.
                st.lost_packets += 1
                self._post_ev(
                    done,
                    self._tok_evs[
                        (v * self._ndirs + (d ^ 1)) * self._nvcs + vc
                    ],
                )
                self._pool.free.append(h)
                return
        arrive = (done if dst == v else self._now) + self._hop_t
        self._post_ev(arrive, (_EV_ARRIVE, v, (d ^ 1) * self._nvcs + vc, h))

    # ------------------------------------------------------------------ #
    # reliability layer
    # ------------------------------------------------------------------ #

    def _cpu_complete(self, u: int) -> None:
        op = self._cpu_pending[u]
        self._cpu_pending[u] = None
        assert op is not None, "CPU completion with no pending op"
        if op[0] == "recv":
            h: int = op[1]
            self._recv_free[u] += 1
            self._finish_delivery(u, h)
            self._deliver_local_heads(u)
        else:  # inject
            spec: PacketSpec = op[1]
            fifo: int = op[2]
            h = self._pool.alloc(next(self._pid), u, spec, self._now)
            self.stats.injected_packets += 1
            self.stats.injected_wire_bytes += spec.wire_bytes
            if spec.dst == u:
                # Local (self) message: bypasses the network entirely.
                self._fifo_free[u * self._nfifos + fifo] += 1
                self._finish_delivery(u, h)
            else:
                if spec.dst in self._dead_set:
                    raise SimulationError(
                        f"node {u} injected a packet for dead node "
                        f"{spec.dst}; strategies must be built with the "
                        f"fault plan"
                    )
                if self._has_loss and spec.seq < 0:
                    # First transmission of a logical packet: assign its
                    # sequence number, remember the spec for retransmission
                    # and arm the timeout.  A retransmitted spec arrives
                    # here with seq >= 0 and is passed through untouched —
                    # its timer chain is driven by _on_retx.
                    seq = next(self._seqno)
                    self._P_seq[h] = seq
                    self._outstanding[seq] = (
                        u, replace(spec, seq=seq, new_message=False)
                    )
                    self._post_ev(
                        self._now
                        + self.faults.retx_timeout_cycles * TICK_SCALE,
                        (_EV_RETX, u, 1, seq),
                    )
                if self._q_append(u, self._nvp + fifo, h):
                    self._advance_fifo_head(u, fifo)
        self._cpu_start_next(u)

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

    def _on_retx(self, attempt: int, seq: int) -> None:
        ent = self._outstanding.get(seq)
        if ent is None:
            return  # delivered in the meantime; the timer chain ends
        if attempt > self.faults.max_retx:
            raise SimulationError(
                f"packet seq={seq} undelivered after "
                f"{self.faults.max_retx} retransmissions — the fault plan "
                f"or routing table is inconsistent"
            )
        src, spec = ent
        st = self.stats
        st.retransmitted_packets += 1
        fp = self._fwd_pending[src]
        fp.append(spec)
        if len(fp) > st.peak_forward_backlog:
            st.peak_forward_backlog = len(fp)
        self._cpu_maybe_start(src)
        backoff = self.faults.retx_backoff ** min(attempt, 10)
        self._post_ev(
            self._now
            + self.faults.retx_timeout_cycles * backoff * TICK_SCALE,
            (_EV_RETX, src, attempt + 1, seq),
        )

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, program: NodeProgram) -> SimulationResult:
        # A dead node's CPU never runs.  A plan that asks it to inject is
        # a strategy bug — surface it before the first event.
        for u in sorted(self._dead_set):
            if next(iter(program.injection_plan(u)), None) is not None:
                raise SimulationError(
                    f"program injects from dead node {u}; strategies "
                    f"must be built with the fault plan"
                )
        # The overrides above route the base run() through its generic
        # dispatch loop, which also serves the RETX and OUTAGE kinds.
        return super().run(program)


@functools.lru_cache(maxsize=None)
def _network_class(base: type, observed: bool, checked: bool) -> type:
    """The network class for one fault × obs × check combination.

    The single statement of the layer order: invariant oracles over
    observation hooks over *base* (:class:`TorusNetwork` or
    :class:`FaultyTorusNetwork`), each layer reaching the next through
    ``super()``.  Built once per combination, named after the layers
    (``CheckedInstrumentedFaultyTorusNetwork``, ...).  The mixins are
    imported here, not at module top: both modules import this one.
    """
    cls = base
    if observed:
        from repro.net.instrumented import _OBS_SLOTS, _InstrumentedMixin

        cls = type(
            "Instrumented" + cls.__name__,
            (_InstrumentedMixin, cls),
            {"__slots__": _OBS_SLOTS},
        )
    if checked:
        from repro.check.oracle import _CHK_SLOTS, _CheckedMixin

        cls = type(
            "Checked" + cls.__name__,
            (_CheckedMixin, cls),
            {"__slots__": _CHK_SLOTS},
        )
    return cls


def build_network(
    shape: TorusShape,
    params: Optional[MachineParams] = None,
    config: Optional[NetworkConfig] = None,
    faults: Optional[FaultPlan] = None,
    obs: Optional["ObsConfig"] = None,
    check: Optional["CheckConfig"] = None,
) -> TorusNetwork:
    """Instantiate the right network for *faults*, *obs* and *check*.

    The zero-fault path (no plan, or an empty plan) builds on the plain
    :class:`TorusNetwork` — identical code, identical results, no fault
    branches in the hot loop.  Likewise observability: only an
    :class:`~repro.obs.config.ObsConfig` with something enabled layers
    the observation hooks on, and only a
    :class:`~repro.check.config.CheckConfig` with at least one oracle on
    layers the invariant oracles on; with both off the result is exactly
    :class:`TorusNetwork` or :class:`FaultyTorusNetwork`.
    """
    no_faults = faults is None or faults.is_empty
    observed = obs is not None and obs.enabled
    checked = check is not None and check.enabled
    cls = _network_class(
        TorusNetwork if no_faults else FaultyTorusNetwork, observed, checked
    )
    net = (
        cls(shape, params, config)
        if no_faults
        else cls(shape, params, config, faults)
    )
    if observed:
        net._init_obs(obs)
    if checked:
        net._init_check(check)
    return net
