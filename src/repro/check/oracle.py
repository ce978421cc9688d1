"""Runtime invariant oracles layered over the torus network.

The zero-overhead-when-disabled contract is held structurally, exactly as
the fault layer (:mod:`repro.net.faultsim`) and the observability layer
(:mod:`repro.net.instrumented`) hold it: the plain network classes contain
**no** checking code and no ``if enabled`` branches.  When a
:class:`~repro.check.config.CheckConfig` asks for verification,
:func:`repro.net.faultsim.build_network` layers :class:`_CheckedMixin`
over the network class it would otherwise build (outermost, so the
oracles see the state after every other layer ran).

Every override calls ``super()`` *first* and then only **reads** state, so
a checked run makes exactly the decisions — and produces exactly the
``time_cycles`` and event counts — of an unchecked one; the only possible
behavioral difference is an :class:`InvariantError` raised at the moment a
violation is observed.  ``tests/check`` pins this bit-identity.

The oracles (see :class:`~repro.check.config.CheckConfig` for the
switches):

* **credits** — per launch: the just-decremented downstream credit count
  must be non-negative, and the packet's hop count must stay below the
  routability bound (minimal paths never exceed the shape's diameter;
  fault reroutes and escape detours get slack, but unbounded growth means
  a routing loop).
* **exactly_once** — an independent ledger of consumed sequence numbers:
  if the reliability layer's dedup is broken and a retransmitted twin is
  consumed a second time, the oracle raises at that delivery.
* **phases** — per-strategy geometry at delivery, sniffed from the node
  program (``linear_axis`` for TPS-family programs, ``map`` for VMesh):
  TPS phase-1 packets must land on the final destination's linear line
  (fault-free: having moved *only* along the linear axis), TPS phase-2
  packets must be final and must never have crossed linear lines, VMesh
  phase-1/phase-2 packets must stay inside the sender's virtual-mesh row/
  column, and direct packets must never be consumed away from their final
  destination.
* **progress** — every ``audit_interval`` deliveries (and at the end), the
  per-node queued-packet counters must match the actual queue contents
  (a non-empty queue behind a zero counter is never arbitrated again — a
  silent stall), and every token/slot count must lie within capacity.
* **conservation** — at result assembly: all credits and FIFO/reception
  slots returned, queues empty, ``injected == delivered + duplicates +
  lost``, ``final + forwarded == delivered``, and total link-busy time
  equal to the service time of the observed launches.
"""

from __future__ import annotations

from typing import Optional

from repro.net.errors import SimulationError
from repro.net.packet import PacketSpec
from repro.net.simulator import TICK_UNSCALE
from repro.net.trace import SimulationResult
from repro.check.config import CheckConfig
from repro.strategies.data import (
    PHASE_DIRECT,
    PHASE_TPS1,
    PHASE_TPS2,
    PHASE_VMESH1,
    PHASE_VMESH2,
    kind_of_tag,
)


class InvariantError(SimulationError):
    """A runtime invariant oracle observed a violation.

    ``oracle`` names the failed oracle and ``context`` carries the state
    that witnessed it (cycle, node, packet) — enough to understand the
    failure without re-running."""

    def __init__(self, oracle: str, message: str, **context: object) -> None:
        self.oracle = oracle
        self.context = context
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(
            f"invariant violated [{oracle}]: {message}"
            + (f" ({detail})" if detail else "")
        )


#: Slots of every checked class (see ``faultsim._network_class``).
_CHK_SLOTS = (
    "check",
    "_chk_seen_seqs",
    "_chk_busy_total",
    "_chk_deliveries",
    "_chk_max_hops",
    "_chk_bound",
    "_chk_axis",
    "_chk_strict_tps",
    "_chk_vmap",
)


class _CheckedMixin:
    """Invariant oracles layered over a network class via ``super()``."""

    __slots__ = ()

    # -------------------------------------------------------------- #
    # setup
    # -------------------------------------------------------------- #

    def _init_check(self, check: CheckConfig) -> None:
        self.check = check
        #: Sequence numbers already consumed (independent of the network's
        #: own dedup set — that is the mechanism under test).
        self._chk_seen_seqs: set[int] = set()
        self._chk_busy_total = 0.0
        self._chk_deliveries = 0
        # Routability bound: a minimal path never exceeds the diameter
        # (sum of per-axis half-extents); up*/down* escape detours and
        # fault reroutes are bounded by the surviving graph's size, so
        # 4 * (sum of extents) + 16 is generous slack for any legal path
        # while still catching unbounded ping-pong.
        self._chk_max_hops = 4 * sum(self.shape.dims) + 16
        self._chk_bound = False
        self._chk_axis: Optional[int] = None
        self._chk_strict_tps = False
        self._chk_vmap = None

    def _chk_bind_program(self) -> None:
        """Sniff the node program (once, at first delivery) for the
        strategy geometry the phase oracles need."""
        self._chk_bound = True
        prog = self._program
        axis = getattr(prog, "linear_axis", None)
        if isinstance(axis, int) and 0 <= axis < self._ndim:
            self._chk_axis = axis
            # Fault-free TPS picks the intermediate on the source's own
            # line; with dead nodes the re-pick may sit anywhere on the
            # destination's line, so only the line-membership half of the
            # invariant survives.
            self._chk_strict_tps = not getattr(prog, "dead_nodes", frozenset())
        vmap = getattr(prog, "map", None)
        if vmap is not None and hasattr(vmap, "row_col"):
            self._chk_vmap = vmap

    # -------------------------------------------------------------- #
    # lifecycle hooks (super() first, then read-only verification)
    # -------------------------------------------------------------- #

    def _launch(self, u: int, d: int, v: int, h: int, vc: int) -> None:
        now = self._now
        busy_before = self._link_busy[u * self._ndirs + d]
        pid = self._P_pid[h]
        super()._launch(u, d, v, h, vc)
        # Tick deltas unscale to exactly the float cycle deltas the
        # pre-SoA oracle accumulated (power-of-two scaling is exact).
        self._chk_busy_total += (
            self._link_busy[u * self._ndirs + d] - now
        ) * TICK_UNSCALE
        if not self.check.credits:
            return
        tok = self._tokens[(v * self._ndirs + (d ^ 1)) * self._nvcs + vc]
        if tok < 0:
            raise InvariantError(
                "credits",
                "downstream credit went negative at launch",
                cycle=now * TICK_UNSCALE, node=u, direction=d, vc=vc,
                tokens=tok, pid=pid,
            )
        if busy_before > now:
            raise InvariantError(
                "credits",
                "launch on a busy link",
                cycle=now * TICK_UNSCALE, node=u, direction=d,
                busy_until=busy_before * TICK_UNSCALE, pid=pid,
            )
        hops = self._P_hops[h]
        if hops > self._chk_max_hops:
            raise InvariantError(
                "credits",
                f"packet exceeded the {self._chk_max_hops}-hop "
                f"routability bound (routing loop?)",
                cycle=now * TICK_UNSCALE, pid=pid, src=self._P_src[h],
                dst=self._P_dst[h], hops=hops,
            )

    def _begin_injection(
        self, u: int, spec: PacketSpec, fifo: int, src: int
    ) -> None:
        super()._begin_injection(u, spec, fifo, src)
        if self.check.credits:
            free = self._fifo_free[u * self._nfifos + fifo]
            if free < 0:
                raise InvariantError(
                    "credits",
                    "injection FIFO slot count went negative",
                    cycle=self._now * TICK_UNSCALE, node=u, fifo=fifo,
                    free=free,
                )

    def _on_arrive(self, v: int, port: int, h: int) -> None:
        super()._on_arrive(v, port, h)
        if not self.check.credits:
            return
        if self._recv_free[v] < 0:
            raise InvariantError(
                "credits",
                "reception slot count went negative",
                cycle=self._now * TICK_UNSCALE, node=v,
                free=self._recv_free[v],
            )
        depth = self._q_n[v * self._nports + port]
        if depth > self._vc_depth:
            raise InvariantError(
                "credits",
                f"VC buffer overfilled beyond its {self._vc_depth}-packet "
                f"depth (credit protocol broken)",
                cycle=self._now * TICK_UNSCALE, node=v,
                in_dir=self._port_dir[port], vc=self._port_vc[port],
                depth=depth,
            )

    def _finish_delivery(self, u: int, h: int) -> None:
        st = self.stats
        delivered0 = st.delivered_packets
        # Snapshot the pool columns up front: the base class returns the
        # handle to the free list once the delivery is consumed.
        seq = self._P_seq[h]
        pid = self._P_pid[h]
        src = self._P_src[h]
        final_dst = self._P_final[h]
        kind = kind_of_tag(self._P_tag[h])
        super()._finish_delivery(u, h)
        if st.delivered_packets == delivered0:
            return  # receiver-side duplicate discard (fault runs)
        chk = self.check
        if chk.exactly_once and seq >= 0:
            if seq in self._chk_seen_seqs:
                raise InvariantError(
                    "exactly_once",
                    "sequenced packet consumed twice (dedup broken)",
                    cycle=self._now * TICK_UNSCALE, node=u, seq=seq,
                    pid=pid, src=src,
                )
            self._chk_seen_seqs.add(seq)
        if chk.phases:
            if not self._chk_bound:
                self._chk_bind_program()
            self._chk_phase(u, kind, src, final_dst, pid)
        if chk.progress:
            self._chk_deliveries += 1
            if self._chk_deliveries % chk.audit_interval == 0:
                self._chk_audit()

    # -------------------------------------------------------------- #
    # oracles
    # -------------------------------------------------------------- #

    def _chk_phase(
        self, u: int, kind: Optional[str], src: int, final_dst: int, pid: int
    ) -> None:
        """Per-strategy phase/geometry invariants at consumption."""
        if kind is None:
            return
        now_f = self._now * TICK_UNSCALE
        if kind == PHASE_DIRECT:
            if u != final_dst:
                raise InvariantError(
                    "phases",
                    "direct packet consumed away from its destination",
                    cycle=now_f, node=u, final_dst=final_dst, pid=pid,
                )
            return
        axis = self._chk_axis
        if kind == PHASE_TPS1 and axis is not None:
            coord = self._coord[axis]
            if coord[u] != coord[final_dst]:
                raise InvariantError(
                    "phases",
                    "TPS phase-1 packet landed off the destination's "
                    "linear line",
                    cycle=now_f, node=u, src=src,
                    final_dst=final_dst, axis=axis, pid=pid,
                )
            if self._chk_strict_tps:
                for a in range(self._ndim):
                    if a == axis:
                        continue
                    if self._coord[a][u] != self._coord[a][src]:
                        raise InvariantError(
                            "phases",
                            "TPS phase-1 packet left its source's plane "
                            "before the linear phase completed",
                            cycle=now_f, node=u, src=src,
                            axis=a, pid=pid,
                        )
        elif kind == PHASE_TPS2 and axis is not None:
            if u != final_dst:
                raise InvariantError(
                    "phases",
                    "TPS phase-2 packet consumed away from its "
                    "destination",
                    cycle=now_f, node=u, final_dst=final_dst, pid=pid,
                )
            coord = self._coord[axis]
            if coord[src] != coord[u]:
                raise InvariantError(
                    "phases",
                    "TPS phase-2 packet crossed linear lines (planar "
                    "phase must be linear-free)",
                    cycle=now_f, node=u, src=src, axis=axis, pid=pid,
                )
        elif kind == PHASE_VMESH1 and self._chk_vmap is not None:
            row_u, _ = self._chk_vmap.row_col(u)
            row_s, _ = self._chk_vmap.row_col(src)
            if row_u != row_s or u != final_dst:
                raise InvariantError(
                    "phases",
                    "VMesh phase-1 packet left its sender's row",
                    cycle=now_f, node=u, src=src, pid=pid,
                )
        elif kind == PHASE_VMESH2 and self._chk_vmap is not None:
            _, col_u = self._chk_vmap.row_col(u)
            _, col_s = self._chk_vmap.row_col(src)
            if col_u != col_s or u != final_dst:
                raise InvariantError(
                    "phases",
                    "VMesh phase-2 packet left its sender's column",
                    cycle=now_f, node=u, src=src, pid=pid,
                )

    def _chk_audit(self) -> None:
        """No-stuck-queue / bounded-resource audit over the whole state."""
        now_f = self._now * TICK_UNSCALE
        vc_depth = self._vc_depth
        for i, t in enumerate(self._tokens):
            if t < 0 or t > vc_depth:
                raise InvariantError(
                    "progress",
                    f"credit count out of [0, {vc_depth}]",
                    cycle=now_f, index=i, tokens=t,
                )
        cap = self.config.injection_fifo_depth
        for i, f in enumerate(self._fifo_free):
            if f < 0 or f > cap:
                raise InvariantError(
                    "progress",
                    f"injection FIFO free count out of [0, {cap}]",
                    cycle=now_f, index=i, free=f,
                )
        rcap = self.config.reception_fifo_depth
        for u, r in enumerate(self._recv_free):
            if r < 0 or r > rcap:
                raise InvariantError(
                    "progress",
                    f"reception free count out of [0, {rcap}]",
                    cycle=now_f, node=u, free=r,
                )
        nports = self._nports
        q_n = self._q_n
        for u in range(self._p):
            base = u * nports
            actual = sum(q_n[base : base + nports])
            if self._queued[u] != actual:
                raise InvariantError(
                    "progress",
                    "queued-packet counter diverged from queue contents "
                    "(stuck queue: arbitration will skip this node)",
                    cycle=now_f, node=u, counter=self._queued[u],
                    actual=actual,
                )

    def _chk_conservation(self) -> None:
        """End-of-run accounting: nothing leaked, everything returned."""
        now_f = self._now * TICK_UNSCALE
        vc_depth = self._vc_depth
        leaked = sum(1 for t in self._tokens if t != vc_depth)
        if leaked:
            raise InvariantError(
                "conservation",
                f"{leaked} VC credit(s) not returned to depth {vc_depth}",
                cycle=now_f,
            )
        cap = self.config.injection_fifo_depth
        if any(f != cap for f in self._fifo_free):
            raise InvariantError(
                "conservation",
                "injection FIFO slots not all returned",
                cycle=now_f,
            )
        rcap = self.config.reception_fifo_depth
        if any(r != rcap for r in self._recv_free):
            raise InvariantError(
                "conservation",
                "reception slots not all returned",
                cycle=now_f,
            )
        st = self.stats
        accounted = st.delivered_packets + st.duplicate_packets + st.lost_packets
        if st.injected_packets != accounted:
            raise InvariantError(
                "conservation",
                "packet conservation broken: injected != delivered + "
                "duplicates + lost",
                injected=st.injected_packets,
                delivered=st.delivered_packets,
                duplicates=st.duplicate_packets,
                lost=st.lost_packets,
            )
        if st.final_deliveries + st.forwarded_packets != st.delivered_packets:
            raise InvariantError(
                "conservation",
                "delivery split broken: final + forwarded != delivered",
                final=st.final_deliveries,
                forwarded=st.forwarded_packets,
                delivered=st.delivered_packets,
            )
        total_busy = sum(self._busy_cycles)
        if abs(total_busy - self._chk_busy_total) > 1e-6 * max(
            1.0, total_busy
        ):
            raise InvariantError(
                "conservation",
                "link-busy accounting diverged from observed launches",
                busy_cycles=total_busy,
                observed=self._chk_busy_total,
            )

    # -------------------------------------------------------------- #
    # result assembly
    # -------------------------------------------------------------- #

    def _result(self) -> SimulationResult:
        chk = self.check
        if chk.progress:
            self._chk_audit()
        if chk.conservation:
            self._chk_conservation()
        return super()._result()
