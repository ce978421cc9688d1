"""Runtime invariant oracles observing the torus network.

The zero-overhead-when-disabled contract is held structurally, exactly as
the observability layer (:mod:`repro.net.instrumented`) holds it: the
oracles are one :class:`InvariantOracles` observer
(:class:`~repro.net.simulator.SimObserver`) that
:func:`repro.net.faultsim.build_network` attaches only when a
:class:`~repro.check.config.CheckConfig` is given; the network classes
contain **no** checking code.  Attached after the instrumentation, the
oracles see the state after every other hook ran.

Every hook runs after the step it checks and only **reads** state, so a
checked run makes exactly the decisions — and produces exactly the
``time_cycles`` and event counts — of an unchecked one; the only possible
behavioral difference is an :class:`InvariantError` raised at the moment a
violation is observed.  ``tests/check`` pins this bit-identity.

The oracles, all of which every checked run enforces:

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
  TPS phase-1 packets must land on the final destination's linear line,
  at the node that shares every other coordinate with the source, TPS
  phase-2 packets must be final and must never have crossed linear
  lines, VMesh phase-1/phase-2 packets must stay inside the sender's
  virtual-mesh row/column, and direct packets must never be consumed
  away from their final destination.
* **progress** — every :data:`AUDIT_INTERVAL` deliveries (and at the end),
  the per-node queued-packet counters must match the actual queue
  contents (a non-empty queue behind a zero counter is never arbitrated
  again — a silent stall), and every token/slot count must lie within
  capacity.
* **conservation** — at result assembly: all credits and FIFO/reception
  slots returned, queues empty, ``injected == delivered + duplicates +
  lost``, ``final + forwarded == delivered``, and total link-busy time
  equal to the service time of the observed launches.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.net.errors import SimulationError
from repro.net.simulator import TICK_UNSCALE, SimObserver
from repro.net.trace import SimulationResult
from repro.strategies.data import (
    PHASE_DIRECT,
    PHASE_TPS1,
    PHASE_TPS2,
    PHASE_VMESH1,
    PHASE_VMESH2,
    kind_of_tag,
)

#: Deliveries between two progress audits: the audit is O(state), so
#: running it on every event would change the run's complexity.  Read
#: when the oracles bind to a network.
AUDIT_INTERVAL = 512


class InvariantError(SimulationError):
    """A runtime invariant oracle observed a violation.

    ``oracle`` names the failed oracle and ``context`` carries the state
    that witnessed it (cycle, node, packet) — enough to understand the
    failure without re-running."""

    def __init__(self, oracle: str, message: str, **context: object) -> None:
        self.oracle = oracle
        self.message = message
        self.context = context
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(
            f"invariant violated [{oracle}]: {message}"
            + (f" ({detail})" if detail else "")
        )

    def __reduce__(self):
        # ``args`` holds only the formatted text: rebuild from the parts,
        # so the error survives the pipe from a pooled worker.
        return (
            partial(type(self), **self.context),
            (self.oracle, self.message),
        )


class InvariantOracles(SimObserver):
    """The invariant oracles of one run, fed by the kernel's hooks."""

    def __init__(self) -> None:
        self._audit = None
        self._conserve = None

    def bind(self, net) -> dict:
        ndirs, nvcs, nports, nfifos = (
            net._ndirs, net._nvcs, net._nports, net._nfifos
        )
        ndim = net._ndim
        st = net.stats
        tokens, link_busy = net._tokens, net._link_busy
        fifo_free, recv_free = net._fifo_free, net._recv_free
        q_n, queued = net._q_n, net._queued
        P_pid, P_src, P_dst = net._P_pid, net._P_src, net._P_dst
        P_hops, P_seq, P_spec = net._P_hops, net._P_seq, net._P_spec
        coord = net._coord
        vc_depth = net._vc_depth
        fifo_cap = net.params.injection_fifo_depth
        recv_cap = net._recv_depth
        # Routability bound: a minimal path never exceeds the diameter
        # (sum of per-axis half-extents); up*/down* escape detours and
        # fault reroutes are bounded by the surviving graph's size, so
        # 4 * (sum of extents) + 16 is generous slack for any legal path
        # while still catching unbounded ping-pong.
        max_hops = 4 * sum(net.shape.dims) + 16
        # Sequence numbers already consumed (independent of the network's
        # own dedup set — that is the mechanism under test).
        seen_seqs: set[int] = set()
        busy_total = 0.0
        deliveries = 0
        audit_interval = AUDIT_INTERVAL

        # Strategy geometry for the phase oracles, sniffed from the node
        # program: ``linear_axis`` for TPS-family programs, ``map`` for
        # VMesh.
        axis: Optional[int] = None
        vmap = None
        prog = net._program
        prog_axis = getattr(prog, "linear_axis", None)
        if isinstance(prog_axis, int) and 0 <= prog_axis < ndim:
            axis = prog_axis
        prog_map = getattr(prog, "map", None)
        if prog_map is not None and hasattr(prog_map, "row_col"):
            vmap = prog_map

        def launch(u, d, v, h, vc, now, busy0, flags):
            nonlocal busy_total
            # Tick deltas unscale to exactly the float cycle deltas the
            # pre-SoA oracle accumulated (power-of-two scaling is exact).
            busy_total += (link_busy[u * ndirs + d] - now) * TICK_UNSCALE
            tok = tokens[(v * ndirs + (d ^ 1)) * nvcs + vc]
            if tok < 0:
                raise InvariantError(
                    "credits",
                    "downstream credit went negative at launch",
                    cycle=now * TICK_UNSCALE, node=u, direction=d, vc=vc,
                    tokens=tok, pid=P_pid[h],
                )
            if busy0 > now:
                raise InvariantError(
                    "credits",
                    "launch on a busy link",
                    cycle=now * TICK_UNSCALE, node=u, direction=d,
                    busy_until=busy0 * TICK_UNSCALE, pid=P_pid[h],
                )
            hops = P_hops[h]
            if hops > max_hops:
                raise InvariantError(
                    "credits",
                    f"packet exceeded the {max_hops}-hop "
                    f"routability bound (routing loop?)",
                    cycle=now * TICK_UNSCALE, pid=P_pid[h], src=P_src[h],
                    dst=P_dst[h], hops=hops,
                )

        def inject_begin(u, fifo):
            free = fifo_free[u * nfifos + fifo]
            if free < 0:
                raise InvariantError(
                    "credits",
                    "injection FIFO slot count went negative",
                    cycle=net._now * TICK_UNSCALE, node=u, fifo=fifo,
                    free=free,
                )

        def arrive(v, port, h, n0):
            if recv_free[v] < 0:
                raise InvariantError(
                    "credits",
                    "reception slot count went negative",
                    cycle=net._now * TICK_UNSCALE, node=v,
                    free=recv_free[v],
                )
            depth = q_n[v * nports + port]
            if depth > vc_depth:
                raise InvariantError(
                    "credits",
                    f"VC buffer overfilled beyond its {vc_depth}-packet "
                    f"depth (credit protocol broken)",
                    cycle=net._now * TICK_UNSCALE, node=v,
                    in_dir=net._port_dir[port], vc=net._port_vc[port],
                    depth=depth,
                )

        def deliver(u, h):
            nonlocal deliveries
            seq = P_seq[h]
            if seq >= 0:
                if seq in seen_seqs:
                    raise InvariantError(
                        "exactly_once",
                        "sequenced packet consumed twice (dedup broken)",
                        cycle=net._now * TICK_UNSCALE, node=u, seq=seq,
                        pid=P_pid[h], src=P_src[h],
                    )
                seen_seqs.add(seq)
            spec = P_spec[h]
            phase(u, kind_of_tag(spec.tag), P_src[h], spec.final_dst, P_pid[h])
            deliveries += 1
            if deliveries % audit_interval == 0:
                audit(net._now)

        def phase(u, kind, src, final_dst, pid):
            """Per-strategy phase/geometry invariants at consumption."""
            if kind is None:
                return
            now_f = net._now * TICK_UNSCALE
            if kind == PHASE_DIRECT:
                if u != final_dst:
                    raise InvariantError(
                        "phases",
                        "direct packet consumed away from its destination",
                        cycle=now_f, node=u, final_dst=final_dst, pid=pid,
                    )
                return
            if kind == PHASE_TPS1 and axis is not None:
                line = coord[axis]
                if line[u] != line[final_dst]:
                    raise InvariantError(
                        "phases",
                        "TPS phase-1 packet landed off the destination's "
                        "linear line",
                        cycle=now_f, node=u, src=src,
                        final_dst=final_dst, axis=axis, pid=pid,
                    )
                for a in range(ndim):
                    if a == axis:
                        continue
                    if coord[a][u] != coord[a][src]:
                        raise InvariantError(
                            "phases",
                            "TPS phase-1 packet left its source's plane "
                            "before the linear phase completed",
                            cycle=now_f, node=u, src=src, axis=a, pid=pid,
                        )
            elif kind == PHASE_TPS2 and axis is not None:
                if u != final_dst:
                    raise InvariantError(
                        "phases",
                        "TPS phase-2 packet consumed away from its "
                        "destination",
                        cycle=now_f, node=u, final_dst=final_dst, pid=pid,
                    )
                line = coord[axis]
                if line[src] != line[u]:
                    raise InvariantError(
                        "phases",
                        "TPS phase-2 packet crossed linear lines (planar "
                        "phase must be linear-free)",
                        cycle=now_f, node=u, src=src, axis=axis, pid=pid,
                    )
            elif kind == PHASE_VMESH1 and vmap is not None:
                row_u, _ = vmap.row_col(u)
                row_s, _ = vmap.row_col(src)
                if row_u != row_s or u != final_dst:
                    raise InvariantError(
                        "phases",
                        "VMesh phase-1 packet left its sender's row",
                        cycle=now_f, node=u, src=src, pid=pid,
                    )
            elif kind == PHASE_VMESH2 and vmap is not None:
                _, col_u = vmap.row_col(u)
                _, col_s = vmap.row_col(src)
                if col_u != col_s or u != final_dst:
                    raise InvariantError(
                        "phases",
                        "VMesh phase-2 packet left its sender's column",
                        cycle=now_f, node=u, src=src, pid=pid,
                    )

        # audit and conserve outlive the run (finish calls them), so they
        # take the clock as an argument rather than holding the network:
        # a network -> observer -> closure -> network cycle would keep a
        # finished network's tables alive until a full collection.
        p = net._p
        busy_cycles = net._busy_cycles

        def audit(now):
            """No-stuck-queue / bounded-resource audit over the whole
            state."""
            now_f = now * TICK_UNSCALE
            for i, t in enumerate(tokens):
                if t < 0 or t > vc_depth:
                    raise InvariantError(
                        "progress",
                        f"credit count out of [0, {vc_depth}]",
                        cycle=now_f, index=i, tokens=t,
                    )
            for i, f in enumerate(fifo_free):
                if f < 0 or f > fifo_cap:
                    raise InvariantError(
                        "progress",
                        f"injection FIFO free count out of [0, {fifo_cap}]",
                        cycle=now_f, index=i, free=f,
                    )
            for u, r in enumerate(recv_free):
                if r < 0 or r > recv_cap:
                    raise InvariantError(
                        "progress",
                        f"reception free count out of [0, {recv_cap}]",
                        cycle=now_f, node=u, free=r,
                    )
            for u in range(p):
                base = u * nports
                actual = sum(q_n[base : base + nports])
                if queued[u] != actual:
                    raise InvariantError(
                        "progress",
                        "queued-packet counter diverged from queue "
                        "contents (stuck queue: arbitration will skip "
                        "this node)",
                        cycle=now_f, node=u, counter=queued[u],
                        actual=actual,
                    )

        def conserve(now):
            """End-of-run accounting: nothing leaked, everything
            returned."""
            now_f = now * TICK_UNSCALE
            leaked = sum(1 for t in tokens if t != vc_depth)
            if leaked:
                raise InvariantError(
                    "conservation",
                    f"{leaked} VC credit(s) not returned to depth "
                    f"{vc_depth}",
                    cycle=now_f,
                )
            if any(f != fifo_cap for f in fifo_free):
                raise InvariantError(
                    "conservation",
                    "injection FIFO slots not all returned",
                    cycle=now_f,
                )
            if any(r != recv_cap for r in recv_free):
                raise InvariantError(
                    "conservation",
                    "reception slots not all returned",
                    cycle=now_f,
                )
            accounted = (
                st.delivered_packets + st.duplicate_packets + st.lost_packets
            )
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
            if (
                st.final_deliveries + st.forwarded_packets
                != st.delivered_packets
            ):
                raise InvariantError(
                    "conservation",
                    "delivery split broken: final + forwarded != delivered",
                    final=st.final_deliveries,
                    forwarded=st.forwarded_packets,
                    delivered=st.delivered_packets,
                )
            total_busy = sum(busy_cycles)
            if abs(total_busy - busy_total) > 1e-6 * max(1.0, total_busy):
                raise InvariantError(
                    "conservation",
                    "link-busy accounting diverged from observed launches",
                    busy_cycles=total_busy,
                    observed=busy_total,
                )

        self._audit = audit
        self._conserve = conserve
        return {
            "launch": launch,
            "deliver": deliver,
            "inject_begin": inject_begin,
            "arrive": arrive,
        }

    def finish(self, net, res: SimulationResult) -> None:
        self._audit(net._now)
        self._conserve(net._now)
