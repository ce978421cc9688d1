"""Event-driven packet-level simulator of the BG/L torus network.

Models the router micro-architecture the paper's analysis rests on
(Sections 2-4):

* input-queued routers with per-(direction, VC) buffers and token (credit)
  flow control — a sender transmits only after reserving a downstream slot;
* two *dynamic* VCs routed adaptively (JSQ: the candidate (direction, VC)
  with the most free downstream tokens wins) plus one *bubble* escape VC
  routed in dimension order, with the bubble rule (a packet newly entering
  a bubble ring needs two free slots, a continuing one needs one)
  preventing deadlock;
* per-packet routing mode: ``ADAPTIVE`` (dynamic VCs, bubble as escape) or
  ``DETERMINISTIC`` (bubble VC only, dimension order) — the AR vs DR
  distinction of Section 3;
* injection FIFOs grouped so that strategies (TPS) can reserve FIFOs per
  phase, making phase-1 packets never queue behind phase-2 packets;
* a node CPU that can keep only ~4 links busy (Section 2): injection,
  reception draining and software forwarding all share one byte-rate
  budget, served round-robin — this is what makes TPS CPU-bound on a
  512-node midplane (Table 3) while through-traffic is routed entirely in
  "hardware" (virtual cut-through) and costs the CPU nothing.

Timing is store-and-forward at packet granularity (service = bytes * beta
per link hop, plus a per-hop router latency); this approximates virtual
cut-through faithfully for throughput studies because all-to-all traffic
is deeply pipelined (the approximation is documented in DESIGN.md).

The simulation is deterministic for a given (program, seed): arbitration
uses rotating priorities, not random draws.

Implementation notes: this is the package's hottest code.  The v2 core is
struct-of-arrays end to end (DESIGN.md §13 describes the layout in full);
results are bit-identical to the straightforward object-per-packet
implementation.  The load-bearing structures:

* **Packet pool.**  Packets live as integer handles into the parallel
  columns of a :class:`repro.net.packet.PacketPool`; the pool's ``spec``
  column keeps the spec each packet was injected from, and delivery
  hands that spec and the source's rank to the node program.  A program
  that inherits :meth:`BaseProgram.on_delivery` unchanged (every direct
  strategy, :class:`~repro.net.program.ListProgram`) gets that hook's
  final-destination check inline instead of a call.  No per-hop or
  per-delivery allocation, no attribute dictionaries.

* **Integer timebase.**  All event times are cycle values scaled by
  ``TICK_SCALE`` = 2**64.  Scaling by a power of two is exact and commutes
  with IEEE-754 rounding, so arithmetic on scaled "ticks" is an exact
  isomorphism of the unscaled arithmetic — and every physically meaningful
  duration (>= 2**-11 cycles) scales to an *integer-valued* double.
  Unscaling by ``TICK_UNSCALE`` at the result boundary reproduces the
  historical floats bit for bit.

* **Calendar-queue scheduler, one list per tick.**  Events at the same
  tick share a bucket (``dict`` keyed by tick); a heap orders only the
  *distinct* pending ticks.  When time advances, the tick's bucket
  becomes the current list, which the kernel iterates with a plain
  ``for`` loop while handlers append same-tick events to its tail.  That
  reproduces the global (time, seq) order of a plain heap without
  storing sequence numbers at all (events posted while processing tick T
  land either at the tail of T's list or in strictly later buckets), and
  costs no per-event pop, counter or limit test: the event count grows
  by each list's length, the cycle budget is checked as time advances
  and the event budget as a tick ends (and on the zero-delay posting
  path, the one way a tick can grow without bound).

* **Interned events.**  Five of the six event kinds are per-entity
  constants — ``(kind, a, b, c)`` tuples built once at construction —
  so posting them allocates nothing.  LINK_FREE carries its node and
  link index, TOKEN its credit counter and upstream node and link (-1
  at a mesh edge), so neither handler re-derives a link from the
  neighbor table.  Only ARRIVE carries a per-flight payload
  (destination, input port, packet handle).

* **Flat ring buffers + port bitmask.**  VC queues and injection FIFOs
  are fixed-stride rings over one flat list; reception FIFOs over
  another.  A per-node bitmask of non-empty ports lets arbitration
  rotate over waiting ports only, via low-bit extraction.  As on the
  BG/L router, a header reaching an empty VC buffer (bound elsewhere)
  or a packet injected into an empty FIFO tries its links first; only
  one that cannot launch touches a ring.

* **Route state rides the packet.**  At injection the kernel stores a
  packet's remaining wrap-aware displacement, tie bits from its
  ``halfbits`` included, as one mixed-radix index in the pool's ``route``
  column; each launch adds a per-direction step.  Routing and arbitration
  read the productive directions, the dimension-order direction and the
  direction bitmask from three per-shape tables over that index
  (:mod:`repro.net.displacement`) instead of re-deriving the displacement
  per axis at every hop and every arbitration probe.  Fault runs route on
  their BFS tables and never touch the column.

* **One run kernel.**  Every network, pristine or faulty, runs through
  :meth:`TorusNetwork._run_fused`, whose handlers are closures over
  hoisted state; a fault plan swaps in a second set of routing closures
  (see :mod:`repro.net.faultsim`).  Observation and checking attach as
  :class:`SimObserver` s whose hooks the kernel calls after each step;
  no layer subclasses or overrides the network.

``tests/net`` pins the semantics; the pristine, fault and observed-payload
goldens, the golden trace and the differential harness pin bit-identity.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from dataclasses import replace
from heapq import heappop, heappush
from typing import Iterator, Optional

import numpy as np

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.displacement import displacement_tables, route_tables
from repro.net.errors import (
    DeadlockError,
    SimulationError,
    SimulationLimitError,
)
from repro.net.faults import MAX_RETX, RETX_BACKOFF, loss_draw
from repro.net.packet import PacketPool, PacketSpec, RoutingMode
from repro.net.program import BaseProgram, NodeProgram
from repro.net.topology import Topology
from repro.net.trace import SimStats, SimulationResult

# --------------------------------------------------------------------- #
# integer timebase
# --------------------------------------------------------------------- #
#
# Event times are cycles scaled by 2**64.  Multiplying a double by a
# power of two is exact (only the exponent changes), and IEEE-754
# rounding commutes with it: fl(a*S + b*S) == fl(a + b) * S.  So the
# scheduler runs on integer-valued "tick" doubles while every derived
# statistic, unscaled at the boundary, is bit-identical to the unscaled
# computation.  Any duration of at least 2**-11 cycles (all physical
# costs are >= 1 cycle) scales to an exact integer.

#: Ticks per cycle (2.0 ** 64).
TICK_SCALE = 18446744073709551616.0
#: Cycles per tick (2.0 ** -64); multiplication by this is exact.
TICK_UNSCALE = 2.0 ** -64

# Event kinds (dispatch on small ints for speed).
_EV_LINK_FREE = 0
_EV_ARRIVE = 1
_EV_TOKEN = 2
_EV_CPU_DONE = 3
_EV_CPU_WAKE = 4
_EV_FIFO_FREE = 5
# The extra kind only lossy fault runs post (kept here so every event
# kind has one home).
_EV_RETX = 6

# CPU work sources, round-robined.
_SRC_RECV = 0
_SRC_FORWARD = 1
_SRC_PLAN = 2

_ADAPTIVE = int(RoutingMode.ADAPTIVE)

# Router sizes that MachineParams does not carry: one value each, BG/L's
# or a safety cap.  Tests that need another value monkeypatch them before
# they build the network.

#: Reception FIFO depth, in packets.  A full FIFO backpressures the
#: network, modelling the slow-CPU effect of Section 2.
RECEPTION_FIFO_DEPTH = 16
#: Free downstream slots a packet needs to *enter* a bubble ring
#: (continuing packets need 1): the canonical bubble rule.
BUBBLE_ENTRY_TOKENS = 2
#: Hard cap on simulated cycles (safety).
MAX_CYCLES = 5.0e9
#: Hard cap on processed events (safety).
MAX_EVENTS = 500_000_000

#: ``flags`` bits of the ``launch`` hook: the hop left the pristine
#: torus's minimal paths (a fault reroute) / the packet died on the wire.
LAUNCH_REROUTED = 1
LAUNCH_DROPPED = 2

#: The hook names a :class:`SimObserver` may bind.
HOOKS = frozenset(
    ("launch", "stall", "arrive", "inject_begin", "inject", "deliver", "retx")
)


class SimObserver:
    """A read-only observer of one run: tracing, metrics, oracles.

    :meth:`bind` is called once as :meth:`TorusNetwork.run` starts and
    returns ``{hook name: closure}``.  The run kernel calls each closure
    right after the step it names — after that step's nested launches and
    CPU starts too — so an observer sees the state every decision left
    behind and cannot change one; observing a run never changes its
    results.  Ticks are 2**64-scaled cycles, and ``net._now`` is always
    the current one.  The hooks:

    * ``launch(u, d, v, h, vc, now, busy0, flags)``: handle *h* left *u*
      on (d, vc) toward *v*; *busy0* is the link's busy horizon before,
      *flags* holds :data:`LAUNCH_REROUTED` / :data:`LAUNCH_DROPPED`.
    * ``stall(u, d)``: arbitration on the idle link (u, d) launched
      nothing.
    * ``arrive(v, port, h, n0)``: *h* arrived at *v* on *port*, whose
      queue held *n0* packets before.
    * ``inject_begin(u, fifo)``: *u*'s CPU reserved a slot of *fifo*.
    * ``inject(u)``: *u*'s CPU finished an injection.
    * ``deliver(u, h)``: *u* consumed *h* (duplicate discards excluded;
      the handle's pool columns stay readable until the next injection).
    * ``retx(src, seq, attempt)``: *src* queued a retransmission.

    :meth:`finish` sees the assembled result, after the run.
    """

    def bind(self, net: "TorusNetwork") -> dict:
        return {}

    def finish(self, net: "TorusNetwork", result: SimulationResult) -> None:
        pass


class TorusNetwork:
    """One simulated BG/L partition.

    Construct once per run; :meth:`run` executes a node program to
    quiescence and returns a :class:`SimulationResult`.
    """

    __slots__ = (
        "shape", "params", "topo", "stats",
        "_p", "_ndim", "_ndirs", "_nvcs", "_ndyn", "_bubble", "_nfifos",
        "_vc_depth", "_recv_depth",
        "_nbr", "_coord", "_colm", "_dtab", "_route",
        "_link_busy", "_tokens", "_fifo_free", "_recv_free",
        "_q_buf", "_q_hd", "_q_n", "_q_shift", "_q_mask",
        "_rp_buf", "_rp_hd", "_rp_n", "_rp_shift", "_rp_mask",
        "_cpu_active", "_cpu_rr", "_cpu_pending", "_cpu_slot",
        "_fwd_pending", "_plan_next", "_plan_iter", "_plan_last_start",
        "_pace", "_fifo_rr", "_ngroups",
        "_arb", "_nports", "_nvp", "_queued", "_pmask",
        "_port_dir", "_port_vc", "_port_axis", "_pbit", "_nbit", "_pm_vc",
        "_tok_evs", "_fifo_evs", "_link_evs", "_cpu_evs", "_wake_evs",
        "_buckets", "_theap", "_now", "_pid", "_busy_cycles",
        "_link_packets", "_program", "_num_links",
        "_pool", "_P_pid", "_P_src", "_P_dst", "_P_wire", "_P_mode",
        "_P_spec", "_P_inject", "_P_hops", "_P_vc", "_P_half",
        "_P_seq", "_P_down", "_P_route", "_plain_delivery",
        "_beta", "_hop_latency", "_cpu_fixed", "_cpu_incr", "_alpha",
        "_svc_f", "_svc_t", "_cpu_f", "_cpu_t", "_tbl_len",
        "_hop_t", "_observers",
    )

    #: Whether the network routes around a fault plan.  The run kernel
    #: reads it once per run to pick its routing closures; only
    #: :class:`~repro.net.faultsim.FaultyTorusNetwork` sets it.
    _FAULTY = False

    def __init__(
        self,
        shape: TorusShape,
        params: Optional[MachineParams] = None,
    ) -> None:
        self.shape = shape
        self.params = prm = params or MachineParams.bluegene_l()
        self.topo = Topology(shape)

        p = shape.nnodes
        self._p = p
        self._ndim = shape.ndim
        self._ndirs = self.topo.ndirs
        # The dynamic VCs, then the one bubble VC.  The BG/L high-priority
        # VC is not simulated: application all-to-all never uses it.
        self._nvcs = prm.num_dynamic_vcs + prm.num_bubble_vcs
        self._ndyn = prm.num_dynamic_vcs
        self._bubble = prm.num_dynamic_vcs
        self._nfifos = prm.num_injection_fifos
        self._vc_depth = prm.vc_depth_packets
        self._recv_depth = RECEPTION_FIFO_DEPTH

        # --- topology tables as plain Python lists (hot path) ------------
        self._nbr: list[list[int]] = self.topo.neighbor.tolist()
        # _coord[axis][node]
        self._coord: list[list[int]] = [
            self.topo.coords[:, a].tolist() for a in range(self._ndim)
        ]
        # Displacement and route-state tables (shared per shape, see
        # repro.net.displacement) and row-premultiplied coordinates, so an
        # axis' displacement is two list indexings and an add.
        self._dtab = displacement_tables(shape).disp
        self._route = route_tables(shape)
        self._colm: list[list[int]] = [
            [c * shape.dims[a] for c in self._coord[a]]
            for a in range(self._ndim)
        ]

        # --- network state ------------------------------------------------
        ndirs, nvcs = self._ndirs, self._nvcs
        self._link_busy: list[float] = [0.0] * (p * ndirs)
        self._tokens: list[int] = [self._vc_depth] * (p * ndirs * nvcs)
        self._fifo_free: list[int] = [prm.injection_fifo_depth] * (
            p * self._nfifos
        )
        self._recv_free: list[int] = [self._recv_depth] * p

        # --- ports and ring buffers ---------------------------------------
        # Port order per node: (in_dir, vc) pairs first, then injection
        # FIFO indices.  All per-port queues of all nodes share ONE flat
        # ring-buffer array with a fixed power-of-two stride; a queue is
        # (head index, length) into its stride-aligned window.  Occupancy
        # is bounded by credits (vc_depth / injection_fifo_depth), so a
        # ring can never overflow its window on a correct run.
        nvp = ndirs * nvcs
        self._nvp = nvp
        nports = nvp + self._nfifos
        self._nports = nports
        self._port_dir: list[int] = [pt // nvcs for pt in range(nvp)] + [
            -1
        ] * self._nfifos
        self._port_vc: list[int] = [pt % nvcs for pt in range(nvp)] + [
            -1
        ] * self._nfifos
        self._port_axis: list[int] = [
            (pt // nvcs) >> 1 for pt in range(nvp)
        ] + [-1] * self._nfifos
        self._pbit: list[int] = [1 << pt for pt in range(nports)]
        self._nbit: list[int] = [~(1 << pt) for pt in range(nports)]
        self._pm_vc = (1 << nvp) - 1
        depth = max(self._vc_depth, prm.injection_fifo_depth)
        self._q_shift = qsh = (depth - 1).bit_length()
        self._q_mask = (1 << qsh) - 1
        self._q_buf: list[int] = [0] * ((p * nports) << qsh)
        self._q_hd: list[int] = [0] * (p * nports)
        self._q_n: list[int] = [0] * (p * nports)
        # Reception FIFO ring (packets accepted, waiting for CPU drain).
        self._rp_shift = rsh = (self._recv_depth - 1).bit_length()
        self._rp_mask = (1 << rsh) - 1
        self._rp_buf: list[int] = [0] * (p << rsh)
        self._rp_hd: list[int] = [0] * p
        self._rp_n: list[int] = [0] * p

        # --- CPU state ----------------------------------------------------
        self._cpu_active: list[bool] = [False] * p
        self._cpu_rr: list[int] = [0] * p
        # The op a busy CPU is running: an injection's spec, or None for
        # a reception; _cpu_slot holds the injection's reserved FIFO or
        # the received handle.
        self._cpu_pending: list[Optional[PacketSpec]] = [None] * p
        self._cpu_slot: list[int] = [0] * p
        self._fwd_pending: list[deque[PacketSpec]] = [deque() for _ in range(p)]
        self._plan_next: list[Optional[PacketSpec]] = [None] * p
        self._plan_iter: list[Optional[Iterator[PacketSpec]]] = [None] * p
        self._plan_last_start: list[float] = [float("-inf")] * p
        self._pace: list[float] = [0.0] * p
        self._fifo_rr: list[int] = [0] * p
        self._ngroups = 1

        # --- arbitration rotation per (node, direction) link --------------
        self._arb: list[int] = [0] * (p * ndirs)
        # Packets sitting in any VC queue or injection FIFO of a node
        # (audited by the progress oracle against the ring lengths).
        self._queued: list[int] = [0] * p
        # Bit pt of _pmask[u] set iff port pt of node u is non-empty;
        # arbitration rotates over set bits only.
        self._pmask: list[int] = [0] * p

        # --- packet pool ----------------------------------------------------
        self._pool = pool = PacketPool(max(64, min(p * 4, 1 << 16)))
        self._P_pid = pool.pid
        self._P_src = pool.src
        self._P_dst = pool.dst
        self._P_wire = pool.wire_bytes
        self._P_mode = pool.mode
        self._P_spec = pool.spec
        self._P_inject = pool.inject_time
        self._P_hops = pool.hops
        self._P_vc = pool.vc
        self._P_half = pool.halfbits
        self._P_seq = pool.seq
        self._P_down = pool.downphase
        self._P_route = pool.route
        self._plain_delivery = False

        # --- scheduler ------------------------------------------------------
        # Future events keyed by tick -> bucket list; a heap orders the
        # distinct pending ticks.
        self._buckets: dict[float, list[tuple]] = {}
        self._theap: list[float] = []
        self._now = 0.0
        self._pid = itertools.count()
        self._busy_cycles: list[float] = [0.0] * (p * ndirs)
        self._link_packets: list[int] = [0] * (p * ndirs)
        self.stats = SimStats()
        self._program: Optional[NodeProgram] = None
        # Directed links that exist; the fault-aware subclass overrides
        # this with the surviving count so utilization stays meaningful.
        self._num_links = self.topo.num_links

        # Derived costs.  Per-size service/CPU costs are precomputed in
        # both unscaled cycles (statistics) and ticks (scheduling).
        self._beta = prm.beta_cycles_per_byte
        self._hop_latency = prm.hop_latency_cycles
        self._hop_t = prm.hop_latency_cycles * TICK_SCALE
        self._cpu_fixed = prm.packet_cpu_cycles
        self._cpu_incr = prm.cpu_incremental_cycles_per_byte
        self._alpha = prm.alpha_packet_cycles
        self._svc_f: list[float] = []
        self._svc_t: list[float] = []
        self._cpu_f: list[float] = []
        self._cpu_t: list[float] = []
        self._tbl_len = 0
        self._extend_tables(prm.packet_max_bytes)

        # Interned per-entity event tuples (posting allocates nothing).
        self._fifo_evs: list[tuple] = [
            (_EV_FIFO_FREE, u * self._nfifos + f, u, 0)
            for u in range(p)
            for f in range(self._nfifos)
        ]
        # A LINK_FREE event carries its node and its link index.
        self._link_evs: list[tuple] = [
            (_EV_LINK_FREE, u, u * ndirs + d, 0)
            for u in range(p)
            for d in range(ndirs)
        ]
        self._cpu_evs: list[tuple] = [(_EV_CPU_DONE, u, 0, 0) for u in range(p)]
        self._wake_evs: list[tuple] = [(_EV_CPU_WAKE, u, 0, 0) for u in range(p)]
        self._tok_evs: list[tuple] = []
        self._build_token_events()
        self._observers: list[SimObserver] = []

    def _build_token_events(self) -> None:
        """(Re)build the interned TOKEN events.

        ``_tok_evs[ti]`` is ``(TOKEN, ti, w, li)``: it returns a credit to
        ``_tokens[ti]`` (same flat index) and pokes the arbitration of the
        upstream link ``li`` of node ``w`` (both -1 where no link feeds
        the buffer).  The fault-aware subclass re-calls this after
        masking dead links out of the neighbor table, since the upstream
        link is baked in."""
        ndirs, nvcs = self._ndirs, self._nvcs
        evs = []
        for u in range(self._p):
            nbr_u = self._nbr[u]
            for ind in range(ndirs):
                w = nbr_u[ind]
                uli = w * ndirs + (ind ^ 1) if w >= 0 else -1
                base = (u * ndirs + ind) * nvcs
                for vc in range(nvcs):
                    evs.append((_EV_TOKEN, base + vc, w, uli))
        self._tok_evs = evs

    def _extend_tables(self, wire_bytes: int) -> None:
        """Grow the per-size cost tables to cover *wire_bytes*.

        Every packet passes through the run kernel's ``begin_injection``,
        whose guard (:meth:`_admit`) is the single growth site; all other
        users index blindly."""
        beta = self._beta
        cf = self._cpu_fixed
        ci = self._cpu_incr
        svc_f, svc_t = self._svc_f, self._svc_t
        cpu_f, cpu_t = self._cpu_f, self._cpu_t
        for w in range(self._tbl_len, wire_bytes + 1):
            s = w * beta
            svc_f.append(s)
            svc_t.append(s * TICK_SCALE)
            c = cf + w * ci
            cpu_f.append(c)
            cpu_t.append(c * TICK_SCALE)
        self._tbl_len = wire_bytes + 1

    def _admit(self, u: int, spec: PacketSpec) -> None:
        """Cold half of ``begin_injection``'s guard: reject a spec the
        network cannot carry, else grow the cost tables to its size.

        A size below one byte would index the cost tables from the end
        (or cost nothing), and a destination outside ``[0, p)`` would
        index the routing tables from the end or past them; both fail
        here, before the packet exists."""
        wb = spec.wire_bytes
        if wb < 1 or not 0 <= spec.dst < self._p:
            raise SimulationError(
                f"node {u} injected a malformed packet: dst={spec.dst}, "
                f"wire_bytes={wb} (dst must be a node in [0, {self._p}) "
                f"and wire_bytes >= 1)"
            )
        self._extend_tables(wb)

    # ------------------------------------------------------------------ #
    # public knobs
    # ------------------------------------------------------------------ #

    def set_fifo_groups(self, ngroups: int) -> None:
        """Partition injection FIFOs into *ngroups* reservation groups
        (TPS uses 2: one per phase).  Must divide the FIFO count."""
        if ngroups < 1 or self._nfifos % ngroups != 0:
            raise ValueError(
                f"ngroups={ngroups} must divide num_injection_fifos="
                f"{self._nfifos}"
            )
        self._ngroups = ngroups

    def attach(self, observer: "SimObserver") -> None:
        """Register *observer* for the next :meth:`run` (see
        :class:`SimObserver`).  Observers see the run in attach order."""
        self._observers.append(observer)

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #

    def _wants_link(self, u: int, d: int, h: int) -> bool:
        """Whether handle *h* queued at *u* could productively use
        direction *d* (credits aside).

        Cold path: only the link-stats observer calls this, to decide
        whether a failed arbitration left a direction-matched head waiting
        (stall accounting).  It reads the packet's route state; the
        fault-aware subclass overrides it with its distance-table routing
        truth."""
        r = self._P_route[h]
        if self._P_mode[h] == _ADAPTIVE:
            return bool(self._route.mask[r] >> d & 1)
        return self._route.dor[r] == d

    def _plan_peek(self, u: int) -> Optional[PacketSpec]:
        nxt = self._plan_next[u]
        if nxt is None:
            it = self._plan_iter[u]
            if it is None:
                return None
            nxt = next(it, None)
            if nxt is None:
                self._plan_iter[u] = None
                return None
            self._plan_next[u] = nxt
        return nxt

    def _finish_delivery(self, u: int, h: int) -> None:
        """Record a drained packet, hand its spec and source to the
        program's delivery hook, and retire the handle.

        Under a program that inherits :meth:`BaseProgram.on_delivery`
        (:attr:`_plain_delivery`), a final delivery is all that hook
        accepts and it forwards nothing, so the hook is not called; a
        non-final one still goes to the hook, which raises."""
        now = self._now
        now_f = now * TICK_UNSCALE
        st = self.stats
        st.delivered_packets += 1
        st.last_delivery = now_f
        spec = self._P_spec[h]
        if spec.final_dst == u:
            st.final_deliveries += 1
            st.last_final_delivery = now_f
            lat = (now - self._P_inject[h]) * TICK_UNSCALE
            st.final_latency_sum += lat
            if lat > st.final_latency_max:
                st.final_latency_max = lat
            if self._plain_delivery:
                self._pool.free.append(h)
                return
        else:
            st.forwarded_packets += 1
        assert self._program is not None
        fwd = self._program.on_delivery(u, self._P_src[h], spec)
        self._pool.free.append(h)
        if fwd:
            fp = self._fwd_pending[u]
            fp.extend(fwd)
            if len(fp) > st.peak_forward_backlog:
                st.peak_forward_backlog = len(fp)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, program: NodeProgram) -> SimulationResult:
        """Execute *program* to quiescence and return the results.

        A network runs once: its queues, credits, clock and statistics
        carry the first run's end state."""
        if self._program is not None:
            raise SimulationError(
                "this network has already run a program; build a new "
                "network for each run"
            )
        self._program = program
        # Decided once per run: whether the delivery hook is
        # BaseProgram's own (duck-typed programs keep the general path).
        self._plain_delivery = (
            getattr(type(program), "on_delivery", None)
            is BaseProgram.on_delivery
            and "on_delivery" not in getattr(program, "__dict__", ())
        )
        hooks: dict[str, list] = {}
        for ob in self._observers:
            for name, fn in ob.bind(self).items():
                if name not in HOOKS:
                    raise ValueError(
                        f"{type(ob).__name__} binds unknown hook {name!r}; "
                        f"hooks are {sorted(HOOKS)}"
                    )
                hooks.setdefault(name, []).append(fn)
        # Garbage collection is suspended for the run: the hot loop
        # allocates almost nothing cyclic, and the collector's periodic
        # scans cost more than they reclaim here.
        gc_was = gc.isenabled()
        gc.disable()
        try:
            n_events = self._run_fused(program, hooks)
        finally:
            if gc_was:
                gc.enable()

        st = self.stats
        st.events_processed = n_events
        self._check_quiescent()
        expected = program.expected_final_deliveries()
        if st.final_deliveries != expected:
            raise DeadlockError(
                f"completed with {st.final_deliveries} final deliveries, "
                f"expected {expected}"
            )
        res = self._result()
        for ob in self._observers:
            ob.finish(self, res)
        return res

    def _run_fused(self, program: NodeProgram, hooks: dict) -> int:
        """The run kernel: every network's one event loop.

        Each handler is a closure over simulator state hoisted into
        locals (CPython attribute loads and method calls dominate a
        method-per-handler loop's profile).  The routing closures come in
        two sets, picked once per run from the network's type: the
        pristine torus's dimension-order/bubble rules, and a fault
        plan's BFS-distance/up*-down* rules with loss and the RETX event
        kind.

        *hooks* maps a :class:`SimObserver` hook name to the observers'
        closures for it.  A hook fires after the base step it names, so
        observers only ever read the state a decision left behind; with
        no observer, each hook site costs one ``is not None`` test (or
        nothing, where the hook wraps a closure).  Faithfulness is pinned
        by the observed-vs-plain bit-identity tests plus the golden trace,
        the fault golden, the observed-payload golden and the
        differential suites."""
        st = self.stats
        theap = self._theap
        buckets = self._buckets
        bucket_pop = buckets.pop
        bucket_get = buckets.get
        tick_pop = heappop
        tick_push = heappush
        # The event list of the current tick, in posting order.  The loop
        # below iterates it while handlers append same-tick events to it
        # through ``imm_append``, which is rebound as each tick starts.
        # The first list holds what the setup below posts at the start.
        tick: list[tuple] = []
        imm_append = tick.append

        nports = self._nports
        nvp = self._nvp
        nvcs = self._nvcs
        # The dynamic VCs as a tuple: iterating it skips building a range
        # object per JSQ probe.
        dyn_vcs = tuple(range(self._ndyn))
        ndirs = self._ndirs
        ndim = self._ndim
        nfifos = self._nfifos
        bubble = self._bubble
        bubble_entry = BUBBLE_ENTRY_TOKENS
        hop_t = self._hop_t
        qsh = self._q_shift
        qmask = self._q_mask
        rsh = self._rp_shift
        rmask = self._rp_mask
        pm_vc = self._pm_vc
        all_ports = (1 << nports) - 1

        q_buf = self._q_buf
        q_hd = self._q_hd
        q_n = self._q_n
        rp_buf = self._rp_buf
        rp_hd = self._rp_hd
        rp_n = self._rp_n
        pmask = self._pmask
        pbit = self._pbit
        nbit = self._nbit
        queued = self._queued
        tokens = self._tokens
        link_busy = self._link_busy
        busy_cycles = self._busy_cycles
        link_packets = self._link_packets
        fifo_free = self._fifo_free
        recv_free = self._recv_free
        arb = self._arb
        nbr = self._nbr
        colm = self._colm
        coord = self._coord
        port_axis = self._port_axis
        rt = self._route
        r_home = rt.home
        r_step = rt.step
        r_off = rt.offset
        r_prod = rt.prod
        r_dor = rt.dor
        r_mask = rt.mask
        tok_evs = self._tok_evs
        fifo_evs = self._fifo_evs
        link_evs = self._link_evs
        cpu_evs = self._cpu_evs
        wake_evs = self._wake_evs
        svc_f = self._svc_f
        svc_t = self._svc_t
        cpu_f = self._cpu_f
        cpu_tt = self._cpu_t
        tbl_len = self._tbl_len
        alpha = self._alpha

        # Link-indexed tables over li = u * ndirs + d, built from the
        # current neighbor table (a fault plan's dead links are masked
        # out of it): the node link li reaches, and the first credit
        # counter of the VC buffer it feeds (-1 for a missing or dead
        # link).  aport[d] is the first input port of an arrival over d.
        lnbr = [v for row in nbr for v in row]
        tdown = [
            (v * ndirs + ((li % ndirs) ^ 1)) * nvcs if v >= 0 else -1
            for li, v in enumerate(lnbr)
        ]
        aport = [(d ^ 1) * nvcs for d in range(ndirs)]

        P_dst = self._P_dst
        P_mode = self._P_mode
        P_half = self._P_half
        P_route = self._P_route
        P_vc = self._P_vc
        P_hops = self._P_hops
        P_wire = self._P_wire

        cpu_active = self._cpu_active
        cpu_rr = self._cpu_rr
        cpu_pending = self._cpu_pending
        cpu_slot = self._cpu_slot
        # cpu_order[rr]: the CPU's work sources (reception, forwarding,
        # plan) in round-robin order from rr; a source that starts an op
        # leaves rr one past itself, so 3 wraps to 0.
        cpu_order = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 1, 2))
        fwd_pending = self._fwd_pending
        plan_next = self._plan_next
        plan_iter = self._plan_iter
        plan_last_start = self._plan_last_start
        pace = self._pace
        fifo_rr = self._fifo_rr

        # Injection FIFO groups partition the FIFOs by index modulo the
        # group count.  fifo_rot[g][s] lists group g's FIFOs in rotation
        # order from pointer s; fifo_next[f] is the pointer after f.
        ngroups = self._ngroups
        fifo_rot = [
            [
                tuple(
                    f
                    for f in ((s + k) % nfifos for k in range(nfifos))
                    if f % ngroups == g
                )
                for s in range(nfifos)
            ]
            for g in range(ngroups)
        ]
        fifo_next = [(f + 1) % nfifos for f in range(nfifos)]

        alloc = self._pool.alloc
        pid_next = self._pid.__next__
        # Bound here, once per run, so a subclass override (the fault
        # network's dedup) or a test's patch of the method takes effect.
        finish_delivery = self._finish_delivery

        p = self._p
        admit = self._admit
        max_cycles = MAX_CYCLES
        max_events = MAX_EVENTS
        max_cycles_t = max_cycles * TICK_SCALE
        now = self._now
        n_events = 0

        def post_ev(t: float, ev: tuple) -> None:
            if t <= now:
                # A CPU op that costs nothing completes within its own
                # tick, so a zero-delay post is the one way a tick can
                # grow without bound: count the events the run has taken
                # on (this tick's list included) against the budget here.
                if n_events + len(tick) >= max_events:
                    raise self._limit_error(
                        f"simulation exceeded {max_events} events",
                        n_events + len(tick) + 1,
                    )
                imm_append(ev)
            else:
                b = bucket_get(t)
                if b is None:
                    buckets[t] = [ev]
                    tick_push(theap, t)
                else:
                    b.append(ev)

        def launch(d: int, li: int, h: int, vc: int) -> None:
            # Start transmitting h over link li = (u, d) on vc.  The caller
            # already took the packet off its queue (or never queued it)
            # and released its old slot.  Service time is positive
            # (beta > 0, wire_bytes >= 1), so the link frees strictly
            # after now.
            tokens[tdown[li] + vc] -= 1
            P_vc[h] = vc
            P_hops[h] += 1
            r = P_route[h] + r_step[d]
            P_route[h] = r
            wb = P_wire[h]
            done = now + svc_t[wb]
            link_busy[li] = done
            busy_cycles[li] += svc_f[wb]
            link_packets[li] += 1
            ev = link_evs[li]
            b = bucket_get(done)
            if b is None:
                buckets[done] = [ev]
                tick_push(theap, done)
            else:
                b.append(ev)
            # Virtual cut-through: the *header* reaches the next node after
            # the router/wire latency and may immediately compete for its
            # next hop while the body still streams behind it (an
            # unobstructed header races ahead, as on the real torus); the
            # link itself stays busy for the full service time.  On the
            # packet's FINAL hop (no displacement left) the payload is only
            # usable once its tail arrives, so delivery waits for the tail.
            arrive = (done if r == r_home else now) + hop_t
            ev = (1, lnbr[li], aport[d] + vc, h)
            if arrive <= now:
                imm_append(ev)
            else:
                b = bucket_get(arrive)
                if b is None:
                    buckets[arrive] = [ev]
                    tick_push(theap, arrive)
                else:
                    b.append(ev)

        def try_send_head(u: int, h: int, in_axis: int) -> bool:
            # Packet-centric attempt: launch h (a queue/FIFO head at u, or
            # a packet that just reached an empty one) over the best free
            # link right now (JSQ across its candidate directions).
            lbase = u * ndirs
            r = P_route[h]
            if P_mode[h] == _ADAPTIVE:
                best_d, best_vc, best_free = -1, -1, 0
                # A productive direction always has a neighbor (a mesh
                # edge never points toward a destination), so only the
                # link's busy horizon gates it.
                for d in r_prod[r]:
                    li = lbase + d
                    if link_busy[li] > now:
                        continue
                    base = tdown[li]
                    for vc in dyn_vcs:
                        f = tokens[base + vc]
                        if f > best_free:
                            best_d, best_vc, best_free = d, vc, f
                if best_d >= 0:
                    launch(best_d, lbase + best_d, h, best_vc)
                    return True
            # The bubble VC in dimension order: the escape of an adaptive
            # packet, the only path of a deterministic one.
            d = r_dor[r]
            if d < 0:
                return False
            li = lbase + d
            if link_busy[li] > now:
                return False
            entering = P_vc[h] != bubble or in_axis != (d >> 1)
            need = bubble_entry if entering else 1
            if tokens[tdown[li] + bubble] >= need:
                launch(d, li, h, bubble)
                return True
            return False

        def advance_queue_head(u: int, port: int) -> None:
            qi = u * nports + port
            n = q_n[qi]
            if not n:
                return
            tok_ev = tok_evs[u * nvp + port]
            in_axis = port_axis[port]
            while n:
                h = q_buf[(qi << qsh) | q_hd[qi]]
                if P_dst[h] == u:
                    if recv_free[u] <= 0:
                        break
                    recv_free[u] -= 1
                    q_hd[qi] = (q_hd[qi] + 1) & qmask
                    n -= 1
                    q_n[qi] = n
                    queued[u] -= 1
                    rn = rp_n[u]
                    rp_buf[(u << rsh) | ((rp_hd[u] + rn) & rmask)] = h
                    rp_n[u] = rn + 1
                    imm_append(tok_ev)
                    if not cpu_active[u]:
                        cpu_start_next(u)
                else:
                    if not try_send_head(u, h, in_axis):
                        break
                    q_hd[qi] = (q_hd[qi] + 1) & qmask
                    n -= 1
                    q_n[qi] = n
                    queued[u] -= 1
                    imm_append(tok_ev)
            if not n:
                pmask[u] &= nbit[port]

        def advance_fifo_head(u: int, f: int) -> None:
            port = nvp + f
            qi = u * nports + port
            n = q_n[qi]
            if not n:
                return
            fifo_ev = fifo_evs[u * nfifos + f]
            while n:
                h = q_buf[(qi << qsh) | q_hd[qi]]
                if not try_send_head(u, h, -1):
                    break
                q_hd[qi] = (q_hd[qi] + 1) & qmask
                n -= 1
                q_n[qi] = n
                queued[u] -= 1
                imm_append(fifo_ev)
            if not n:
                pmask[u] &= nbit[port]

        def arbitrate(u: int, li: int) -> None:
            # Link li = (u, d) is free: pick one waiting head packet and
            # launch it.  Dynamic-VC candidates win over bubble candidates;
            # ties rotate.  One rotation scan over the NON-EMPTY ports only
            # (rotate the occupancy mask by the arbitration pointer and
            # extract low bits) launches the first dynamic-VC candidate,
            # else the first bubble candidate memoized on the way: the
            # checks are pure and nothing mutates before the launch, so
            # this picks what a full dynamic-then-bubble scan would.
            # Both call sites pre-gate on a non-empty port mask and an
            # idle link, and name only live links (a LINK_FREE follows a
            # launch; a TOKEN from a mesh edge carries no upstream link),
            # so none of those checks is repeated here.
            d = li - u * ndirs
            m = pmask[u]
            ubase = u * nports
            dbit = 1 << d
            base = tdown[li]
            bubble_tok = tokens[base + bubble]
            start = arb[li]
            b_port = -1
            b_h = -1
            b_vc = -1
            if m & (m - 1):
                mm = ((m >> start) | (m << (nports - start))) & all_ports
            else:
                # Single occupied port (the common case, >half of scans):
                # the rotation is a no-op for candidate selection, so
                # evaluate the lone port directly.
                mm = m
                start = 0
            while mm:
                low = mm & -mm
                mm -= low
                port = start + low.bit_length() - 1
                if port >= nports:
                    port -= nports
                qi = ubase + port
                h = q_buf[(qi << qsh) | q_hd[qi]]
                r = P_route[h]
                if not r_mask[r] & dbit:
                    # Not one of this packet's productive directions (a
                    # head waiting for reception space has none): neither
                    # the adaptive pick nor the bubble fallback can choose
                    # link d.
                    continue
                if P_mode[h] == _ADAPTIVE:
                    best, best_free = -1, 0
                    for vc in dyn_vcs:
                        f = tokens[base + vc]
                        if f > best_free:
                            best, best_free = vc, f
                    if best >= 0:
                        b_port, b_h, b_vc = port, h, best
                        break
                if b_port < 0 and r_dor[r] == d:
                    need = (
                        bubble_entry
                        if P_vc[h] != bubble or port_axis[port] != d >> 1
                        else 1
                    )
                    if bubble_tok >= need:
                        b_port, b_h, b_vc = port, h, bubble
            if b_port < 0:
                return
            port = b_port
            qi = ubase + port
            q_hd[qi] = (q_hd[qi] + 1) & qmask
            n = q_n[qi] - 1
            q_n[qi] = n
            if not n:
                pmask[u] &= nbit[port]
            queued[u] -= 1
            arb[li] = port + 1 if port + 1 < nports else 0
            # Virtual cut-through: the slot frees as the packet streams
            # out, so the credit returns at launch.  The queue's new head
            # may be deliverable locally or able to use another free link
            # right now, and no future event is guaranteed to poke it, so
            # it advances eagerly.
            if port < nvp:
                imm_append(tok_evs[u * nvp + port])
                launch(d, li, b_h, b_vc)
                if n:
                    advance_queue_head(u, port)
            else:
                f = port - nvp
                imm_append(fifo_evs[u * nfifos + f])
                launch(d, li, b_h, b_vc)
                if n:
                    advance_fifo_head(u, f)

        def pick_fifo(u: int, group: int) -> int:
            # Round robin over the FIFOs of *group* with a free slot (-1
            # if none).
            fbase = u * nfifos
            for f in fifo_rot[group % ngroups][fifo_rr[u]]:
                if fifo_free[fbase + f] > 0:
                    fifo_rr[u] = fifo_next[f]
                    return f
            return -1

        def begin_injection(u: int, spec, fifo: int, src: int) -> None:
            nonlocal tbl_len
            wb = spec.wire_bytes
            if not (0 < wb < tbl_len and 0 <= spec.dst < p):
                admit(u, spec)
                tbl_len = self._tbl_len
            fifo_free[u * nfifos + fifo] -= 1
            cost = cpu_f[wb] + spec.extra_cpu_cycles
            if spec.new_message:
                cost += (
                    spec.alpha_cycles if spec.alpha_cycles >= 0 else alpha
                )
            cpu_pending[u] = spec
            cpu_slot[u] = fifo
            cpu_active[u] = True
            cpu_rr[u] = src + 1
            post_ev(now + cost * TICK_SCALE, cpu_evs[u])

        def cpu_start_next(u: int) -> None:
            wake_at = -1.0
            for src in cpu_order[cpu_rr[u]]:
                if src == 0:  # _SRC_RECV
                    n = rp_n[u]
                    if n:
                        hd = rp_hd[u]
                        h = rp_buf[(u << rsh) | hd]
                        rp_hd[u] = (hd + 1) & rmask
                        rp_n[u] = n - 1
                        cpu_pending[u] = None
                        cpu_slot[u] = h
                        cpu_active[u] = True
                        cpu_rr[u] = 1
                        post_ev(now + cpu_tt[P_wire[h]], cpu_evs[u])
                        return
                elif src == 1:  # _SRC_FORWARD
                    fp = fwd_pending[u]
                    if fp:
                        spec = fp[0]
                        f = pick_fifo(u, spec.fifo_group)
                        if f >= 0:
                            fp.popleft()
                            begin_injection(u, spec, f, 1)
                            return
                else:  # _SRC_PLAN
                    nxt = plan_next[u]
                    if nxt is None:
                        it = plan_iter[u]
                        if it is not None:
                            nxt = next(it, None)
                            if nxt is None:
                                plan_iter[u] = None
                            else:
                                plan_next[u] = nxt
                    if nxt is not None:
                        eligible = plan_last_start[u] + pace[u]
                        if now < eligible:
                            if wake_at < 0 or eligible < wake_at:
                                wake_at = eligible
                            continue
                        f = pick_fifo(u, nxt.fifo_group)
                        if f >= 0:
                            plan_next[u] = None
                            plan_last_start[u] = now
                            begin_injection(u, nxt, f, 2)
                            return
            cpu_active[u] = False
            if wake_at > now:
                post_ev(wake_at, wake_evs[u])

        fault_inject = None
        retx = None
        if self._FAULTY:
            # Fault routing: adaptive packets take any surviving link that
            # shrinks the BFS distance to the destination (JSQ over the
            # dynamic VCs, ties in direction order); the escape VC follows
            # up*/down* next hops, where one free slot suffices (the
            # escape channel dependency graph is acyclic, so no bubble).
            dist = self._dist
            prod = self._prod
            nh_up = self._nh_up
            nh_down = self._nh_down
            order = self._order
            salt = self._loss_salt
            dtab = self._dtab
            outstanding = self._outstanding
            seq_next = self._seqno.__next__
            P_pid = self._P_pid
            P_seq = self._P_seq
            P_down = self._P_down
            free_append = self._pool.free.append
            faults = self.faults
            has_loss = faults.has_loss
            loss_prob = faults.loss_prob
            retx_timeout = faults.retx_timeout_cycles
            retx_t = retx_timeout * TICK_SCALE

            def launch(d: int, li: int, h: int, vc: int) -> int:
                u = li // ndirs
                v = lnbr[li]
                ti = tdown[li] + vc
                tokens[ti] -= 1
                P_vc[h] = vc
                hops = P_hops[h] + 1
                P_hops[h] = hops
                service = svc_f[P_wire[h]]
                done = now + service * TICK_SCALE
                link_busy[li] = done
                busy_cycles[li] += service
                link_packets[li] += 1
                ev = link_evs[li]
                if done <= now:
                    imm_append(ev)
                else:
                    b = bucket_get(done)
                    if b is None:
                        buckets[done] = [ev]
                        tick_push(theap, done)
                    else:
                        b.append(ev)
                # Track the up*/down* phase: once a packet descends on the
                # escape VC it may never climb again while it stays there;
                # any adaptive hop resets the phase (a fresh escape episode
                # starts clean).
                if vc == bubble:
                    if order[v] > order[u]:
                        P_down[h] = True
                else:
                    P_down[h] = False
                # A hop that is not minimal on the pristine torus is a
                # reroute forced by the fault plan.
                dst = P_dst[h]
                axis = d >> 1
                disp = dtab[axis][(P_half[h] >> axis) & 1][
                    colm[axis][u] + coord[axis][dst]
                ]
                flags = 0
                if disp == 0 or (disp > 0) != ((d & 1) == 0):
                    st.rerouted_hops += 1
                    flags = LAUNCH_REROUTED
                if has_loss and (
                    loss_draw(salt, P_pid[h], hops, li) < loss_prob
                ):
                    # Dropped on the wire: the transmission still occupies
                    # the link, and the reserved downstream slot frees
                    # when the tail would have passed.  No arrival is
                    # posted; the sender's retransmission timer recovers
                    # the payload.
                    st.lost_packets += 1
                    post_ev(done, tok_evs[ti])
                    free_append(h)
                    return flags | LAUNCH_DROPPED
                arrive = (done if dst == v else now) + hop_t
                ev = (1, v, aport[d] + vc, h)
                if arrive <= now:
                    imm_append(ev)
                else:
                    b = bucket_get(arrive)
                    if b is None:
                        buckets[arrive] = [ev]
                        tick_push(theap, arrive)
                    else:
                        b.append(ev)
                return flags

            def try_send_head(u: int, h: int, in_axis: int) -> bool:
                lbase = u * ndirs
                db = P_dst[h] * p
                if P_mode[h] == _ADAPTIVE:
                    best_d, best_vc, best_free = -1, -1, 0
                    for d in prod[db + u]:
                        li = lbase + d
                        if link_busy[li] > now:
                            continue
                        base = tdown[li]
                        for vc in dyn_vcs:
                            f = tokens[base + vc]
                            if f > best_free:
                                best_d, best_vc, best_free = d, vc, f
                    if best_d >= 0:
                        launch(best_d, lbase + best_d, h, best_vc)
                        return True
                # Escape (also the only path for DETERMINISTIC packets).
                d = (nh_down if P_down[h] else nh_up)[db + u]
                if d < 0:
                    return False
                li = lbase + d
                base = tdown[li]
                if base < 0 or link_busy[li] > now:
                    return False
                if tokens[base + bubble] >= 1:
                    launch(d, li, h, bubble)
                    return True
                return False

            def arbitrate(u: int, li: int) -> None:
                # Same scan and pre-gates as the pristine arbitrate; only
                # the routing checks differ.
                d = li - u * ndirs
                v = lnbr[li]
                m = pmask[u]
                ubase = u * nports
                base = tdown[li]
                escape_free = tokens[base + bubble] >= 1
                start = arb[li]
                b_port = -1
                b_h = -1
                b_vc = -1
                if m & (m - 1):
                    mm = ((m >> start) | (m << (nports - start))) & all_ports
                else:
                    mm = m
                    start = 0
                while mm:
                    low = mm & -mm
                    mm -= low
                    port = start + low.bit_length() - 1
                    if port >= nports:
                        port -= nports
                    qi = ubase + port
                    h = q_buf[(qi << qsh) | q_hd[qi]]
                    dst = P_dst[h]
                    if port < nvp and dst == u:
                        continue  # waiting for reception space
                    db = dst * p
                    if P_mode[h] == _ADAPTIVE:
                        dv = dist[db + v]
                        if 0 <= dv < dist[db + u]:
                            best, best_free = -1, 0
                            for vc in dyn_vcs:
                                f = tokens[base + vc]
                                if f > best_free:
                                    best, best_free = vc, f
                            if best >= 0:
                                b_port, b_h, b_vc = port, h, best
                                break
                    if (
                        b_port < 0
                        and escape_free
                        and (nh_down if P_down[h] else nh_up)[db + u] == d
                    ):
                        b_port, b_h, b_vc = port, h, bubble
                if b_port < 0:
                    return
                port = b_port
                qi = ubase + port
                q_hd[qi] = (q_hd[qi] + 1) & qmask
                n = q_n[qi] - 1
                q_n[qi] = n
                if not n:
                    pmask[u] &= nbit[port]
                queued[u] -= 1
                arb[li] = port + 1 if port + 1 < nports else 0
                if port < nvp:
                    imm_append(tok_evs[u * nvp + port])
                    launch(d, li, b_h, b_vc)
                    if n:
                        advance_queue_head(u, port)
                else:
                    f = port - nvp
                    imm_append(fifo_evs[u * nfifos + f])
                    launch(d, li, b_h, b_vc)
                    if n:
                        advance_fifo_head(u, f)

            def fault_inject(u: int, h: int, spec) -> None:
                if has_loss and spec.seq < 0:
                    # First transmission of a logical packet: assign its
                    # sequence number, remember the spec for retransmission
                    # and arm the timeout.  A retransmitted spec arrives
                    # here with seq >= 0 and is passed through untouched —
                    # its timer chain is driven by retx.
                    seq = seq_next()
                    P_seq[h] = seq
                    outstanding[seq] = (u, spec)
                    post_ev(now + retx_t, (6, u, 1, seq))

            def retx(attempt: int, seq: int) -> None:
                ent = outstanding.get(seq)
                if ent is None:
                    return  # delivered in the meantime; the timer chain ends
                if attempt > MAX_RETX:
                    raise SimulationError(
                        f"packet seq={seq} undelivered after {MAX_RETX} "
                        f"retransmissions — the fault plan or routing table "
                        f"is inconsistent"
                    )
                src, spec = ent
                st.retransmitted_packets += 1
                fp = fwd_pending[src]
                # The retransmitted twin's spec is built when a timer
                # fires (a few percent of packets), not at every injection.
                fp.append(replace(spec, seq=seq, new_message=False))
                if len(fp) > st.peak_forward_backlog:
                    st.peak_forward_backlog = len(fp)
                if not cpu_active[src]:
                    cpu_start_next(src)
                backoff = RETX_BACKOFF ** min(attempt, 10)
                post_ev(
                    now + retx_timeout * backoff * TICK_SCALE,
                    (6, src, attempt + 1, seq),
                )
                if on_retx is not None:
                    for fn in on_retx:
                        fn(src, seq, attempt)

        # Observer hooks.  Where a hook follows a closure, a wrapper is
        # built only when some observer asks, so an unobserved run calls
        # the closures above directly.
        on_launch = hooks.get("launch")
        if on_launch is not None:
            routed_launch = launch

            def launch(d: int, li: int, h: int, vc: int) -> None:
                busy0 = link_busy[li]
                flags = routed_launch(d, li, h, vc) or 0
                u = li // ndirs
                v = lnbr[li]
                for fn in on_launch:
                    fn(u, d, v, h, vc, now, busy0, flags)

        on_stall = hooks.get("stall")
        if on_stall is not None:
            routed_arbitrate = arbitrate

            def arbitrate(u: int, li: int) -> None:
                # The scan launches on link li only, and only that launch
                # leads to further ones, so an unchanged link_packets
                # entry means the scan launched nothing.
                launched0 = link_packets[li]
                routed_arbitrate(u, li)
                if link_packets[li] == launched0:
                    d = li - u * ndirs
                    for fn in on_stall:
                        fn(u, d)

        on_inject_begin = hooks.get("inject_begin")
        if on_inject_begin is not None:
            reserve = begin_injection

            def begin_injection(u: int, spec, fifo: int, src: int) -> None:
                reserve(u, spec, fifo, src)
                for fn in on_inject_begin:
                    fn(u, fifo)

        on_deliver = hooks.get("deliver")
        if on_deliver is not None:
            consume = finish_delivery

            def finish_delivery(u: int, h: int) -> None:
                delivered0 = st.delivered_packets
                consume(u, h)
                if st.delivered_packets != delivered0:
                    for fn in on_deliver:
                        fn(u, h)

        on_arrive = hooks.get("arrive")
        on_inject = hooks.get("inject")
        on_retx = hooks.get("retx")

        for u in range(self._p):
            plan_iter[u] = iter(program.injection_plan(u))
            pace[u] = program.pace_cycles(u) * TICK_SCALE
            if not cpu_active[u]:
                cpu_start_next(u)

        # One list per tick: the for loop drains the tick's list while
        # handlers append to it, and when it runs dry the heap names the
        # next tick, whose calendar bucket becomes the next list.  Events
        # posted while processing tick T land either at the tail of T's
        # list or in strictly later buckets, so this replays the global
        # (time, posting order) of a plain heap.  The event budget is
        # checked as each tick ends (and on the zero-delay posting path,
        # see post_ev), the cycle budget as time advances.
        while True:
            for kind, a, b, c in tick:
                if kind == 1:  # _EV_ARRIVE: handle c reaches a's port b
                    qi = a * nports + b
                    n = q_n[qi]
                    if n:
                        # Behind other packets: join the VC buffer.
                        q_buf[(qi << qsh) | ((q_hd[qi] + n) & qmask)] = c
                        q_n[qi] = n + 1
                        queued[a] += 1
                    elif P_dst[c] != a and try_send_head(a, c, port_axis[b]):
                        # Virtual cut-through: a header reaching an empty
                        # buffer goes straight on when a link takes it,
                        # and its VC slot frees at once.
                        imm_append(tok_evs[a * nvp + b])
                    elif P_dst[c] == a and recv_free[a] > 0:
                        # Straight into the reception FIFO; the VC slot
                        # frees immediately.
                        recv_free[a] -= 1
                        rn = rp_n[a]
                        rp_buf[(a << rsh) | ((rp_hd[a] + rn) & rmask)] = c
                        rp_n[a] = rn + 1
                        imm_append(tok_evs[a * nvp + b])
                        if not cpu_active[a]:
                            cpu_start_next(a)
                    else:
                        # First in an empty buffer, but blocked: no link
                        # takes it, or the reception FIFO is full.
                        q_buf[(qi << qsh) | q_hd[qi]] = c
                        q_n[qi] = 1
                        queued[a] += 1
                        pmask[a] |= pbit[b]
                    if on_arrive is not None:
                        for fn in on_arrive:
                            fn(a, b, c, n)
                elif kind == 2:  # _EV_TOKEN: credit a; c = upstream link
                    tokens[a] += 1
                    # Busy-link gate inlined: ~40 % of token returns poke a
                    # still-transmitting upstream link, which the
                    # arbitration scan would reject anyway.
                    if c >= 0 and pmask[b] and link_busy[c] <= now:
                        arbitrate(b, c)
                elif kind == 0:  # _EV_LINK_FREE: node a's link b
                    if pmask[a] and link_busy[b] <= now:
                        arbitrate(a, b)
                elif kind == 3:  # _EV_CPU_DONE
                    spec = cpu_pending[a]
                    if spec is None:  # a reception of handle cpu_slot[a]
                        recv_free[a] += 1
                        finish_delivery(a, cpu_slot[a])
                        # Inlined _deliver_local_heads.
                        m = pmask[a] & pm_vc
                        while m:
                            if recv_free[a] <= 0:
                                break
                            low = m & -m
                            m -= low
                            advance_queue_head(a, low.bit_length() - 1)
                        cpu_start_next(a)
                    else:  # an injection into FIFO cpu_slot[a]
                        fifo = cpu_slot[a]
                        h = alloc(pid_next(), a, spec, now)
                        st.injected_packets += 1
                        st.injected_wire_bytes += spec.wire_bytes
                        if spec.dst == a:
                            # Local (self) message: bypasses the network.
                            fifo_free[a * nfifos + fifo] += 1
                            finish_delivery(a, h)
                        else:
                            if fault_inject is not None:
                                fault_inject(a, h, spec)
                            else:
                                # The route state: the displacement to go,
                                # each axis' tie bit taken from the
                                # packet's halfbits.
                                dst = spec.dst
                                hb = P_half[h]
                                r = r_home
                                for ax in range(ndim):
                                    r += r_off[ax][(hb >> ax) & 1][
                                        colm[ax][a] + coord[ax][dst]
                                    ]
                                P_route[h] = r
                            port = nvp + fifo
                            qi = a * nports + port
                            n = q_n[qi]
                            if not n and try_send_head(a, h, -1):
                                # Launched from an empty FIFO without
                                # queueing; its slot frees at once.
                                imm_append(fifo_evs[a * nfifos + fifo])
                            else:
                                slot = (q_hd[qi] + n) & qmask
                                q_buf[(qi << qsh) | slot] = h
                                q_n[qi] = n + 1
                                queued[a] += 1
                                if not n:
                                    pmask[a] |= pbit[port]
                        cpu_start_next(a)
                        if on_inject is not None:
                            for fn in on_inject:
                                fn(a)
                elif kind == 5:  # _EV_FIFO_FREE
                    fifo_free[a] += 1
                    if not cpu_active[b]:
                        cpu_start_next(b)
                elif kind == 4:  # _EV_CPU_WAKE
                    if not cpu_active[a]:
                        cpu_start_next(a)
                else:  # _EV_RETX (lossy fault runs only)
                    retx(b, c)
            n_events += len(tick)
            if n_events > max_events:
                raise self._limit_error(
                    f"simulation exceeded {max_events} events", n_events
                )
            if not theap:
                return n_events
            self._now = now = tick_pop(theap)
            if now > max_cycles_t:
                raise self._limit_error(
                    f"simulation exceeded {max_cycles:.3g} cycles",
                    n_events,
                )
            tick = bucket_pop(now)
            imm_append = tick.append

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #

    def _limit_error(self, reason: str, n_events: int) -> SimulationLimitError:
        """Build a :class:`SimulationLimitError` carrying a snapshot of
        where the run stood when the budget tripped."""
        nports = self._nports
        nvp = self._nvp
        vc_in = 0
        fifo_in = 0
        for qi, n in enumerate(self._q_n):
            if n:
                if qi % nports < nvp:
                    vc_in += n
                else:
                    fifo_in += n
        pending: dict[int, int] = {}
        recv_tot = 0
        fwd_tot = 0
        for u in range(self._p):
            r = self._rp_n[u]
            f = len(self._fwd_pending[u])
            recv_tot += r
            fwd_tot += f
            if r or f:
                pending[u] = r + f
        return SimulationLimitError(
            reason,
            events_processed=n_events,
            packets_in_flight=vc_in + fifo_in,
            pending_by_node=pending,
            recv_pending=recv_tot,
            fwd_pending=fwd_tot,
        )

    def _check_quiescent(self) -> None:
        """Verify no packet or work item is stranded after the event queue
        drained; raise :class:`DeadlockError` with diagnostics otherwise."""
        problems = []
        for u in range(self._p):
            if self._plan_peek(u) is not None:
                problems.append(f"node {u}: plan not exhausted")
            if self._fwd_pending[u]:
                problems.append(
                    f"node {u}: {len(self._fwd_pending[u])} forwards pending"
                )
            if self._rp_n[u]:
                problems.append(
                    f"node {u}: {self._rp_n[u]} receptions pending"
                )
            if self._cpu_active[u]:
                problems.append(f"node {u}: CPU op pending")
        nports = self._nports
        nvp = self._nvp
        fifo_tot = 0
        vc_tot = 0
        for qi, n in enumerate(self._q_n):
            if n:
                if qi % nports < nvp:
                    vc_tot += n
                else:
                    fifo_tot += n
        if fifo_tot:
            problems.append("injection FIFOs non-empty")
        if vc_tot:
            problems.append(f"{vc_tot} packets stranded in VC buffers")
        if problems:
            head = "; ".join(problems[:10])
            raise DeadlockError(
                f"network not quiescent after event drain: {head}"
                + ("; ..." if len(problems) > 10 else "")
            )

    def _result(self) -> SimulationResult:
        st = self.stats
        mean_lat = (
            st.final_latency_sum / st.final_deliveries
            if st.final_deliveries
            else 0.0
        )
        busy = np.asarray(self._busy_cycles, dtype=np.float64).reshape(
            self._p, self._ndirs
        )
        pkts = np.asarray(self._link_packets, dtype=np.int64).reshape(
            self._p, self._ndirs
        )
        return SimulationResult(
            time_cycles=st.last_final_delivery,
            link_busy_cycles=busy,
            link_packets=pkts,
            num_links=self._num_links,
            injected_packets=st.injected_packets,
            delivered_packets=st.delivered_packets,
            final_deliveries=st.final_deliveries,
            forwarded_packets=st.forwarded_packets,
            injected_wire_bytes=st.injected_wire_bytes,
            total_hops=int(pkts.sum()),
            events_processed=st.events_processed,
            mean_final_latency=mean_lat,
            max_final_latency=st.final_latency_max,
            peak_forward_backlog=st.peak_forward_backlog,
            lost_packets=st.lost_packets,
            retransmitted_packets=st.retransmitted_packets,
            duplicate_packets=st.duplicate_packets,
            rerouted_hops=st.rerouted_hops,
        )
