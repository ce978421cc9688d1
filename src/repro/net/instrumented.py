"""Observability hooks for the torus network.

The zero-overhead-when-disabled contract (DESIGN.md section 10) is held
structurally, the same way the fault layer holds it: the plain
:class:`~repro.net.simulator.TorusNetwork` and
:class:`~repro.net.faultsim.FaultyTorusNetwork` contain **no** tracing
code, no registry lookups and no ``if enabled`` branches — an
un-instrumented run executes byte-for-byte the code it executed before
this module existed.  When an :class:`~repro.obs.config.ObsConfig` asks
for tracing or metrics, :func:`repro.net.faultsim.build_network` layers
:class:`_InstrumentedMixin` over the network class it would otherwise
build (``InstrumentedTorusNetwork`` / ``InstrumentedFaultyTorusNetwork``).

Every override here calls ``super()`` *first* and then only reads state
(ring-buffer queue depths, stats deltas, the packet pool's columns), so
an instrumented run
makes exactly the decisions — and produces exactly the ``time_cycles``
and event counts — of an un-instrumented one.  ``tests/obs`` pins this
bit-identity.

What gets recorded (see :mod:`repro.obs.tracer` for the event schema):

* ``inject`` at CPU injection completion, ``link`` occupancy intervals
  per hop, ``queue`` depth samples when a packet waits behind others,
  ``deliver`` with latency and phase (the strategy's traffic-class tag:
  ``tps1``/``tps2``/``vmesh1``/... — the TPS phase-overlap view), and on
  fault runs ``drop``/``retx``/``reroute``;
* metrics: per-axis link-busy time series (exported as utilization
  fractions), final-delivery latency histogram, injection-FIFO depth,
  forward backlog and VC queue depth gauges, and counters for drops,
  retransmissions and reroutes;
* link stats (``ObsConfig.link_stats``): per-link wire bytes, per-VC
  packet counts, stall cycles (a free link with a direction-matched head
  packet that could not launch), per-link drops, per-node
  retransmissions, and per-phase busy cycles — the raw material for
  :mod:`repro.obs.linkstats` and :mod:`repro.obs.report`.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.net.simulator import TICK_UNSCALE
from repro.net.trace import SimulationResult
from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.strategies.data import kind_of_tag

_AXIS_NAMES = ("x", "y", "z")

#: Slots of every instrumented class (see ``faultsim._network_class``).
_OBS_SLOTS = (
    "obs", "tracer", "metrics", "_axis_ts", "_lat_hist",
    # link-stats layer (ObsConfig.link_stats): per-link wire bytes,
    # per-(link, vc) packet counts, per-link stall cycles + open
    # want-since tick, per-link drops and per-node retransmissions.
    "_ls_on", "_ls_bytes", "_ls_vc_packets", "_ls_stall", "_ls_want",
    "_ls_drops", "_ls_retx",
    # phase profiler (ObsConfig.profile, and the per-phase busy table of
    # ObsConfig.link_stats) + its host-clock stamp.
    "_prof", "_prof_t0",
)


class _InstrumentedMixin:
    """Observation hooks layered over a network class via ``super()``."""

    __slots__ = ()

    # -------------------------------------------------------------- #
    # setup / teardown
    # -------------------------------------------------------------- #

    def _init_obs(self, obs: ObsConfig) -> None:
        self.obs = obs
        self.tracer = (
            Tracer(
                capacity=obs.trace_capacity,
                sample=obs.trace_sample,
                kinds=obs.trace_kinds,
            )
            if obs.trace
            else None
        )
        if obs.metrics:
            self.metrics = MetricsRegistry(
                default_bucket_cycles=obs.metrics_bucket_cycles,
                max_buckets=obs.metrics_max_buckets,
            )
            self._axis_ts = [
                self.metrics.timeseries(f"link_busy_cycles.{_AXIS_NAMES[a]}")
                for a in range(self._ndim)
            ]
            self._lat_hist = self.metrics.histogram("final_latency_cycles")
        else:
            self.metrics = None
            self._axis_ts = None
            self._lat_hist = None
        self._ls_on = obs.link_stats
        if obs.link_stats:
            p, ndirs = self._p, self._ndirs
            self._ls_bytes: list[int] = [0] * (p * ndirs)
            self._ls_vc_packets: list[int] = [0] * (p * ndirs * self._nvcs)
            self._ls_stall: list[float] = [0.0] * (p * ndirs)
            # Tick at which a direction-matched head packet was first seen
            # waiting on a free link; -1.0 = no stall interval open.
            self._ls_want: list[float] = [-1.0] * (p * ndirs)
            self._ls_drops: list[int] = [0] * (p * ndirs)
            self._ls_retx: list[int] = [0] * p
        # One per-(phase, axis) busy table serves both the link-stats
        # and the profile payloads; only the latter reports the rest.
        if obs.link_stats or obs.profile:
            from repro.obs.profile import PhaseProfiler

            self._prof = PhaseProfiler(self._ndim)
        else:
            self._prof = None
        self._prof_t0 = None

    def run(self, program):
        if self.obs.profile:
            self._prof_t0 = (time.perf_counter(), time.process_time())
        return super().run(program)

    # -------------------------------------------------------------- #
    # lifecycle hooks (super() first, then read-only observation)
    # -------------------------------------------------------------- #

    def _launch(self, u: int, d: int, v: int, h: int, vc: int) -> None:
        st = self.stats
        lost0 = st.lost_packets
        rerouted0 = st.rerouted_hops
        now = self._now
        pid = self._P_pid[h]
        super()._launch(u, d, v, h, vc)
        # Tick subtraction then unscaling reproduces the pre-SoA float
        # cycle arithmetic bit-for-bit (power-of-two scaling commutes
        # with IEEE rounding).
        now_f = now * TICK_UNSCALE
        li = u * self._ndirs + d
        dur = (self._link_busy[li] - now) * TICK_UNSCALE
        ts = self._axis_ts
        if ts is not None:
            ts[d >> 1].add(now_f, dur)
            if st.lost_packets > lost0:
                self.metrics.counter("lost_packets").inc()
            if st.rerouted_hops > rerouted0:
                self.metrics.counter("rerouted_hops").inc()
        tr = self.tracer
        if tr is not None and tr.want(pid):
            kinds = tr.kinds
            if "link" in kinds:
                tr.emit(now_f, "link", u, d, dur, pid)
            if "reroute" in kinds and st.rerouted_hops > rerouted0:
                tr.emit(now_f, "reroute", u, d, pid)
            if "drop" in kinds and st.lost_packets > lost0:
                tr.emit(now_f, "drop", u, d, pid)
        if self._ls_on:
            self._ls_bytes[li] += self._P_wire[h]
            # super() wrote the VC actually used into the pool column.
            self._ls_vc_packets[li * self._nvcs + self._P_vc[h]] += 1
            ws = self._ls_want[li]
            if ws >= 0.0:
                self._ls_stall[li] += (now - ws) * TICK_UNSCALE
                self._ls_want[li] = -1.0
            if st.lost_packets > lost0:
                self._ls_drops[li] += 1
        if self._prof is not None:
            self._prof.on_launch(
                kind_of_tag(self._P_tag[h]) or "untagged",
                d >> 1,
                now_f,
                dur,
            )

    def _arbitrate_link(self, u: int, d: int) -> bool:
        launched = super()._arbitrate_link(u, d)
        if not launched and self._ls_on:
            # A launch closes any open stall interval inside ``_launch``
            # (which also covers launches via ``_try_send_head``); a
            # *failed* arbitration on an existing, idle link opens one
            # when some queued head packet wants exactly this direction.
            li = u * self._ndirs + d
            if self._nbr[u][d] >= 0 and self._link_busy[li] <= self._now:
                if self._ls_head_waiting(u, d):
                    if self._ls_want[li] < 0.0:
                        self._ls_want[li] = self._now
                elif self._ls_want[li] >= 0.0:
                    # The waiter left at some unknown earlier time —
                    # discard the interval (undercount, never overcount).
                    self._ls_want[li] = -1.0
        return launched

    def _ls_head_waiting(self, u: int, d: int) -> bool:
        """Whether any queued head packet at *u* wants direction *d*."""
        m = self._pmask[u]
        q_buf, q_hd, qsh = self._q_buf, self._q_hd, self._q_shift
        ubase = u * self._nports
        nvp = self._nvp
        while m:
            low = m & -m
            m -= low
            port = low.bit_length() - 1
            h = q_buf[((ubase + port) << qsh) | q_hd[ubase + port]]
            if port < nvp and self._P_dst[h] == u:
                continue  # waiting for reception space, not a link
            if self._wants_link(u, d, h):
                return True
        return False

    def _on_arrive(self, v: int, port: int, h: int) -> None:
        qi = v * self._nports + port
        before = self._q_n[qi]
        super()._on_arrive(v, port, h)
        depth = self._q_n[qi]
        if depth > before and depth >= 2:
            # The packet joined a non-empty VC buffer: it is waiting
            # behind others for the next link (queue-wait pressure).
            if self.metrics is not None:
                self.metrics.gauge("vc_queue_depth").set(depth)
            tr = self.tracer
            pid = self._P_pid[h]
            if tr is not None and "queue" in tr.kinds and tr.want(pid):
                tr.emit(
                    self._now * TICK_UNSCALE,
                    "queue",
                    v,
                    self._port_dir[port],
                    depth,
                    pid,
                )

    def _cpu_complete(self, u: int) -> None:
        st = self.stats
        injected0 = st.injected_packets
        super()._cpu_complete(u)
        if st.injected_packets == injected0:
            return
        # Exactly one packet was injected, and injections are the only
        # consumer of the pid counter, so its id is injected_packets - 1.
        pid = st.injected_packets - 1
        if self.metrics is not None:
            base = u * self._nfifos
            cap = self.config.injection_fifo_depth
            used = sum(
                cap - self._fifo_free[base + f] for f in range(self._nfifos)
            )
            self.metrics.gauge("inj_fifo_depth").set(used)
        tr = self.tracer
        if tr is not None and "inject" in tr.kinds and tr.want(pid):
            tr.emit(self._now * TICK_UNSCALE, "inject", u, pid)

    def _finish_delivery(self, u: int, h: int) -> None:
        st = self.stats
        delivered0 = st.delivered_packets
        # Snapshot the pool columns up front: the base class returns the
        # handle to the free list, and a duplicate discard (fault runs)
        # frees it without delivering.
        pid = self._P_pid[h]
        src = self._P_src[h]
        inject_t = self._P_inject[h]
        tag = self._P_tag[h]
        final = self._P_final[h] == u
        super()._finish_delivery(u, h)
        if st.delivered_packets == delivered0:
            return  # receiver-side duplicate discard (fault runs)
        if self.metrics is not None:
            if final:
                self._lat_hist.observe((self._now - inject_t) * TICK_UNSCALE)
            backlog = len(self._fwd_pending[u])
            if backlog:
                self.metrics.gauge("forward_backlog").set(backlog)
        tr = self.tracer
        if tr is not None and "deliver" in tr.kinds and tr.want(pid):
            tr.emit(
                self._now * TICK_UNSCALE,
                "deliver",
                u,
                pid,
                src,
                inject_t * TICK_UNSCALE,
                kind_of_tag(tag),
                final,
            )
        if self._prof is not None:
            self._prof.on_delivery(
                kind_of_tag(tag) or "untagged",
                self._now * TICK_UNSCALE,
                final,
            )

    def _on_retx(self, attempt: int, seq: int) -> None:
        ent = self._outstanding.get(seq)
        st = self.stats
        retx0 = st.retransmitted_packets
        super()._on_retx(attempt, seq)
        if st.retransmitted_packets == retx0:
            return
        src = ent[0] if ent is not None else -1
        if self._ls_on and src >= 0:
            self._ls_retx[src] += 1
        if self.metrics is not None:
            self.metrics.counter("retransmitted_packets").inc()
        tr = self.tracer
        if tr is not None and "retx" in tr.kinds:
            tr.emit(self._now * TICK_UNSCALE, "retx", src, seq, attempt)

    # -------------------------------------------------------------- #
    # result assembly
    # -------------------------------------------------------------- #

    def _result(self) -> SimulationResult:
        res = super()._result()
        payload: dict = {}
        prof_payload = None
        if self.obs.profile:
            st = self.stats
            wall = cpu = None
            if self._prof_t0 is not None:
                wall = time.perf_counter() - self._prof_t0[0]
                cpu = time.process_time() - self._prof_t0[1]
            prof_payload = self._prof.to_payload(
                st.last_final_delivery, st.events_processed, wall, cpu
            )
            # Fold the exact (cycle-domain) numbers into the metrics
            # registry too, *before* its snapshot below — one export
            # surface for dashboards, without reparsing the payload.
            if self.metrics is not None:
                for name, e in prof_payload["phases"].items():
                    self.metrics.counter(
                        f"profile.busy_cycles.{name}"
                    ).inc(e["busy_cycles"])
                    self.metrics.counter(
                        f"profile.launches.{name}"
                    ).inc(e["launches"])
        if self.metrics is not None:
            snap = self.metrics.to_dict()
            # Derive per-axis utilization-over-time from the raw busy
            # series: fraction of the axis's aggregate link capacity
            # each bucket consumed.
            for a in range(self._ndim):
                name = f"link_busy_cycles.{_AXIS_NAMES[a]}"
                raw = snap.get(name)
                if raw is None:
                    continue
                nlinks = self.shape.links_in_dim(a)
                bc = raw["bucket_cycles"]
                denom = bc * nlinks if nlinks else 0.0
                snap[f"link_utilization.{_AXIS_NAMES[a]}"] = {
                    "type": "utilization_timeseries",
                    "bucket_cycles": bc,
                    "links": nlinks,
                    "utilization": [
                        (b / denom) if denom else 0.0 for b in raw["buckets"]
                    ],
                }
            payload["metrics"] = snap
        if self.tracer is not None:
            payload["trace"] = self.tracer.to_payload()
        if self._ls_on:
            st = self.stats
            nbr = self._nbr
            live = [0] * self._ndim
            for u in range(self._p):
                for d in range(self._ndirs):
                    if nbr[u][d] >= 0:
                        live[d >> 1] += 1
            payload["link_stats"] = {
                "dims": list(self.shape.dims),
                "torus": [bool(t) for t in self.shape.torus],
                "ndirs": self._ndirs,
                "nvcs": self._nvcs,
                "beta": self._beta,
                # Full machine parameters: the model diff reconstructs
                # the exact packetization overhead from these.
                "machine": asdict(self.params),
                "time_cycles": st.last_final_delivery,
                #: Surviving directed links per axis (== links_in_dim on
                #: pristine shapes; smaller under dead wires/nodes).
                "links_per_axis": live,
                "busy_cycles": list(self._busy_cycles),
                "packets": list(self._link_packets),
                "wire_bytes": list(self._ls_bytes),
                "vc_packets": list(self._ls_vc_packets),
                "stall_cycles": list(self._ls_stall),
                "drops": list(self._ls_drops),
                "retx_by_node": list(self._ls_retx),
                "phase_busy": {
                    k: list(v)
                    for k, v in sorted(self._prof.busy.items())
                },
                "injected_wire_bytes": st.injected_wire_bytes,
            }
        if prof_payload is not None:
            payload["profile"] = prof_payload
        if payload:
            res.extras["obs"] = payload
        return res
