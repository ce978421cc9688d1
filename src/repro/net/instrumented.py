"""Observability hooks for the torus network.

The zero-overhead-when-disabled contract (DESIGN.md section 10) is held
structurally: observation is one :class:`Instrumentation` observer
(:class:`~repro.net.simulator.SimObserver`) that
:func:`repro.net.faultsim.build_network` attaches only when an
:class:`~repro.obs.config.ObsConfig` asks for tracing, metrics, link
stats or the profiler.  An unobserved run executes no code of this
module: the run kernel skips every hook site on one ``is not None`` test,
and builds no hook wrapper at all.

Every hook runs after the step it observes and then only reads state
(ring-buffer queue depths, stats, the packet pool's columns), so an
instrumented run makes exactly the decisions — and produces exactly the
``time_cycles`` and event counts — of an un-instrumented one.
``tests/obs`` pins this bit-identity.

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

from repro.net.simulator import (
    LAUNCH_DROPPED,
    LAUNCH_REROUTED,
    TICK_UNSCALE,
    SimObserver,
)
from repro.net.trace import SimulationResult
from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.tracer import Tracer
from repro.strategies.data import kind_of_tag

_AXIS_NAMES = ("x", "y", "z")


def _on_first_use(make, name: str):
    """A getter for instrument *name*, registered by ``make(name)`` on its
    first call — a metrics payload lists exactly the instruments a run
    touched, and each is looked up once."""
    inst = None

    def get():
        nonlocal inst
        if inst is None:
            inst = make(name)
        return inst

    return get


class Instrumentation(SimObserver):
    """Tracer, metrics, link stats and phase profiler of one run."""

    def __init__(self, obs: ObsConfig) -> None:
        self.obs = obs
        self.tracer = None
        self.metrics = None
        self.profiler = None
        #: Per-link/node counters of ``ObsConfig.link_stats``, by name.
        self.link_stats: dict = {}
        self._t0 = None

    def bind(self, net) -> dict:
        obs = self.obs
        p, ndirs, nvcs, ndim = net._p, net._ndirs, net._nvcs, net._ndim
        nports, nfifos = net._nports, net._nfifos
        st = net.stats
        P_pid, P_src, P_tag = net._P_pid, net._P_src, net._P_tag
        P_wire, P_final, P_inject = net._P_wire, net._P_final, net._P_inject
        link_busy = net._link_busy

        tr = self.tracer = (
            Tracer(
                capacity=obs.trace_capacity,
                sample=obs.trace_sample,
                kinds=obs.trace_kinds,
            )
            if obs.trace
            else None
        )
        kinds = tr.kinds if tr is not None else frozenset()
        want = tr.want if tr is not None else None
        emit = tr.emit if tr is not None else None
        metrics = axis_ts = lat_hist = None
        if obs.metrics:
            metrics = self.metrics = MetricsRegistry(
                default_bucket_cycles=obs.metrics_bucket_cycles,
                max_buckets=obs.metrics_max_buckets,
            )
            axis_ts = [
                metrics.timeseries(f"link_busy_cycles.{_AXIS_NAMES[a]}")
                for a in range(ndim)
            ]
            lat_hist = metrics.histogram("final_latency_cycles")
            lost_ctr = _on_first_use(metrics.counter, "lost_packets")
            reroute_ctr = _on_first_use(metrics.counter, "rerouted_hops")
            retx_ctr = _on_first_use(metrics.counter, "retransmitted_packets")
            queue_gauge = _on_first_use(metrics.gauge, "vc_queue_depth")
            inject_gauge = _on_first_use(metrics.gauge, "inj_fifo_depth")
            backlog_gauge = _on_first_use(metrics.gauge, "forward_backlog")
        ls_on = obs.link_stats
        if ls_on:
            ls_bytes = [0] * (p * ndirs)
            ls_vc_packets = [0] * (p * ndirs * nvcs)
            ls_stall = [0.0] * (p * ndirs)
            # Tick at which a direction-matched head packet was first seen
            # waiting on a free link; -1.0 = no stall interval open.
            ls_want = [-1.0] * (p * ndirs)
            ls_drops = [0] * (p * ndirs)
            ls_retx = [0] * p
            self.link_stats = {
                "wire_bytes": ls_bytes,
                "vc_packets": ls_vc_packets,
                "stall_cycles": ls_stall,
                "drops": ls_drops,
                "retx_by_node": ls_retx,
            }
        # One per-(phase, axis) busy table serves both the link-stats and
        # the profile payloads; only the latter reports the rest.
        prof = self.profiler = (
            PhaseProfiler(ndim) if (ls_on or obs.profile) else None
        )
        if obs.profile:
            self._t0 = (time.perf_counter(), time.process_time())

        def launch(u, d, v, h, vc, now, busy0, flags):
            # Tick subtraction then unscaling reproduces the pre-SoA float
            # cycle arithmetic bit-for-bit (power-of-two scaling commutes
            # with IEEE rounding).
            now_f = now * TICK_UNSCALE
            li = u * ndirs + d
            dur = (link_busy[li] - now) * TICK_UNSCALE
            if axis_ts is not None:
                axis_ts[d >> 1].add(now_f, dur)
                if flags & LAUNCH_DROPPED:
                    lost_ctr().inc()
                if flags & LAUNCH_REROUTED:
                    reroute_ctr().inc()
            if want is not None and want(P_pid[h]):
                pid = P_pid[h]
                if "link" in kinds:
                    emit(now_f, "link", u, d, dur, pid)
                if "reroute" in kinds and flags & LAUNCH_REROUTED:
                    emit(now_f, "reroute", u, d, pid)
                if "drop" in kinds and flags & LAUNCH_DROPPED:
                    emit(now_f, "drop", u, d, pid)
            if ls_on:
                ls_bytes[li] += P_wire[h]
                ls_vc_packets[li * nvcs + vc] += 1
                ws = ls_want[li]
                if ws >= 0.0:
                    ls_stall[li] += (now - ws) * TICK_UNSCALE
                    ls_want[li] = -1.0
                if flags & LAUNCH_DROPPED:
                    ls_drops[li] += 1
            if prof is not None:
                prof.on_launch(
                    kind_of_tag(P_tag[h]) or "untagged", d >> 1, now_f, dur
                )

        hooks = {"launch": launch}

        if ls_on:
            nbr = net._nbr
            pmask = net._pmask
            q_buf, q_hd, qsh = net._q_buf, net._q_hd, net._q_shift
            P_dst = net._P_dst
            nvp = net._nvp
            wants_link = net._wants_link

            def head_waiting(u, d):
                """Whether any queued head packet at *u* wants *d*."""
                m = pmask[u]
                ubase = u * nports
                while m:
                    low = m & -m
                    m -= low
                    port = low.bit_length() - 1
                    h = q_buf[((ubase + port) << qsh) | q_hd[ubase + port]]
                    if port < nvp and P_dst[h] == u:
                        continue  # waiting for reception space, not a link
                    if wants_link(u, d, h):
                        return True
                return False

            def stall(u, d):
                # A launch closes any open stall interval (launch hook); an
                # arbitration that launched nothing on an existing, idle
                # link opens one when some queued head packet wants exactly
                # this direction.
                if nbr[u][d] < 0:
                    return
                li = u * ndirs + d
                if head_waiting(u, d):
                    if ls_want[li] < 0.0:
                        ls_want[li] = net._now
                elif ls_want[li] >= 0.0:
                    # The waiter left at some unknown earlier time —
                    # discard the interval (undercount, never overcount).
                    ls_want[li] = -1.0

            hooks["stall"] = stall

        trace_queue = "queue" in kinds
        if metrics is not None or trace_queue:
            q_n = net._q_n
            port_dir = net._port_dir

            def arrive(v, port, h, n0):
                depth = q_n[v * nports + port]
                if depth > n0 and depth >= 2:
                    # The packet joined a non-empty VC buffer: it is
                    # waiting behind others for the next link (queue-wait
                    # pressure).
                    if metrics is not None:
                        queue_gauge().set(depth)
                    if trace_queue and want(P_pid[h]):
                        emit(
                            net._now * TICK_UNSCALE,
                            "queue",
                            v,
                            port_dir[port],
                            depth,
                            P_pid[h],
                        )

            hooks["arrive"] = arrive

        trace_inject = "inject" in kinds
        if metrics is not None or trace_inject:
            fifo_free = net._fifo_free
            slots = nfifos * net.config.injection_fifo_depth

            def inject(u):
                if metrics is not None:
                    base = u * nfifos
                    used = slots - sum(fifo_free[base : base + nfifos])
                    inject_gauge().set(used)
                # Injections are the only consumer of the pid counter, so
                # the packet just injected has id injected_packets - 1.
                pid = st.injected_packets - 1
                if trace_inject and want(pid):
                    emit(net._now * TICK_UNSCALE, "inject", u, pid)

            hooks["inject"] = inject

        trace_deliver = "deliver" in kinds
        if metrics is not None or trace_deliver or prof is not None:
            fwd_pending = net._fwd_pending

            def deliver(u, h):
                now = net._now
                final = P_final[h] == u
                if metrics is not None:
                    if final:
                        lat_hist.observe((now - P_inject[h]) * TICK_UNSCALE)
                    backlog = len(fwd_pending[u])
                    if backlog:
                        backlog_gauge().set(backlog)
                if trace_deliver and want(P_pid[h]):
                    emit(
                        now * TICK_UNSCALE,
                        "deliver",
                        u,
                        P_pid[h],
                        P_src[h],
                        P_inject[h] * TICK_UNSCALE,
                        kind_of_tag(P_tag[h]),
                        final,
                    )
                if prof is not None:
                    prof.on_delivery(
                        kind_of_tag(P_tag[h]) or "untagged",
                        now * TICK_UNSCALE,
                        final,
                    )

            hooks["deliver"] = deliver

        trace_retx = "retx" in kinds
        if ls_on or metrics is not None or trace_retx:

            def retx(src, seq, attempt):
                if ls_on:
                    ls_retx[src] += 1
                if metrics is not None:
                    retx_ctr().inc()
                if trace_retx:
                    emit(net._now * TICK_UNSCALE, "retx", src, seq, attempt)

            hooks["retx"] = retx

        return hooks

    # -------------------------------------------------------------- #
    # result assembly
    # -------------------------------------------------------------- #

    def finish(self, net, res: SimulationResult) -> None:
        obs = self.obs
        st = net.stats
        payload: dict = {}
        prof_payload = None
        if obs.profile:
            wall = cpu = None
            if self._t0 is not None:
                wall = time.perf_counter() - self._t0[0]
                cpu = time.process_time() - self._t0[1]
            prof_payload = self.profiler.to_payload(
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
            for a in range(net._ndim):
                name = f"link_busy_cycles.{_AXIS_NAMES[a]}"
                raw = snap.get(name)
                if raw is None:
                    continue
                nlinks = net.shape.links_in_dim(a)
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
        if obs.link_stats:
            ls = self.link_stats
            nbr = net._nbr
            live = [0] * net._ndim
            for u in range(net._p):
                for d in range(net._ndirs):
                    if nbr[u][d] >= 0:
                        live[d >> 1] += 1
            payload["link_stats"] = {
                "dims": list(net.shape.dims),
                "torus": [bool(t) for t in net.shape.torus],
                "ndirs": net._ndirs,
                "nvcs": net._nvcs,
                "beta": net._beta,
                # Full machine parameters: the model diff reconstructs
                # the exact packetization overhead from these.
                "machine": asdict(net.params),
                "time_cycles": st.last_final_delivery,
                #: Surviving directed links per axis (== links_in_dim on
                #: pristine shapes; smaller under dead wires/nodes).
                "links_per_axis": live,
                "busy_cycles": list(net._busy_cycles),
                "packets": list(net._link_packets),
                "wire_bytes": list(ls["wire_bytes"]),
                "vc_packets": list(ls["vc_packets"]),
                "stall_cycles": list(ls["stall_cycles"]),
                "drops": list(ls["drops"]),
                "retx_by_node": list(ls["retx_by_node"]),
                "phase_busy": {
                    k: list(v) for k, v in sorted(self.profiler.busy.items())
                },
                "injected_wire_bytes": st.injected_wire_bytes,
            }
        if prof_payload is not None:
            payload["profile"] = prof_payload
        if payload:
            res.extras["obs"] = payload
