"""Opt-in phase-level time profiler for the torus simulator.

The paper's optimization story is told per *communication phase*: the
TPS schedule overlaps ``tps1``/``tps2`` traffic, the virtual-mesh
strategy pipelines ``vmesh1`` into ``vmesh2``, and the win over the
direct ``direct`` baseline comes from where each phase's time goes.
Every packet already carries its strategy's ``PHASE_*`` tag
(:mod:`repro.strategies.data`); this module aggregates those tags into a
per-phase time attribution:

* **simulated time** — per-(phase, axis) link-busy cycles, the phase's
  first/last active cycle (its span inside the collective), launch and
  delivery counts;
* **host time** — the run's wall/CPU seconds, apportioned across phases
  by their share of total link-busy cycles.  This is an *estimate* (the
  event loop interleaves phases arbitrarily finely), clearly labeled as
  such in the payload; the simulated-cycle numbers are exact.

The profiler is an opt-in observability layer (``ObsConfig.profile``;
CLI ``--profile``): it lives on the instrumentation observer
(:mod:`repro.net.instrumented`), so the profiling-off default path runs
no code of this module, bit-identical to a run before this module
existed.  The payload rides ``extras["obs"]["profile"]`` through the
canonical codec; :func:`profile_chrome_events` renders it as a span
track alongside the packet tracer in one Perfetto-loadable file.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Version pin of the ``extras["obs"]["profile"]`` payload layout.
PROFILE_SCHEMA = 1

_AXIS_NAMES = ("x", "y", "z")


class PhaseProfiler:
    """Aggregates per-phase time attribution during one simulation run.

    Fed by the instrumentation's launch/delivery hooks (read-only, after
    the step they observe — the simulation is unperturbed).  All
    inputs are in simulated cycles; host wall/CPU time is attached once
    at result assembly.  :attr:`busy` is the run's one per-(phase, axis)
    busy-cycle table: the link-stats payload reads it too.
    """

    __slots__ = ("_ndim", "_phases", "busy")

    def __init__(self, ndim: int) -> None:
        self._ndim = ndim
        #: phase -> [launches, deliveries, final_deliveries,
        #:           first_cycle, last_cycle]
        self._phases: dict[str, list] = {}
        #: phase -> per-axis link-busy cycles (launched phases only).
        self.busy: dict[str, list[float]] = {}

    def _entry(self, phase: str) -> list:
        e = self._phases[phase] = [0, 0, 0, float("inf"), 0.0]
        return e

    def on_launch(
        self, phase: str, axis: int, now_cycles: float, dur_cycles: float
    ) -> None:
        """One link occupancy interval attributed to *phase*."""
        e = self._phases.get(phase)
        if e is None:
            e = self._entry(phase)
        e[0] += 1
        if now_cycles < e[3]:
            e[3] = now_cycles
        end = now_cycles + dur_cycles
        if end > e[4]:
            e[4] = end
        by_axis = self.busy.get(phase)
        if by_axis is None:
            by_axis = self.busy[phase] = [0.0] * self._ndim
        by_axis[axis] += dur_cycles

    def on_delivery(self, phase: str, now_cycles: float, final: bool) -> None:
        """One packet of *phase* drained by its destination CPU."""
        e = self._phases.get(phase)
        if e is None:
            e = self._entry(phase)
        e[1] += 1
        if final:
            e[2] += 1
        if now_cycles < e[3]:
            e[3] = now_cycles
        if now_cycles > e[4]:
            e[4] = now_cycles

    def to_payload(
        self,
        time_cycles: float,
        events_processed: int,
        wall_s: Optional[float] = None,
        cpu_s: Optional[float] = None,
    ) -> dict:
        """JSON-native snapshot (rides the canonical result codec)."""
        zeros = [0.0] * self._ndim
        total_busy = sum(
            sum(self.busy.get(name, zeros)) for name in self._phases
        )
        phases = {}
        for name in sorted(self._phases):
            launches, deliveries, finals, first, last = self._phases[name]
            by_axis = self.busy.get(name, zeros)
            busy = sum(by_axis)
            share = (busy / total_busy) if total_busy > 0 else 0.0
            entry = {
                "launches": launches,
                "deliveries": deliveries,
                "final_deliveries": finals,
                "first_cycle": first if first != float("inf") else 0.0,
                "last_cycle": last,
                "span_cycles": (
                    (last - first) if first != float("inf") else 0.0
                ),
                "busy_cycles": busy,
                "busy_by_axis": {
                    _AXIS_NAMES[a]: by_axis[a] for a in range(self._ndim)
                },
                "busy_share": share,
            }
            # Host-time attribution: proportional to link-busy share.
            # An estimate by construction (phases interleave within the
            # event loop); the cycle numbers above are exact.
            if wall_s is not None:
                entry["wall_s_est"] = wall_s * share
            if cpu_s is not None:
                entry["cpu_s_est"] = cpu_s * share
            phases[name] = entry
        out = {
            "schema": PROFILE_SCHEMA,
            "time_cycles": time_cycles,
            "events_processed": events_processed,
            "total_busy_cycles": total_busy,
            "phases": phases,
        }
        if wall_s is not None:
            out["wall_s"] = wall_s
        if cpu_s is not None:
            out["cpu_s"] = cpu_s
        return out


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #


def profile_chrome_events(
    payload: dict, pid: int = 10_000_000, label: str = ""
) -> Iterable[dict]:
    """Chrome trace-event records for one profile payload.

    One "process" holds a ``phases`` span track (each phase's active
    span, ``first_cycle``..``last_cycle``) — loadable in the same
    Perfetto view as the packet tracer's node tracks.  ``pid`` defaults
    far above the tracer's node-derived process ids so the tracks never
    collide.
    """
    prefix = f"{label}:" if label else ""
    yield {
        "ph": "M", "name": "process_name", "pid": pid,
        "args": {"name": f"{prefix}phase profile"},
    }
    for tid, (name, e) in enumerate(sorted(payload["phases"].items())):
        yield {
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": f"phase {name}"},
        }
        yield {
            "ph": "X", "name": name, "cat": "phase",
            "pid": pid, "tid": tid,
            "ts": e["first_cycle"], "dur": e["span_cycles"],
            "args": {
                "launches": e["launches"],
                "deliveries": e["deliveries"],
                "busy_cycles": e["busy_cycles"],
                "busy_share": e["busy_share"],
            },
        }


def merge_profiles(payloads: Iterable[dict]) -> dict:
    """Aggregate several per-point profile payloads into one summary.

    Sums counts and busy cycles per phase across points (host-time
    estimates are summed too); spans are not merged — ``first``/``last``
    cycles are meaningless across independent simulations.
    """
    phases: dict[str, dict] = {}
    total_busy = 0.0
    wall = 0.0
    cpu = 0.0
    points = 0
    have_wall = False
    have_cpu = False
    for p in payloads:
        points += 1
        total_busy += p.get("total_busy_cycles", 0.0)
        if "wall_s" in p:
            wall += p["wall_s"]
            have_wall = True
        if "cpu_s" in p:
            cpu += p["cpu_s"]
            have_cpu = True
        for name, e in p.get("phases", {}).items():
            agg = phases.get(name)
            if agg is None:
                agg = phases[name] = {
                    "launches": 0,
                    "deliveries": 0,
                    "final_deliveries": 0,
                    "busy_cycles": 0.0,
                    "wall_s_est": 0.0,
                    "cpu_s_est": 0.0,
                }
            agg["launches"] += e["launches"]
            agg["deliveries"] += e["deliveries"]
            agg["final_deliveries"] += e["final_deliveries"]
            agg["busy_cycles"] += e["busy_cycles"]
            agg["wall_s_est"] += e.get("wall_s_est", 0.0)
            agg["cpu_s_est"] += e.get("cpu_s_est", 0.0)
    for agg in phases.values():
        agg["busy_share"] = (
            agg["busy_cycles"] / total_busy if total_busy > 0 else 0.0
        )
    out = {
        "schema": PROFILE_SCHEMA,
        "points": points,
        "total_busy_cycles": total_busy,
        "phases": {k: phases[k] for k in sorted(phases)},
    }
    if have_wall:
        out["wall_s"] = wall
    if have_cpu:
        out["cpu_s"] = cpu
    return out
