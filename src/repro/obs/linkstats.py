"""Link-level analytics over the per-link counters a run collects.

The instrumented networks attach a ``link_stats`` payload to
``SimulationResult.extras["obs"]`` when :attr:`ObsConfig.link_stats` is
set (and the plain core always carries ``link_busy_cycles`` /
``link_packets``).  This module turns those raw counters into the
numbers the paper actually reports:

* per-axis **percent of peak** link utilization — busy cycles divided by
  the axis's aggregate link-cycle capacity over the run (a link
  transmitting is running at full link bandwidth, so its busy fraction
  *is* its fraction of theoretical peak; the paper's ~98 % claim is this
  number on the bottleneck axis);
* per-**phase** utilization (the strategy traffic-class markers:
  ``tps1``/``tps2``/``vmesh1``/... — how much of each axis each phase
  consumed);
* congestion **hot-spots** — links ranked by busy fraction, with stall
  cycles and queue pressure attached;
* a **model diff** against the analytic
  :func:`repro.model.linkload.uniform_link_loads` prediction: the ratio
  of measured wire bytes to predicted payload bytes per link must be the
  same wire-overhead factor on every axis, so unequal ratios localize a
  load imbalance to an axis.

Everything here is pure post-processing: no simulator state, plain
dict/numpy in, plain dicts out (JSON-ready for the report sidecar).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.model.linkload import uniform_link_loads
from repro.model.torus import TorusShape

AXIS_NAMES = ("x", "y", "z", "w", "v", "u")

#: Fallback wire-overhead band for the measured/predicted byte ratio on
#: a pristine uniform all-to-all when no :class:`MachineParams` is
#: available to compute the exact packetization overhead: header bytes
#: plus packet-size rounding put the ratio strictly above 1.0 and (for
#: the BG/L 48 B header on a >= 64 B payload) at or below 2.0.
DEFAULT_RATIO_BOUNDS = (1.0, 2.0)
#: Max relative spread between per-axis ratios: the overhead factor is
#: common to all axes, so on a calibrated run the spread is ~0 (measured
#: 0.0 on 4x4x2/4x4x4/8x4x4 sweeps over 64..4096 B messages); 5 % leaves
#: room for mesh-dimension edge effects.
DEFAULT_AXIS_SPREAD = 0.05
#: Relative half-width of the ratio band around the exact packetization
#: overhead when MachineParams are supplied.
DEFAULT_RATIO_RTOL = 0.10


_LABEL_RE = re.compile(
    r"^(?P<name>.+)@(?P<dims>\d+(?:x\d+)*)/(?P<msg>\d+)B/"
    r"seed(?P<seed>\d+)(?P<faulty>/faulty)?$"
)


def parse_point_label(label: str) -> dict:
    """Parse a :func:`repro.runner.pool.point_label` string.

    Returns ``{"strategy", "dims", "msg_bytes", "seed", "faulty"}``.
    The format is pinned by a round-trip test against ``point_label``.
    """
    m = _LABEL_RE.match(label)
    if m is None:
        raise ValueError(f"unparseable point label: {label!r}")
    return {
        "strategy": m.group("name"),
        "dims": tuple(int(d) for d in m.group("dims").split("x")),
        "msg_bytes": int(m.group("msg")),
        "seed": int(m.group("seed")),
        "faulty": m.group("faulty") is not None,
    }


@dataclass(frozen=True)
class LinkAnalytics:
    """Per-link counters of one run, reshaped for analysis.

    All link arrays are ``(nnodes, ndirs)`` with the simulator's flat
    link layout (``li = node * ndirs + direction``; direction ``2a`` is
    the + face of axis ``a``, ``2a + 1`` the - face).
    """

    shape: TorusShape
    time_cycles: float
    beta: float
    nvcs: int
    #: Surviving directed links per axis (== ``links_in_dim`` pristine).
    links_per_axis: tuple[int, ...]
    busy_cycles: np.ndarray
    packets: np.ndarray
    #: Extended counters — present only on ``link_stats`` runs.
    wire_bytes: Optional[np.ndarray] = None
    vc_packets: Optional[np.ndarray] = None
    stall_cycles: Optional[np.ndarray] = None
    drops: Optional[np.ndarray] = None
    retx_by_node: Optional[np.ndarray] = None
    phase_busy: dict = field(default_factory=dict)
    injected_wire_bytes: int = 0
    #: ``asdict(MachineParams)`` of the simulated machine, when the
    #: payload carried it — lets the model diff reconstruct the exact
    #: packetization overhead.
    machine: Optional[dict] = None

    # -------------------------------------------------------------- #
    # constructors
    # -------------------------------------------------------------- #

    @classmethod
    def from_payload(cls, payload: dict) -> "LinkAnalytics":
        """Build from an ``extras["obs"]["link_stats"]`` dict (fresh or
        decoded from the JSON sidecar/cache)."""
        shape = TorusShape(tuple(payload["dims"]), tuple(payload["torus"]))
        p, ndirs = shape.nnodes, int(payload["ndirs"])
        nvcs = int(payload["nvcs"])

        def grid(key: str, dtype) -> np.ndarray:
            return np.asarray(payload[key], dtype=dtype).reshape(p, ndirs)

        return cls(
            shape=shape,
            time_cycles=float(payload["time_cycles"]),
            beta=float(payload["beta"]),
            nvcs=nvcs,
            links_per_axis=tuple(int(n) for n in payload["links_per_axis"]),
            busy_cycles=grid("busy_cycles", np.float64),
            packets=grid("packets", np.int64),
            wire_bytes=grid("wire_bytes", np.int64),
            vc_packets=np.asarray(
                payload["vc_packets"], dtype=np.int64
            ).reshape(p * ndirs, nvcs),
            stall_cycles=grid("stall_cycles", np.float64),
            drops=grid("drops", np.int64),
            retx_by_node=np.asarray(payload["retx_by_node"], dtype=np.int64),
            phase_busy={
                k: list(v) for k, v in payload["phase_busy"].items()
            },
            injected_wire_bytes=int(payload["injected_wire_bytes"]),
            machine=payload.get("machine"),
        )

    @classmethod
    def from_result(
        cls, result: Any, shape: TorusShape, beta: float
    ) -> "LinkAnalytics":
        """Build the always-available subset from a plain
        :class:`~repro.net.trace.SimulationResult` (no ``link_stats``
        payload needed: the core collects busy cycles and packet counts
        on every run).  Prefers the full payload when present.

        Raises ``ValueError`` when *shape* cannot be the one the run
        simulated: the busy matrix is (nnodes, 2*ndim), and a mismatched
        shape would misattribute columns to the wrong axis.  A shape of
        the same node count and dimensionality (other torus flags, say)
        cannot be told apart from the matrix and passes."""
        nnodes, ncols = result.link_busy_cycles.shape
        if shape.nnodes != nnodes or 2 * shape.ndim != ncols:
            raise ValueError(
                f"shape {shape.dims} (nnodes={shape.nnodes}, "
                f"ndim={shape.ndim}) does not match this run's busy "
                f"matrix of {nnodes} nodes x {ncols} directions"
            )
        obs = result.extras.get("obs") if isinstance(result.extras, dict) else None
        if obs and "link_stats" in obs:
            return cls.from_payload(obs["link_stats"])
        packets = result.link_packets
        if packets is None:
            packets = np.zeros_like(result.link_busy_cycles, dtype=np.int64)
        return cls(
            shape=shape,
            time_cycles=float(result.time_cycles),
            beta=beta,
            nvcs=0,
            links_per_axis=tuple(
                shape.links_in_dim(a) for a in range(shape.ndim)
            ),
            busy_cycles=np.asarray(result.link_busy_cycles, dtype=np.float64),
            packets=np.asarray(packets, dtype=np.int64),
            injected_wire_bytes=int(result.injected_wire_bytes),
        )

    # -------------------------------------------------------------- #
    # utilization / percent of peak
    # -------------------------------------------------------------- #

    def utilization(self) -> np.ndarray:
        """Busy fraction of every directed link over the run."""
        if self.time_cycles <= 0:
            return np.zeros_like(self.busy_cycles)
        return self.busy_cycles / self.time_cycles

    def axis_percent_of_peak(self) -> list[float]:
        """Percent of aggregate link capacity each axis sustained.

        100 * (axis busy cycles) / (time_cycles * directed links in the
        axis).  A busy link streams at the full link rate, so this is a
        true percent-of-peak-bandwidth, the paper's headline metric.
        """
        out = []
        for a in range(self.shape.ndim):
            nlinks = self.links_per_axis[a]
            denom = self.time_cycles * nlinks
            busy = float(self.busy_cycles[:, 2 * a : 2 * a + 2].sum())
            out.append(100.0 * busy / denom if denom > 0 else 0.0)
        return out

    def percent_of_peak(self) -> float:
        """Percent of peak on the bottleneck (hottest) axis.

        The all-to-all finishes when the most-loaded axis drains, so the
        bottleneck axis's sustained fraction is *the* percent-of-peak
        figure (Section 2.1's Eq. 2 denominator is that axis's
        capacity)."""
        per_axis = self.axis_percent_of_peak()
        return max(per_axis) if per_axis else 0.0

    def phase_table(self) -> list[dict]:
        """Per-phase percent-of-peak rows (one per traffic-class marker).

        Requires a ``link_stats`` run; empty list otherwise."""
        rows = []
        for phase, per_axis_busy in sorted(self.phase_busy.items()):
            row = {"phase": phase}
            total = 0.0
            for a in range(self.shape.ndim):
                busy = float(per_axis_busy[a])
                total += busy
                denom = self.time_cycles * self.links_per_axis[a]
                row[f"pct_peak_{AXIS_NAMES[a]}"] = (
                    100.0 * busy / denom if denom > 0 else 0.0
                )
            row["busy_cycles"] = total
            rows.append(row)
        return rows

    # -------------------------------------------------------------- #
    # hot spots
    # -------------------------------------------------------------- #

    def hotspots(self, top: int = 10) -> list[dict]:
        """The *top* most-loaded links, hottest first.

        Each entry names the link (node, coords, direction), its busy
        fraction, packet count, and — on ``link_stats`` runs — its wire
        bytes, stall cycles and drops."""
        util = self.utilization()
        p, ndirs = util.shape
        flat = util.ravel()
        order = np.argsort(flat, kind="stable")[::-1][:top]
        out = []
        for li in order:
            li = int(li)
            if flat[li] <= 0.0:
                break
            u, d = divmod(li, ndirs)
            axis = d >> 1
            entry = {
                "node": u,
                "coords": list(self.shape.coord(u)),
                "direction": f"{AXIS_NAMES[axis]}{'+' if d % 2 == 0 else '-'}",
                "axis": AXIS_NAMES[axis],
                "utilization": float(flat[li]),
                "busy_cycles": float(self.busy_cycles[u, d]),
                "packets": int(self.packets[u, d]),
            }
            if self.wire_bytes is not None:
                entry["wire_bytes"] = int(self.wire_bytes[u, d])
            if self.stall_cycles is not None:
                entry["stall_cycles"] = float(self.stall_cycles[u, d])
            if self.drops is not None:
                entry["drops"] = int(self.drops[u, d])
            out.append(entry)
        return out

    # -------------------------------------------------------------- #
    # analytic-model diff
    # -------------------------------------------------------------- #

    def model_comparison(
        self,
        msg_bytes: int,
        params: Any = None,
        ratio_bounds: Optional[tuple[float, float]] = None,
        axis_spread: float = DEFAULT_AXIS_SPREAD,
    ) -> dict:
        """Diff measured per-link byte loads against the analytic model.

        :func:`repro.model.linkload.uniform_link_loads` predicts the
        *payload* bytes each directed link carries for a uniform
        all-to-all of ``msg_bytes`` per pair.  Measured wire bytes add a
        packet-header + rounding overhead that is *common to all axes*,
        so the per-axis measured/predicted ratios must (a) each sit
        inside the expected overhead band and (b) agree with each other
        within ``axis_spread`` (relative).  An axis whose ratio drifts
        from its peers carries misrouted or imbalanced load.

        With *params* (a :class:`~repro.model.machine.MachineParams`)
        the band is the *exact* single-message packetization overhead
        ``message_wire_bytes(m)/m`` within
        :data:`DEFAULT_RATIO_RTOL`; multi-phase strategies that
        repacketize en route (TPS/VMesh) need the looser default band.
        Requires a ``link_stats`` run (``wire_bytes``).
        """
        if params is None and self.machine is not None:
            from repro.model.machine import MachineParams

            params = MachineParams(**self.machine)
        if ratio_bounds is None:
            if params is not None:
                expected = params.message_wire_bytes(msg_bytes) / msg_bytes
                ratio_bounds = (
                    expected * (1.0 - DEFAULT_RATIO_RTOL),
                    expected * (1.0 + DEFAULT_RATIO_RTOL),
                )
            else:
                ratio_bounds = DEFAULT_RATIO_BOUNDS
        if self.wire_bytes is None:
            raise ValueError(
                "model_comparison requires a link_stats run (no wire-byte "
                "counters on this result)"
            )
        predicted = uniform_link_loads(self.shape, float(msg_bytes))
        per_axis = []
        ratios = []
        for a in range(self.shape.ndim):
            nlinks = self.links_per_axis[a]
            measured = (
                float(self.wire_bytes[:, 2 * a : 2 * a + 2].sum()) / nlinks
                if nlinks
                else 0.0
            )
            pred = float(predicted[a])
            ratio = measured / pred if pred > 0 else None
            if ratio is not None:
                ratios.append(ratio)
            per_axis.append(
                {
                    "axis": AXIS_NAMES[a],
                    "measured_bytes_per_link": measured,
                    "predicted_bytes_per_link": pred,
                    "ratio": ratio,
                }
            )
        if ratios:
            spread = (max(ratios) - min(ratios)) / max(ratios)
            in_bounds = all(
                ratio_bounds[0] <= r <= ratio_bounds[1] for r in ratios
            )
            agrees = in_bounds and spread <= axis_spread
        else:
            spread, agrees = 0.0, True
        return {
            "msg_bytes": msg_bytes,
            "per_axis": per_axis,
            "ratio_bounds": list(ratio_bounds),
            "axis_spread_tolerance": axis_spread,
            "axis_spread": spread,
            "agrees": agrees,
        }

    # -------------------------------------------------------------- #
    # summaries
    # -------------------------------------------------------------- #

    def summary(
        self, msg_bytes: Optional[int] = None, params: Any = None
    ) -> dict:
        """JSON-ready analytic summary of this run (the report sidecar's
        per-point payload)."""
        per_axis = self.axis_percent_of_peak()
        out: dict[str, Any] = {
            "time_cycles": self.time_cycles,
            "percent_of_peak": self.percent_of_peak(),
            "axis_percent_of_peak": {
                AXIS_NAMES[a]: per_axis[a] for a in range(self.shape.ndim)
            },
            "links_per_axis": {
                AXIS_NAMES[a]: self.links_per_axis[a]
                for a in range(self.shape.ndim)
            },
            "total_packets": int(self.packets.sum()),
            "hotspots": self.hotspots(),
            "phases": self.phase_table(),
        }
        if self.stall_cycles is not None:
            out["total_stall_cycles"] = float(self.stall_cycles.sum())
        if self.drops is not None:
            out["total_drops"] = int(self.drops.sum())
        if self.retx_by_node is not None:
            out["total_retx"] = int(self.retx_by_node.sum())
        if msg_bytes is not None and self.wire_bytes is not None:
            out["model"] = self.model_comparison(msg_bytes, params=params)
        return out

    def axis_node_utilization(self, axis: int) -> np.ndarray:
        """Per-node busy fraction on *axis* (mean of the node's two
        directed links) — the heatmap raster."""
        if self.time_cycles <= 0:
            return np.zeros(self.shape.nnodes)
        busy = self.busy_cycles[:, 2 * axis : 2 * axis + 2]
        return busy.mean(axis=1) / self.time_cycles
