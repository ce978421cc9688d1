"""Differential cross-checks: simulator vs analytic model vs functional.

Three independent implementations of the same all-to-all exist in this
repository.  :func:`differential_point` runs one
:class:`~repro.runner.point.SimPoint` through all three and reports every
divergence with the full configuration:

* **simulator leg** — the point runs through :func:`repro.runner.run_points`
  on the oracle-checked network (so every invariant in
  :mod:`repro.check.oracle` is enforced along the way); an
  :class:`~repro.net.errors.SimulationError` — including
  :class:`~repro.check.oracle.InvariantError` — becomes a reported failure
  rather than an exception, so fuzzing can shrink it.
* **model leg** — the measured completion time must sit inside a
  per-strategy tolerance band around the strategy's own
  ``predict_cycles``.  The bands are wide by design: DESIGN.md §5 places
  the simulator at fidelity tier 2 and §7 documents deviations up to ~3x
  against both the closed-form model and the paper's hardware numbers at
  extreme points (short messages, where per-packet overheads dominate,
  and deep saturation).  The band's job is to catch *gross* disagreement —
  an off-by-``nnodes`` accounting bug, a misrouted phase — not to assert
  calibration; §11 records the measured ratio ranges the defaults were
  derived from.  Fault plans invalidate the analytic model's assumptions
  (it knows nothing of reroutes or retransmission), so the model leg is
  skipped for faulty points.
* **functional leg** — the same strategy/shape/message/seed/faults runs
  through :func:`repro.functional.verify.run_and_verify`, which checks the
  exact payload permutation (every ordered pair covered exactly once).
  On loss-free points the simulator's delivered-packet count must also
  agree exactly with the functional engine's — same program, same specs,
  every materialized packet consumed exactly once in both.  Lossy points
  draw different loss/retransmission outcomes in the two engines, so
  only the postcondition (not the count) is compared there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

from repro.check.config import CheckConfig
from repro.net.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.point import SimPoint


@dataclass(frozen=True)
class ToleranceBands:
    """Acceptable measured/predicted cycle ratios, per strategy.

    ``default`` applies to any strategy without an entry in
    ``per_strategy``.  A band ``(lo, hi)`` accepts runs with
    ``lo <= measured / predicted <= hi``.
    """

    default: Tuple[float, float] = (0.25, 4.0)
    per_strategy: Mapping[str, Tuple[float, float]] = field(
        default_factory=dict
    )

    def band_for(self, strategy_name: str) -> Tuple[float, float]:
        """The band applying to *strategy_name*."""
        return self.per_strategy.get(strategy_name, self.default)


def default_bands() -> ToleranceBands:
    """Bands derived from sweeping measured/predicted over the fuzz domain
    (shapes to 64 nodes, 8 B – 16 KiB messages; see DESIGN.md §11).

    A fault-free sweep over every strategy x {8 B, 256 B, 4 KiB} x eight
    shapes (tori, meshes, rings, extent-1 and odd axes, up to 64 nodes)
    measured ratios from 0.53 (TPS on tiny shapes, where the halving trick
    has no traffic to win on) to 1.50 (DR on a 16-ring at 4 KiB, deep
    saturation), median 1.05.  The defaults leave >2.5x margin beyond both
    observed extremes so a band trip means a new *gross* divergence —
    an off-by-``nnodes`` bug, a dropped phase — not calibration noise.
    """
    return ToleranceBands(
        default=(0.2, 6.0),
        per_strategy={},
    )


@dataclass
class DifferentialReport:
    """Outcome of cross-checking one point across the three engines."""

    label: str
    failures: list = field(default_factory=list)
    measured_cycles: float = 0.0
    predicted_cycles: float = 0.0
    model_checked: bool = False
    functional_ok: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def ratio(self) -> float:
        """measured / predicted (0 when the model leg was skipped —
        a faulty point's prediction is meaningless, don't report it)."""
        if not self.model_checked or self.predicted_cycles <= 0:
            return 0.0
        return self.measured_cycles / self.predicted_cycles

    def summary(self) -> str:
        """One-line verdict."""
        if self.ok:
            extra = (
                f", ratio {self.ratio:.2f}" if self.model_checked else ""
            )
            return f"{self.label}: OK{extra}"
        return f"{self.label}: FAILED — " + "; ".join(self.failures)


def model_leg(
    run, bands: Optional[ToleranceBands] = None
) -> list:
    """Check one measured run against its analytic prediction.

    Returns a (possibly empty) list of failure strings."""
    bands = bands or default_bands()
    predicted = run.predicted_cycles
    if predicted <= 0:
        return [
            f"model: nonpositive prediction {predicted!r} "
            f"for strategy {run.strategy}"
        ]
    lo, hi = bands.band_for(run.strategy)
    ratio = run.result.time_cycles / predicted
    if not lo <= ratio <= hi:
        return [
            f"model: measured/predicted ratio {ratio:.3f} outside "
            f"[{lo}, {hi}] (measured {run.result.time_cycles:.0f}, "
            f"predicted {predicted:.0f}, strategy {run.strategy})"
        ]
    return []


def functional_leg(point: "SimPoint", sim_run=None) -> list:
    """Run the point's exchange through the functional engine and verify
    the payload permutation; on loss-free points also cross-check the
    simulator's packet accounting when *sim_run* is given.

    Returns a (possibly empty) list of failure strings."""
    from repro.functional.verify import run_and_verify

    try:
        func, report = run_and_verify(
            point.strategy,
            point.shape,
            point.msg_bytes,
            params=point.params,
            seed=point.seed,
            faults=point.faults,
        )
    except Exception as exc:  # loud engine errors become failures
        return [f"functional: {type(exc).__name__}: {exc}"]
    failures = []
    if not report.ok:
        failures.append(f"functional: {report.summary()}")
    lossy = point.faults is not None and point.faults.has_loss
    if sim_run is not None and not lossy:
        st = sim_run.result
        # Delivered counts agree exactly across the two engines on
        # loss-free points (every injected packet is consumed once in
        # both).  Forwarded counts deliberately do NOT: VMesh/credited-TPS
        # phase 2 is a re-injection to the simulator but an
        # ``on_delivery`` forward to the functional engine.
        if st.delivered_packets != func.packets_delivered:
            failures.append(
                "functional: simulator delivered "
                f"{st.delivered_packets} packets but the functional "
                f"engine delivered {func.packets_delivered}"
            )
    return failures


def differential_points(
    points,
    bands: Optional[ToleranceBands] = None,
    check: Optional[CheckConfig] = None,
    jobs: Optional[int] = 1,
) -> list:
    """Cross-check a batch of points; returns one
    :class:`DifferentialReport` per point, in input order.

    The simulator legs go through :func:`repro.runner.run_points` as one
    batch (oracle-checked, cache bypassed), so ``jobs > 1`` runs them on
    the process pool.  If the batch raises — an invariant trip anywhere
    aborts a pooled map without naming the culprit — every point is
    re-run in isolation to attribute the failure.  Never raises for a
    divergence: every failed leg lands in ``report.failures`` so callers
    (the fuzz driver) can shrink and report."""
    # Lazy: repro.runner imports this package for the check context.
    from repro.runner.pool import point_label, run_points

    points = list(points)
    check = check if check is not None else CheckConfig()
    reports = [DifferentialReport(label=point_label(p)) for p in points]
    runs: list = [None] * len(points)
    try:
        runs = list(run_points(points, jobs=jobs, check=check))
    except SimulationError:
        for i, point in enumerate(points):
            try:
                runs[i] = run_points([point], jobs=1, check=check)[0]
            except SimulationError as exc:
                reports[i].failures.append(
                    f"simulator: {type(exc).__name__}: {exc}"
                )
    for point, run, report in zip(points, runs, reports):
        if run is not None:
            report.measured_cycles = run.result.time_cycles
            report.predicted_cycles = run.predicted_cycles
            faulty = point.faults is not None and not point.faults.is_empty
            if not faulty:
                report.model_checked = True
                report.failures.extend(model_leg(run, bands))
        func_failures = functional_leg(point, sim_run=run)
        report.functional_ok = not func_failures
        report.failures.extend(func_failures)
    return reports


def differential_point(
    point: "SimPoint",
    bands: Optional[ToleranceBands] = None,
    check: Optional[CheckConfig] = None,
    jobs: Optional[int] = 1,
) -> DifferentialReport:
    """Cross-check one point: oracle-checked simulation, model band,
    functional permutation.  See :func:`differential_points`."""
    return differential_points([point], bands, check, jobs)[0]
