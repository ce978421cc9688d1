"""The differential harness: three engines, one verdict."""

import pytest

from repro.check import (
    CheckConfig,
    DifferentialReport,
    ToleranceBands,
    default_bands,
)
from repro.check.differential import (
    differential_point,
    differential_points,
    functional_leg,
    model_leg,
)
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.runner.point import SimPoint
from repro.runner.pool import counters
from repro.strategies import ARDirect, TwoPhaseSchedule, VirtualMesh2D


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    counters.reset()
    yield
    counters.reset()


def _point(strategy=None, shape="4x4", msg=128, seed=0, faults=None):
    return SimPoint(
        strategy or ARDirect(),
        TorusShape.parse(shape),
        msg,
        seed=seed,
        faults=faults,
    )


class TestCleanPoints:
    def test_direct_point_agrees(self):
        report = differential_point(_point())
        assert report.ok, report.failures
        assert report.model_checked
        assert report.functional_ok
        assert 0 < report.ratio
        assert "OK" in report.summary()

    def test_indirect_point_agrees(self):
        report = differential_point(_point(TwoPhaseSchedule(), "2x4x4"))
        assert report.ok, report.failures

    def test_faulty_point_skips_model_leg(self):
        shape = TorusShape.parse("4x4")
        plan = FaultPlan.random(
            shape, seed=3, loss_prob=0.05, retx_timeout_cycles=2000.0
        )
        report = differential_point(_point(shape="4x4", faults=plan))
        assert report.ok, report.failures
        assert not report.model_checked
        assert report.ratio == 0.0

    def test_batch_returns_reports_in_order(self):
        points = [
            _point(msg=64),
            _point(TwoPhaseSchedule(), "2x4x4", msg=100),
            _point(VirtualMesh2D(), "4x4", msg=32),
        ]
        reports = differential_points(points)
        assert len(reports) == 3
        assert all(r.ok for r in reports), [r.failures for r in reports]
        assert reports[1].label.startswith("TPS@")

    def test_checked_sim_leg_bypasses_cache(self):
        differential_point(_point())
        assert counters.simulated == 1
        assert counters.cache_stores == 0
        differential_point(_point())
        assert counters.simulated == 2
        assert counters.cache_hits == 0


class TestLegs:
    def test_model_leg_trips_on_tight_band(self):
        from repro.runner.pool import run_points

        run = run_points([_point()])[0]
        failures = model_leg(
            run, ToleranceBands(default=(0.999, 1.001))
        )
        assert failures and "ratio" in failures[0]

    def test_model_leg_passes_default_band(self):
        from repro.runner.pool import run_points

        run = run_points([_point()])[0]
        assert model_leg(run) == []

    def test_functional_leg_counts_cross_checked(self):
        from repro.runner.pool import run_points

        point = _point(TwoPhaseSchedule(), "2x4x4", msg=100)
        run = run_points([point])[0]
        assert functional_leg(point, sim_run=run) == []

    def test_functional_leg_detects_count_mismatch(self):
        import dataclasses

        from repro.runner.pool import run_points

        point = _point()
        run = run_points([point])[0]
        tampered = dataclasses.replace(
            run,
            result=dataclasses.replace(
                run.result,
                delivered_packets=run.result.delivered_packets + 1,
            ),
        )
        failures = functional_leg(point, sim_run=tampered)
        assert failures and "delivered" in failures[0]

    def test_default_bands_cover_observed_sweep(self):
        bands = default_bands()
        lo, hi = bands.band_for("AR")
        # Observed fault-free extremes were 0.53 and 1.50; the defaults
        # must keep real margin beyond both (DESIGN.md section 11).
        assert lo <= 0.53 / 2
        assert hi >= 1.50 * 2

    def test_report_failure_summary(self):
        report = DifferentialReport(label="x", failures=["model: off"])
        assert not report.ok
        assert "FAILED" in report.summary()


class TestInvariantTripSurfacesAsFailure:
    def test_sabotaged_run_reports_not_raises(self):
        from repro.check.fuzz import broken_dedup

        shape = TorusShape.parse("4x4x2")
        plan = FaultPlan.random(
            shape, seed=3, loss_prob=0.05, retx_timeout_cycles=2000.0
        )
        point = _point(shape="4x4x2", msg=256, seed=1, faults=plan)
        with broken_dedup():
            report = differential_point(point, check=CheckConfig())
        assert not report.ok
        assert any("exactly_once" in f for f in report.failures)
