"""Provenance records, obs context, config validation, logging setup."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs import (
    ObsConfig,
    active_config,
    collect,
    config_fingerprint,
    git_describe,
    observe,
    provenance_record,
    setup_logging,
)


class TestObsConfig:
    def test_disabled_by_default(self):
        cfg = ObsConfig()
        assert not cfg.enabled

    def test_enabled_when_any_layer_on(self):
        assert ObsConfig(trace=True).enabled
        assert ObsConfig(metrics=True).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(trace_sample=0)
        for bad in (1.5, float("nan")):
            with pytest.raises(TypeError, match="trace_sample"):
                ObsConfig(trace_sample=bad)
        cfg = ObsConfig(trace_sample=4.0)
        assert cfg.trace_sample == 4 and type(cfg.trace_sample) is int


class TestContext:
    def test_inactive_by_default(self):
        assert active_config() is None
        collect("p", {"trace": {}})  # no-op, must not raise

    def test_observe_activates_and_restores(self):
        cfg = ObsConfig(trace=True)
        with observe(cfg) as got:
            assert active_config() is cfg
            collect("p0", {"trace": {"total": 1}})
            assert got == [{"trace": {"total": 1}, "point": "p0"}]
        assert active_config() is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observe(ObsConfig(metrics=True)):
                raise RuntimeError("boom")
        assert active_config() is None


class TestProvenance:
    def test_fingerprint_depends_on_keys_and_order(self):
        a = config_fingerprint(["k1", "k2"])
        assert a == config_fingerprint(["k1", "k2"])
        assert a != config_fingerprint(["k2", "k1"])
        assert a != config_fingerprint(["k1"])

    def test_git_describe_returns_nonempty_string(self):
        assert git_describe()
        assert isinstance(git_describe(), str)

    def test_git_describe_degrades_when_git_is_missing(self, monkeypatch):
        import subprocess

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        git_describe.cache_clear()
        try:
            assert git_describe() == "unavailable"
        finally:
            git_describe.cache_clear()

    def test_git_describe_degrades_on_timeout(self, monkeypatch):
        import subprocess

        def wedged(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout", 5))

        monkeypatch.setattr(subprocess, "run", wedged)
        git_describe.cache_clear()
        try:
            assert git_describe() == "unavailable"
        finally:
            git_describe.cache_clear()

    def test_record_is_json_native(self):
        rec = provenance_record(
            schema_version=1,
            seed=3,
            scale="tiny",
            point_keys=["a", "b"],
            wall_s=1.23456,
            simulated_cycles=1000.0,
            simulated_events=42,
            points_simulated=1,
            points_cached=1,
        )
        assert json.loads(json.dumps(rec)) == rec
        assert rec["points"] == 2
        assert rec["seed"] == 3
        assert rec["wall_s"] == 1.2346
        # Supervision counters default to a clean, complete run.
        assert rec["points_failed"] == 0
        assert rec["retries"] == 0
        assert rec["timeouts"] == 0
        assert rec["quarantined"] == 0

    def test_record_carries_supervision_counters(self):
        rec = provenance_record(
            schema_version=1,
            seed=0,
            scale="tiny",
            point_keys=["a"],
            wall_s=0.1,
            simulated_cycles=1.0,
            simulated_events=1,
            points_simulated=1,
            points_cached=0,
            retries=3,
            timeouts=2,
            quarantined=1,
            points_failed=1,
        )
        assert rec["retries"] == 3
        assert rec["timeouts"] == 2
        assert rec["quarantined"] == 1
        assert rec["points_failed"] == 1

    def test_run_experiment_attaches_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.experiments.registry import run_experiment
        from repro.runner import SCHEMA_VERSION, counters

        counters.reset()
        result = run_experiment("fig5_vmesh_pred", scale="tiny", seed=0)
        prov = result.provenance
        assert prov is not None
        assert prov["schema_version"] == SCHEMA_VERSION
        assert prov["scale"] == "tiny"
        assert prov["points"] == (
            prov["points_simulated"] + prov["points_cached"]
        )
        assert prov["wall_s"] >= 0.0
        # Same experiment again: identical config fingerprint.
        again = run_experiment("fig5_vmesh_pred", scale="tiny", seed=0)
        assert (
            again.provenance["config_fingerprint"]
            == prov["config_fingerprint"]
        )


class TestLogging:
    @pytest.fixture(autouse=True)
    def _restore_repro_logger(self):
        logger = logging.getLogger("repro")
        handlers = list(logger.handlers)
        level = logger.level
        propagate = logger.propagate
        yield
        logger.handlers[:] = handlers
        logger.setLevel(level)
        logger.propagate = propagate

    def test_levels(self):
        logger = setup_logging(0)
        assert logger.level == logging.WARNING
        assert setup_logging(-1).level == logging.ERROR
        assert setup_logging(1).level == logging.INFO
        assert setup_logging(2).level == logging.DEBUG

    def test_idempotent_handler(self):
        setup_logging(0)
        logger = setup_logging(1)
        cli_handlers = [
            h for h in logger.handlers if getattr(h, "_repro_cli", False)
        ]
        assert len(cli_handlers) == 1
