"""Supervision layer: watchdog, chaos, retries, journal, run_sweep."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.runner.supervise as supervise
from repro.model.torus import TorusShape
from repro.runner import (
    SimPoint,
    counters,
    encode_run,
    point_key,
    run_points,
    run_sweep,
)
from repro.runner.supervise import (
    ChaosPlan,
    PointTimeoutError,
    SuperviseConfig,
    SweepIncompleteError,
    SweepJournal,
    active_supervision,
    backoff_for,
    derive_timeout,
    resolve_supervision,
    supervising,
    watchdog,
)
from repro.strategies import ARDirect, DRDirect
from repro.util.jsonl import read_records

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
    counters.reset()
    yield
    counters.reset()


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries without the production backoff pauses."""
    monkeypatch.setattr(supervise, "BACKOFF_S", 0.01)


def _points(n=3):
    return [
        SimPoint(
            strategy=ARDirect() if i % 2 == 0 else DRDirect(),
            shape=TorusShape.parse("2x2"),
            msg_bytes=16 + 16 * i,
            seed=1,
        )
        for i in range(n)
    ]


def _bits(runs):
    return [json.dumps(encode_run(r), sort_keys=True) for r in runs]


class TestChaosPlan:
    def test_parse_full_spec(self):
        plan = ChaosPlan.parse("kill:0.05,hang:0.02,seed=3,hang_s:9")
        assert plan.kill_prob == 0.05
        assert plan.hang_prob == 0.02
        assert plan.seed == 3
        assert plan.hang_s == 9.0
        assert plan.enabled

    def test_separators_interchangeable(self):
        assert ChaosPlan.parse("kill=0.1") == ChaosPlan.parse("kill:0.1")

    def test_bad_field_and_value_raise(self):
        with pytest.raises(ValueError, match="unknown chaos field"):
            ChaosPlan.parse("explode:0.5")
        with pytest.raises(ValueError, match="bad chaos value"):
            ChaosPlan.parse("kill:lots")
        with pytest.raises(ValueError, match="name:value"):
            ChaosPlan.parse("kill")

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            ChaosPlan(kill_prob=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(hang_prob=-0.1)

    def test_disabled_by_default(self):
        assert not ChaosPlan().enabled

    def test_decide_is_deterministic_and_rerolls_per_attempt(self):
        plan = ChaosPlan(kill_prob=0.5, seed=7)
        fates1 = [plan.decide(f"k{i}", 1) for i in range(200)]
        fates2 = [plan.decide(f"k{i}", 1) for i in range(200)]
        assert fates1 == fates2
        kills = sum(1 for f in fates1 if f == "kill")
        assert 60 < kills < 140  # ~0.5 of 200
        # Retries re-roll: at least one key flips fate across attempts.
        assert any(
            plan.decide(f"k{i}", 1) != plan.decide(f"k{i}", 2)
            for i in range(50)
        )

    def test_decide_depends_on_seed(self):
        a = ChaosPlan(kill_prob=0.5, seed=0)
        b = ChaosPlan(kill_prob=0.5, seed=1)
        assert any(
            a.decide(f"k{i}", 1) != b.decide(f"k{i}", 1) for i in range(50)
        )


class TestWatchdog:
    def test_interrupts_a_sleep(self):
        t0 = time.monotonic()
        with pytest.raises(PointTimeoutError, match="wall-clock limit"):
            with watchdog(0.1, "test sleep"):
                time.sleep(10)
        assert time.monotonic() - t0 < 5.0

    def test_noop_without_timeout(self):
        with watchdog(None):
            pass
        with watchdog(0):
            pass

    def test_fast_block_passes(self):
        with watchdog(5.0):
            x = sum(range(100))
        assert x == 4950

    def test_nested_inner_fires(self):
        with watchdog(30.0, "outer"):
            with pytest.raises(PointTimeoutError, match="inner"):
                with watchdog(0.05, "inner"):
                    time.sleep(10)

    def test_nested_outer_rearmed_after_inner_exits(self):
        with pytest.raises(PointTimeoutError, match="outer"):
            with watchdog(0.2, "outer"):
                with watchdog(10.0, "inner"):
                    pass  # inner exits clean; outer must still fire
                time.sleep(10)


class TestConfig:
    def test_derived_timeout_scales_with_cost(self):
        small = SimPoint(ARDirect(), TorusShape.parse("2x2"), 16, seed=1)
        big = SimPoint(ARDirect(), TorusShape.parse("4x4x4"), 4096, seed=1)
        assert derive_timeout(big) > derive_timeout(small) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SuperviseConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SuperviseConfig(point_timeout_s=0.0)

    def test_backoff_schedule_is_exponential_and_deterministic(self):
        assert backoff_for(2) == 0.25
        assert backoff_for(3) == 0.5
        assert backoff_for(4) == 1.0

    def test_inactive_config_has_no_timeout(self):
        cfg = SuperviseConfig()
        assert not cfg.is_active
        p = _points(1)[0]
        assert cfg.timeout_for(p) is None

    def test_explicit_timeout_beats_derived(self):
        cfg = SuperviseConfig(point_timeout_s=7.0)
        assert cfg.is_active
        assert cfg.timeout_for(_points(1)[0]) == 7.0

    def test_active_config_derives_timeout(self, tmp_path):
        cfg = SuperviseConfig(journal=tmp_path / "j.jsonl")
        p = _points(1)[0]
        assert cfg.timeout_for(p) == derive_timeout(p)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_CHAOS", "kill:0.1,seed=4")
        cfg = SuperviseConfig.from_env()
        assert cfg.point_timeout_s == 12.5
        assert cfg.chaos == ChaosPlan(kill_prob=0.1, seed=4)
        # Explicit overrides win.
        cfg2 = SuperviseConfig.from_env(point_timeout_s=1.0)
        assert cfg2.point_timeout_s == 1.0

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_POINT_TIMEOUT"):
            SuperviseConfig.from_env()

    def test_supervising_context(self):
        assert active_supervision() is None
        cfg = SuperviseConfig(point_timeout_s=5.0)
        with supervising(cfg):
            assert active_supervision() is cfg
            assert resolve_supervision() is cfg
            explicit = SuperviseConfig(point_timeout_s=1.0)
            assert resolve_supervision(explicit) is explicit
        assert active_supervision() is None


class TestJournal:
    def test_torn_final_line_is_skipped_and_terminated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as j:
            assert j.note({"kind": "heartbeat", "key": "k1"})
        # Simulate SIGKILL mid-write: a partial record, no newline.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"heartbeat","key":"k2","elap')
        # Appending after the torn write must not splice records.
        with SweepJournal(path) as j:
            assert j.note({"kind": "heartbeat", "key": "k3"})
        notes = read_records(path, "journal", lambda header: None, ("heartbeat",))
        assert [rec["key"] for _, rec in notes] == ["k1", "k3"]


class TestRunSweepChaos:
    def test_sequential_chaos_kill_converges_bit_identically(
        self, fast_backoff
    ):
        pts = _points(3)
        clean = run_points(pts, jobs=1)
        counters.reset()
        cfg = SuperviseConfig(
            chaos=ChaosPlan(kill_prob=0.4, seed=2),
            max_attempts=10,
        )
        sweep = run_sweep(pts, jobs=1, supervise=cfg)
        assert sweep.complete, sweep.failures
        # Cache was warm from the clean run; chaos runs still went
        # through it, so results must be byte-identical regardless.
        assert _bits(sweep.runs) == _bits(clean)

    def test_sequential_chaos_kill_cold_cache(
        self, monkeypatch, fast_backoff
    ):
        pts = _points(3)
        clean = run_points(pts, jobs=1)
        monkeypatch.setenv("REPRO_CACHE", "0")
        counters.reset()
        cfg = SuperviseConfig(
            chaos=ChaosPlan(kill_prob=0.4, seed=2),
            max_attempts=10,
        )
        sweep = run_sweep(pts, jobs=1, supervise=cfg)
        assert sweep.complete, sweep.failures
        assert _bits(sweep.runs) == _bits(clean)
        assert counters.retries >= 1  # chaos actually struck

    @pytest.mark.slow
    def test_pooled_chaos_kill_survives_pool_breaks(
        self, monkeypatch, fast_backoff
    ):
        pts = _points(4)
        clean = run_points(pts, jobs=1)
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setattr(supervise, "QUARANTINE_STRIKES", 10)
        counters.reset()
        cfg = SuperviseConfig(
            chaos=ChaosPlan(kill_prob=0.4, seed=2),
            max_attempts=10,
        )
        sweep = run_sweep(pts, jobs=2, supervise=cfg)
        assert sweep.complete, sweep.failures
        assert _bits(sweep.runs) == _bits(clean)
        assert counters.pool_breaks >= 1

    def test_chaos_hang_trips_timeout_then_converges(
        self, monkeypatch, fast_backoff
    ):
        pts = _points(2)
        clean = run_points(pts, jobs=1)
        monkeypatch.setenv("REPRO_CACHE", "0")
        counters.reset()
        cfg = SuperviseConfig(
            chaos=ChaosPlan(hang_prob=0.5, seed=1, hang_s=30.0),
            point_timeout_s=0.5,
            max_attempts=10,
        )
        sweep = run_sweep(pts, jobs=1, supervise=cfg)
        assert sweep.complete, sweep.failures
        assert _bits(sweep.runs) == _bits(clean)
        assert counters.timeouts >= 1

    def test_graceful_exhaustion_returns_structured_failures(
        self, fast_backoff
    ):
        pts = _points(2)
        cfg = SuperviseConfig(
            chaos=ChaosPlan(kill_prob=1.0, seed=0),
            max_attempts=2,
        )
        sweep = run_sweep(pts, jobs=1, supervise=cfg)
        assert not sweep.complete
        assert sweep.completed == 0
        assert sweep.runs == [None, None]
        assert len(sweep.failures) == 2
        for f, p in zip(sweep.failures, pts):
            assert f.kind == "crash"
            assert f.attempts == 2
            assert f.key == point_key(p)
            d = f.to_dict()
            assert json.loads(json.dumps(d)) == d

    def test_strict_mode_raises_sweep_incomplete(self, fast_backoff):
        pts = _points(2)
        cfg = SuperviseConfig(
            chaos=ChaosPlan(kill_prob=1.0, seed=0),
            max_attempts=2,
        )
        with pytest.raises(SweepIncompleteError) as ei:
            run_points(pts, jobs=1, supervise=cfg)
        # The partial result rides along.
        assert len(ei.value.sweep.failures) == 2
        assert "crash" in str(ei.value)

    def test_deterministic_error_reraises_unchanged(self, monkeypatch):
        import repro.runner.pool as pool_mod

        def boom(point, obs, check):
            raise ZeroDivisionError("deterministic bug")

        monkeypatch.setattr(pool_mod, "_simulate_encoded", boom)
        pts = _points(1)
        cfg = SuperviseConfig(point_timeout_s=30.0)
        with pytest.raises(ZeroDivisionError, match="deterministic bug"):
            run_points(pts, jobs=1, supervise=cfg)
        # Graceful mode records it instead, without retrying.
        counters.reset()
        sweep = run_sweep(pts, jobs=1, supervise=cfg)
        assert len(sweep.failures) == 1
        assert sweep.failures[0].kind == "error"
        assert sweep.failures[0].attempts == 1
        assert counters.retries == 0


class TestResumeFromCache:
    def test_partial_cache_resumes_only_missing_points(self, tmp_path):
        pts = _points(3)
        clean = run_points(pts, jobs=1)
        # Drop one entry, as if the sweep died before that point landed.
        (entry,) = (tmp_path / "cache").rglob(f"{point_key(pts[1])}.json")
        entry.unlink()
        counters.reset()
        resumed = run_sweep(pts, jobs=1)
        assert resumed.complete
        assert counters.cache_hits == 2
        assert counters.simulated == 1
        assert _bits(resumed.runs) == _bits(clean)
        # The cache healed: the missing point is stored again.
        assert counters.cache_stores == 1
        assert entry.exists()


class TestRunSweepJournal:
    def test_journal_holds_only_header_and_heartbeats(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep = run_sweep(
            _points(3), jobs=1, supervise=SuperviseConfig(journal=path)
        )
        assert sweep.complete
        assert counters.simulated == 3
        kinds = [json.loads(ln)["kind"] for ln in path.read_text().splitlines()]
        assert kinds[0] == "header"
        # One immediate beat per attempt; no result payloads.
        assert kinds[1:] == ["heartbeat"] * counters.heartbeats
        assert counters.heartbeats >= 3


#: Runs a 4-point pooled sweep in which the first attempt of one point
#: takes the heartbeat queue's cross-process write lock and dies holding
#: it, as a worker SIGKILLed mid-``put`` would.  Workers that go on using
#: that queue block on the lock when they exit, so ``pool.shutdown``
#: never returns; a fresh queue per pool lets the sweep finish.
_HB_LOCK_HARNESS = """
import json, os
import repro.runner.supervise as sup
from repro.model.torus import TorusShape
from repro.runner import SimPoint, counters, point_key, run_sweep
from repro.strategies import ARDirect, DRDirect

points = [
    SimPoint(
        ARDirect() if i % 2 == 0 else DRDirect(),
        TorusShape.parse("2x2"),
        16 + 16 * i,
        seed=1,
    )
    for i in range(4)
]
victim = point_key(points[0])
orig = sup._worker_entry

def dies_holding_queue_lock(point, key, attempt, *rest):
    if key == victim and attempt == 1:
        sup._HB["emit"].__self__._wlock.acquire()
        os._exit(42)
    return orig(point, key, attempt, *rest)

sup._worker_entry = dies_holding_queue_lock
sweep = run_sweep(points, jobs=2)
print(json.dumps({"complete": sweep.complete, "pool_breaks": counters.pool_breaks}))
"""


class TestHeartbeatQueue:
    def test_worker_dying_with_queue_lock_cannot_wedge_sweep(
        self, tmp_path
    ):
        env = dict(os.environ)
        for name in (
            "REPRO_CHAOS", "REPRO_POINT_TIMEOUT", "REPRO_JOBS", "REPRO_HEARTBEAT"
        ):
            env.pop(name, None)
        env.update(
            PYTHONPATH=str(SRC),
            REPRO_CACHE="0",
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            REPRO_PROGRESS="1",
        )
        # Own session, so a wedged run's workers can be killed as a group.
        proc = subprocess.Popen(
            [sys.executable, "-c", _HB_LOCK_HARNESS],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(
                "sweep wedged after a worker died holding the heartbeat "
                "queue's write lock"
            )
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 0, err
        assert json.loads(out.splitlines()[-1]) == {
            "complete": True,
            "pool_breaks": 1,
        }
