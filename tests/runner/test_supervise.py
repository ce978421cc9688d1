"""Supervision layer: watchdog, chaos, retries, run_sweep."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

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
    active_supervision,
    backoff_for,
    derive_timeout,
    resolve_supervision,
    supervising,
    watchdog,
)
from repro.strategies import ARDirect, DRDirect


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


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the parent's patches only when forked",
)


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
        # Values that happen to contain the words the old error sorting
        # keyed on must still name the field and the spec.
        for spec in ("kill:chaos", "kill:unknown"):
            with pytest.raises(ValueError, match="bad chaos value"):
                ChaosPlan.parse(spec)
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
        # A limit must be finite: NaN and inf fail at construction.  No
        # timer arms it, so any finite limit is accepted.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="point_timeout_s"):
                SuperviseConfig(point_timeout_s=bad)
        assert SuperviseConfig(point_timeout_s=1e10).point_timeout_s == 1e10
        with pytest.raises(TypeError, match="max_attempts"):
            SuperviseConfig(max_attempts=1.5)
        cfg = SuperviseConfig(max_attempts=3.0)
        assert cfg.max_attempts == 3 and type(cfg.max_attempts) is int

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

    def test_active_config_derives_timeout(self):
        cfg = SuperviseConfig(chaos=ChaosPlan(kill_prob=0.1))
        assert cfg.is_active
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
        for garbage in ("soon", "nan"):
            monkeypatch.setenv("REPRO_POINT_TIMEOUT", garbage)
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


class TestRunSweepChaos:
    def test_one_worker_chaos_kill_converges_bit_identically(
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

    def test_one_worker_chaos_kill_cold_cache(
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
    def test_pooled_chaos_kill_replaces_workers_and_converges(
        self, monkeypatch, fast_backoff
    ):
        pts = _points(4)
        clean = run_points(pts, jobs=1)
        monkeypatch.setenv("REPRO_CACHE", "0")
        counters.reset()
        cfg = SuperviseConfig(
            chaos=ChaosPlan(kill_prob=0.4, seed=2),
            max_attempts=10,
        )
        sweep = run_sweep(pts, jobs=2, supervise=cfg)
        assert sweep.complete, sweep.failures
        assert _bits(sweep.runs) == _bits(clean)
        assert counters.crashes >= 1

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
        # One worker fails the points longest first: match by index.
        assert sorted(f.index for f in sweep.failures) == [0, 1]
        for f in sweep.failures:
            assert f.kind == "crash"
            assert f.attempts == 2
            assert f.key == point_key(pts[f.index])
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

    @needs_fork
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


def _items(points):
    return [
        (i, p, point_key(p), f"p{i}") for i, p in enumerate(points)
    ]


def _exit_on(poison, monkeypatch):
    """Make every attempt of points at msg size *poison* kill its worker
    outright, as an OOM kill would; pooled workers inherit the patch
    under the fork start method."""
    import repro.runner.pool as pool_mod

    real = pool_mod._simulate_encoded

    def dying(point, obs, check):
        if point.msg_bytes == poison:
            os._exit(3)
        return real(point, obs, check)

    monkeypatch.setattr(pool_mod, "_simulate_encoded", dying)


class TestPooledQueue:
    @needs_fork
    def test_longest_first_at_most_jobs_in_flight_input_order_back(
        self, monkeypatch
    ):
        import repro.runner.pool as pool_mod

        monkeypatch.setenv("REPRO_CACHE", "0")
        shape = TorusShape.parse("4x4")
        sizes = [16, 256, 64, 256, 8, 128]
        pts = [
            SimPoint(ARDirect(), shape, m, seed=i)
            for i, m in enumerate(sizes)
        ]
        # Points the workers have finished simulating, counted in shared
        # memory: a point handed over and not yet finished is in flight.
        finished = multiprocessing.Value("i", 0)
        real = pool_mod._simulate_encoded

        def counted(point, obs, check):
            payload = real(point, obs, check)
            with finished.get_lock():
                finished.value += 1
            return payload

        monkeypatch.setattr(pool_mod, "_simulate_encoded", counted)
        started: list = []
        in_flight: list = []

        def on_event(kind, task):
            if kind == "start":
                started.append(task.index)
                in_flight.append(len(started) - finished.value)

        payloads, failures = supervise.execute_supervised(
            _items(pts), 2, SuperviseConfig(), None, None,
            on_event=on_event,
        )
        assert not failures
        # Descending cost hint; the two 256-B points keep input order.
        assert started == [1, 3, 5, 2, 0, 4]
        # One point per worker: never more than 2 in flight.
        assert max(in_flight) == 2
        clean = run_points(pts, jobs=1)
        assert [payloads[i] for i in range(len(pts))] == [
            encode_run(r) for r in clean
        ]
        # run_sweep files every payload back in input order.
        assert _bits(run_sweep(pts, jobs=2).runs) == _bits(clean)

    def test_healthy_task_queued_behind_a_timeout_is_never_hard_killed(
        self, monkeypatch, fast_backoff
    ):
        # Two points too big to finish within the 1 s limit take both
        # workers; two small ones wait for a worker, and chaos stalls
        # each small one for 0.6 s before it simulates.  Its deadline
        # (the limit) must count from its hand-over to a worker, about
        # 1 s in, not from the start of the sweep.
        big = [
            SimPoint(ARDirect(), TorusShape.parse("8x8x4"), 512, seed=s)
            for s in (1, 2)
        ]
        small = [
            SimPoint(ARDirect(), TorusShape.parse("2x2"), 16, seed=s)
            for s in (1, 2)
        ]
        items = _items(big + small)
        small_keys = [key for _, _, key, _ in items[2:]]
        seed = next(
            s for s in range(1000)
            if all(
                ChaosPlan(hang_prob=0.5, seed=s).decide(k, 1) == "hang"
                for k in small_keys
            )
        )
        cfg = SuperviseConfig(
            point_timeout_s=1.0,
            chaos=ChaosPlan(hang_prob=0.5, seed=seed, hang_s=0.6),
            max_attempts=2,
        )
        events: list = []
        attempts: dict = {}
        payloads, failures = supervise.execute_supervised(
            items,
            2,
            cfg,
            None,
            None,
            on_complete=lambda task, payload: attempts.update(
                {task.index: task.attempt}
            ),
            on_event=lambda kind, task: events.append((kind, task.index)),
            strict_errors=False,
        )
        assert sorted(payloads) == [2, 3]
        assert attempts == {2: 1, 3: 1}
        assert sorted(f.index for f in failures) == [0, 1]
        assert {f.kind for f in failures} == {"timeout"}
        assert not [e for e in events if e[0] == "timeout" and e[1] >= 2]
        # The small points waited for a worker: both big ones started first.
        starts = [i for kind, i in events if kind == "start"]
        assert starts[:2] == [0, 1]


@needs_fork
class TestPooledWorkers:
    def test_crashing_point_costs_only_its_own_attempts(
        self, monkeypatch, fast_backoff
    ):
        _exit_on(8, monkeypatch)
        healthy = SimPoint(ARDirect(), TorusShape.parse("8x4x4"), 64, seed=0)
        poison = SimPoint(ARDirect(), TorusShape.parse("2x2"), 8, seed=0)
        completed: dict = {}
        events: list = []
        payloads, failures = supervise.execute_supervised(
            _items([healthy, poison]),
            2,
            SuperviseConfig(max_attempts=3),
            None,
            None,
            on_complete=lambda task, payload: completed.update(
                {task.index: task.attempt}
            ),
            on_event=lambda kind, task: events.append((kind, task.index)),
            strict_errors=False,
        )
        assert completed == {0: 1}
        assert [e for e in events if e[1] == 0] == [("start", 0)]
        (failure,) = failures
        assert (failure.index, failure.kind, failure.attempts) == (
            1, "crash", 3
        )
        assert "exit code 3" in failure.error
        assert payloads[0] == encode_run(run_points([healthy], jobs=1)[0])

    def test_checked_invariant_error_arrives_as_itself(self):
        from repro.check.config import CheckConfig
        from repro.check.fuzz import _SELF_TEST_CASE, FuzzCase, broken_dedup
        from repro.check.oracle import InvariantError

        point = FuzzCase.parse(_SELF_TEST_CASE).to_point()
        with broken_dedup():
            sweep = run_sweep([point, point], jobs=2, check=CheckConfig())
        assert sweep.runs == [None, None]
        assert sorted(f.index for f in sweep.failures) == [0, 1]
        for f in sweep.failures:
            assert (f.kind, f.attempts) == ("error", 1)
            assert isinstance(f.exception, InvariantError)
            assert f.exception.oracle == "exactly_once"
        assert counters.retries == 0

    def test_strict_error_carries_the_worker_traceback(self, monkeypatch):
        import repro.runner.pool as pool_mod

        def boom(point, obs, check):
            raise ZeroDivisionError("deterministic bug")

        monkeypatch.setattr(pool_mod, "_simulate_encoded", boom)
        with pytest.raises(ZeroDivisionError, match="deterministic bug") as ei:
            run_points(_points(2), jobs=2)
        cause = str(ei.value.__cause__)
        assert "Traceback" in cause and "in boom" in cause

    def test_unpicklable_error_arrives_as_runtime_error(self, monkeypatch):
        import repro.runner.pool as pool_mod

        class Local(Exception):
            pass

        def boom(point, obs, check):
            raise Local("not importable")

        monkeypatch.setattr(pool_mod, "_simulate_encoded", boom)
        sweep = run_sweep(_points(2), jobs=2)
        for f in sweep.failures:
            assert f.kind == "error"
            assert type(f.exception) is RuntimeError
            assert str(f.exception) == "Local: not importable"

    def test_workers_are_reaped_on_return_error_and_interrupt(
        self, monkeypatch
    ):
        import repro.runner.pool as pool_mod

        monkeypatch.setenv("REPRO_CACHE", "0")
        assert run_sweep(_points(4), jobs=2).complete
        assert not multiprocessing.active_children()

        real = pool_mod._simulate_encoded

        def boom(point, obs, check):
            if point.msg_bytes == 16:
                raise ZeroDivisionError("deterministic bug")
            return real(point, obs, check)

        monkeypatch.setattr(pool_mod, "_simulate_encoded", boom)
        with pytest.raises(ZeroDivisionError):
            run_points(_points(4), jobs=2)
        assert not multiprocessing.active_children()
        monkeypatch.setattr(pool_mod, "_simulate_encoded", real)

        def interrupt(key, payload):
            raise KeyboardInterrupt

        monkeypatch.delenv("REPRO_CACHE")
        monkeypatch.setattr(pool_mod, "cache_put", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_points(4), jobs=2)
        assert not multiprocessing.active_children()

    def test_every_worker_forks_with_no_extra_thread(
        self, monkeypatch, fast_backoff
    ):
        from multiprocessing.process import BaseProcess

        threads: list = []
        real_start = BaseProcess.start

        def start(self):
            threads.append(threading.active_count())
            real_start(self)

        monkeypatch.setattr(BaseProcess, "start", start)
        _exit_on(8, monkeypatch)
        healthy = SimPoint(ARDirect(), TorusShape.parse("8x4x4"), 64, seed=0)
        poison = SimPoint(ARDirect(), TorusShape.parse("2x2"), 8, seed=0)
        before = threading.active_count()
        sweep = run_sweep(
            [healthy, poison], jobs=2, supervise=SuperviseConfig(max_attempts=3)
        )
        assert [f.kind for f in sweep.failures] == ["crash"]
        # Two first workers, then one replacement per retried crash.
        assert len(threads) == 4
        assert set(threads) == {before}


class TestWhereSweepsRun:
    def test_timeout_holds_off_the_main_thread(self, monkeypatch):
        # The parent kills the worker of a point past its limit, so the
        # limit holds on any thread; no alarm is armed anywhere.
        monkeypatch.setenv("REPRO_CACHE", "0")
        cfg = SuperviseConfig(
            point_timeout_s=0.5,
            chaos=ChaosPlan(hang_prob=1.0, hang_s=5.0),
            max_attempts=1,
        )
        out: dict = {}

        def sweep() -> None:
            t0 = time.monotonic()
            out["sweep"] = run_sweep(_points(1), jobs=1, supervise=cfg)
            out["elapsed"] = time.monotonic() - t0

        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        (failure,) = out["sweep"].failures
        assert (failure.kind, failure.attempts) == ("timeout", 1)
        assert "exceeded its 0.5s wall-clock limit" in failure.error
        assert out["elapsed"] < 3.0
        assert not multiprocessing.active_children()

    @needs_fork
    def test_timed_one_job_sweep_runs_in_a_child(self, monkeypatch):
        import repro.runner.pool as pool_mod

        def whoami(point, obs, check):
            raise RuntimeError(f"pid {os.getpid()}")

        monkeypatch.setattr(pool_mod, "_simulate_encoded", whoami)
        cfg = SuperviseConfig(point_timeout_s=30.0)
        (failure,) = run_sweep(_points(1), jobs=1, supervise=cfg).failures
        assert failure.kind == "error"
        assert failure.error.startswith("RuntimeError: pid ")
        assert failure.error != f"RuntimeError: pid {os.getpid()}"

    def test_unsupervised_one_job_sweep_stays_in_process(self, monkeypatch):
        import repro.runner.pool as pool_mod

        monkeypatch.setenv("REPRO_CACHE", "0")
        real = pool_mod._simulate_encoded
        seen: list = []

        def spy(point, obs, check):
            seen.append((os.getpid(), multiprocessing.active_children()))
            return real(point, obs, check)

        monkeypatch.setattr(pool_mod, "_simulate_encoded", spy)
        # A disabled chaos plan supervises nothing either.
        for cfg in (None, SuperviseConfig(chaos=ChaosPlan())):
            seen.clear()
            assert run_sweep(_points(2), jobs=1, supervise=cfg).complete
            assert seen == [(os.getpid(), [])] * 2
            assert not multiprocessing.active_children()


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
