"""Live sweep telemetry: coordinator, renderer, ticks (DESIGN.md §15).

The non-negotiables: a non-TTY stream never sees ANSI control sequences
(CI logs stay clean), the status line and log records share one stream
without shredding each other, the renderer's summary arithmetic (done
counts, cache split, EWMA ETA, slowest-point callout) is right, and a
slow point is named while it runs on both the sequential and the pooled
path.
"""

from __future__ import annotations

import io
import logging
import os
import threading
import time

import pytest

import repro.obs.progress as progress_mod
import repro.runner.supervise as supervise
from repro.net.topology import TorusShape
from repro.obs.progress import (
    STALE_AFTER_S,
    CoordinatedStreamHandler,
    OutputCoordinator,
    SweepProgress,
    coordinated_handler,
    coordinator,
    progress_wanted,
    resolve_progress,
)
from repro.runner import (
    ChaosPlan,
    SimPoint,
    SuperviseConfig,
    counters,
    point_label,
    run_points,
    run_sweep,
)
from repro.strategies import ARDirect


class TtyStringIO(io.StringIO):
    """A capture stream that claims to be a terminal."""

    def isatty(self) -> bool:
        return True


class Task:
    def __init__(self, key: str, label: str = "", attempt: int = 1):
        self.key = key
        self.label = label or key
        self.attempt = attempt


@pytest.fixture(autouse=True)
def _clean_coordinator():
    yield
    coordinator.end_status()


@pytest.fixture(autouse=True)
def _pristine_repro_logger():
    """CLI tests elsewhere in the suite call setup_logging(), which parks
    a handler on the ``repro`` logger and stops propagation.  Left alone,
    that starves caplog and replays records into the (now closed) capture
    stream of whichever test installed it.  Run with a bare, propagating
    logger and put everything back afterwards."""
    logger = logging.getLogger("repro")
    saved_handlers = logger.handlers[:]
    saved_propagate = logger.propagate
    for h in saved_handlers:
        logger.removeHandler(h)
    logger.propagate = True
    try:
        yield
    finally:
        for h in logger.handlers[:]:
            logger.removeHandler(h)
        for h in saved_handlers:
            logger.addHandler(h)
        logger.propagate = saved_propagate


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    counters.reset()


class TestOutputCoordinator:
    def test_non_tty_stream_never_sees_ansi(self):
        co = OutputCoordinator()
        plain = io.StringIO()
        assert co.begin_status(plain) is False
        # A renderer honoring the False return never calls set_status;
        # log records pass straight through, byte for byte.
        co.log_write(plain, "hello\n")
        co.end_status()
        assert plain.getvalue() == "hello\n"
        assert "\x1b" not in plain.getvalue()

    def test_tty_status_line_paints_and_erases(self):
        co = OutputCoordinator()
        tty = TtyStringIO()
        assert co.begin_status(tty) is True
        co.set_status("sweep 1/4 done")
        assert tty.getvalue().endswith("\r\x1b[2Ksweep 1/4 done")
        co.end_status()
        assert tty.getvalue().endswith("\r\x1b[2K")  # line erased

    def test_log_record_lifts_status_out_of_the_way(self):
        co = OutputCoordinator()
        tty = TtyStringIO()
        co.begin_status(tty)
        co.set_status("STATUS")
        co.log_write(tty, "a log record\n")
        out = tty.getvalue()
        # erase -> record -> repaint: the record sits on its own line
        # and the status line survives it.
        assert "\r\x1b[2Ka log record\n" in out
        assert out.endswith("\r\x1b[2KSTATUS")
        co.end_status()

    def test_status_truncated_to_terminal_width(self, monkeypatch):
        monkeypatch.setattr(
            "repro.obs.progress.shutil.get_terminal_size",
            lambda fallback=None: os.terminal_size((30, 24)),
        )
        co = OutputCoordinator()
        tty = TtyStringIO()
        co.begin_status(tty)
        co.set_status("x" * 100)
        assert tty.getvalue().endswith("\r\x1b[2K" + "x" * 29)
        co.end_status()

    def test_closed_stream_is_swallowed(self):
        co = OutputCoordinator()
        tty = TtyStringIO()
        co.begin_status(tty)
        tty.close()
        co.set_status("late")  # must not raise during teardown
        co.end_status()


class TestCoordinatedHandler:
    def test_handler_routes_through_coordinator(self):
        stream = TtyStringIO()
        handler = coordinated_handler(stream)
        assert isinstance(handler, CoordinatedStreamHandler)
        logger = logging.Logger("test.coordinated")
        logger.addHandler(handler)
        coordinator.begin_status(stream)
        coordinator.set_status("STATUS")
        logger.warning("a warning")
        out = stream.getvalue()
        assert "a warning" in out
        assert out.endswith("\r\x1b[2KSTATUS")  # status redrawn after
        coordinator.end_status()


class TestSweepProgress:
    def _progress(self, stream=None) -> SweepProgress:
        p = SweepProgress(
            stream=stream or TtyStringIO(), render_interval_s=0.0
        )
        p.begin(total=4, cached=1, jobs=2)
        return p

    def test_summary_counts(self):
        p = self._progress()
        p.event("start", Task("a"))
        p.event("start", Task("b"))
        p.complete(Task("a"))
        s = p._summary_locked()
        assert "2/4 done" in s  # 1 cached + 1 completed
        assert "1 running" in s
        assert "cache 1/4 (25%)" in s
        p.finish()

    def test_failed_and_retrying_show_up(self):
        p = self._progress()
        p.event("start", Task("a"))
        p.event("retry", Task("a"))
        p.event("start", Task("b"))
        p.event("failed", Task("b"))
        s = p._summary_locked()
        assert "1 retrying" in s
        assert "1 failed" in s
        assert "1 retries" in s
        p.finish()

    def test_eta_from_ewma(self):
        p = self._progress()
        p.event("start", Task("a"))
        p.complete(Task("a"))
        p._ewma_s = 10.0  # pin the smoothed duration for determinism
        p.event("start", Task("b"))
        s = p._summary_locked()
        # 2 points remain (4 total - 1 cached - 1 done) at 10s each over
        # 2 workers -> 10s.
        assert "eta 0:10" in s
        p.finish()

    @staticmethod
    def _age(p: SweepProgress, key: str, seconds: float) -> None:
        """Backdate the start of in-flight *key* by *seconds*."""
        label, started = p._running[key]
        p._running[key] = (label, started - seconds)

    def test_stale_point_called_out(self):
        p = self._progress()
        p.event("start", Task("k", label="8x8x8/m64"))
        p.event("start", Task("j", label="4x4x4/m64"))
        self._age(p, "k", STALE_AFTER_S + 5.0)
        self._age(p, "j", STALE_AFTER_S + 1.0)
        assert "slowest 8x8x8/m64 10s" in p._summary_locked()
        p.finish()

    def test_fresh_point_not_called_out(self):
        p = self._progress()
        p.event("start", Task("k"))
        p.tick()
        assert "slowest" not in p._summary_locked()
        p.finish()

    def test_point_within_twice_the_ewma_not_called_out(self):
        p = self._progress()
        p._ewma_s = STALE_AFTER_S * 2
        p.event("start", Task("k"))
        self._age(p, "k", STALE_AFTER_S + 1.0)
        assert "slowest" not in p._summary_locked()
        p.finish()

    def test_tick_repaints_the_aging_point(self):
        tty = TtyStringIO()
        p = self._progress(stream=tty)
        p.event("start", Task("k", label="8x8x8/m64"))
        assert "slowest" not in tty.getvalue()
        self._age(p, "k", STALE_AFTER_S + 5.0)
        p.tick()  # no event arrived; the tick alone repaints
        assert tty.getvalue().endswith("slowest 8x8x8/m64 10s")
        p.finish()

    def test_tty_renders_status_line(self):
        tty = TtyStringIO()
        p = self._progress(stream=tty)
        p.event("start", Task("a"))
        assert "sweep 1/4 done" in tty.getvalue()
        p.finish()
        assert tty.getvalue().endswith("\r\x1b[2K")

    def test_non_tty_logs_instead_of_painting(self, caplog):
        plain = io.StringIO()
        with caplog.at_level(logging.INFO, logger="repro.obs.progress"):
            p = SweepProgress(stream=plain)
            p.begin(total=2, cached=0, jobs=1)
            p.finish()
        assert "\x1b" not in plain.getvalue()
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("sweep progress:") for m in messages)
        assert any(m.startswith("sweep finished:") for m in messages)


class TestActivation:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert progress_wanted() is False
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert progress_wanted() is True

    def test_default_follows_repro_logger_level(self, monkeypatch):
        logger = logging.getLogger("repro")
        old = logger.level
        try:
            logger.setLevel(logging.ERROR)  # --quiet
            assert progress_wanted() is False
            logger.setLevel(logging.INFO)
            assert progress_wanted() is True
        finally:
            logger.setLevel(old)

    def test_resolve_progress_gates(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert resolve_progress(0) is None  # nothing to watch
        assert isinstance(resolve_progress(3), SweepProgress)
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert resolve_progress(3) is None


class _Probe(SweepProgress):
    """A TTY renderer that records the thread of every tick."""

    def __init__(self) -> None:
        super().__init__(stream=TtyStringIO(), render_interval_s=0.0)
        self.tick_threads: list[str] = []

    def tick(self) -> None:
        self.tick_threads.append(threading.current_thread().name)
        super().tick()


def _install_probe(monkeypatch) -> _Probe:
    """Make the next sweep render through a fresh :class:`_Probe`."""
    probe = _Probe()
    monkeypatch.setattr(
        progress_mod, "resolve_progress", lambda total, stream=None: probe
    )
    return probe


class TestSweepIntegration:
    def test_run_points_drives_the_renderer(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        shape = TorusShape.parse("2x2x2")
        pts = [SimPoint(ARDirect(), shape, m, seed=1) for m in (32, 64)]
        with caplog.at_level(logging.INFO, logger="repro.obs.progress"):
            run_points(pts)
        messages = [r.getMessage() for r in caplog.records]
        finished = [m for m in messages if m.startswith("sweep finished:")]
        assert finished and "2/2 done" in finished[0]

    def test_in_process_sweep_ticks_from_its_ticker_thread(
        self, monkeypatch
    ):
        import repro.runner.pool as pool_mod

        monkeypatch.setenv("REPRO_PROGRESS", "1")
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setattr(supervise, "TICK_S", 0.01)
        probe = _install_probe(monkeypatch)
        real = pool_mod._simulate_encoded

        def slow(point, obs, check):
            # Keep each point in flight for a few tick periods.
            time.sleep(0.1)
            return real(point, obs, check)

        monkeypatch.setattr(pool_mod, "_simulate_encoded", slow)
        shape = TorusShape.parse("2x2x2")
        pts = [SimPoint(ARDirect(), shape, m, seed=1) for m in (32, 64)]
        sweep = run_sweep(pts, jobs=1)
        assert sweep.failures == []
        # The in-process path simulates on the calling thread and ticks
        # from its ticker thread, which is gone once the sweep returns.
        assert set(probe.tick_threads) == {"sweep-ticker"}
        assert not [
            t for t in threading.enumerate() if t.name == "sweep-ticker"
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_slow_point_named_while_it_runs(self, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setattr(progress_mod, "STALE_AFTER_S", 0.2)
        monkeypatch.setattr(supervise, "TICK_S", 0.05)
        probe = _install_probe(monkeypatch)
        shape = TorusShape.parse("2x2x2")
        pts = [SimPoint(ARDirect(), shape, m, seed=1) for m in (32, 64)]
        # Every attempt stalls for 0.8 s in a worker before simulating
        # (chaos puts even a jobs=1 sweep on one worker); no event
        # arrives meanwhile, so only ticks can name the slow point.
        cfg = SuperviseConfig(chaos=ChaosPlan(hang_prob=1.0, hang_s=0.8))
        sweep = run_sweep(pts, jobs=jobs, supervise=cfg)
        assert sweep.complete, sweep.failures
        out = probe.stream.getvalue()
        assert any(
            f"slowest {point_label(pt)} " in out for pt in pts
        ), out
        # The owned-worker path ticks on the parent's own thread: it
        # starts no thread of its own before forking workers.
        assert set(probe.tick_threads) == {"MainThread"}

    def test_progress_off_is_silent(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        shape = TorusShape.parse("2x2x2")
        pts = [SimPoint(ARDirect(), shape, 32, seed=1)]
        with caplog.at_level(logging.INFO, logger="repro.obs.progress"):
            run_points(pts)
        assert not [
            r for r in caplog.records if r.name == "repro.obs.progress"
        ]
