"""Live sweep telemetry: a single-writer status line.

A multi-hour sweep used to run silently: the only signs of life were the
final tables and whatever ``-v`` logging scrolled past.  This module
gives the parent process one coordinated view of a sweep in flight:

* :class:`SweepProgress` — counts (completed / running / failed /
  retrying), the cache-hit split, an EWMA-based ETA, and the slowest
  in-flight point, rendered as a carriage-return status line when
  stderr is a TTY and as periodic ``repro`` logger lines otherwise — CI
  logs and piped output never see ANSI control sequences.  Its only
  inputs are the supervisor's own events (:mod:`repro.runner.supervise`)
  and a periodic ``tick``: a point's start event dates it, so a wedged
  point is named as the slowest *before* the watchdog kills it.
* :class:`OutputCoordinator` — the single stderr writer.  Log records
  and the status line share one stream; the coordinator erases the
  status line, lets the record through, and redraws, so worker log
  lines and the progress bar coexist instead of shredding each other.
  :func:`repro.obs.logconf.setup_logging` routes its handler through
  :func:`coordinated_handler`.

Activation: :func:`resolve_progress` — on by default, ``REPRO_PROGRESS=0``
(or the CLI's ``--no-progress``) turns it off, ``--quiet`` suppresses it
implicitly (the renderer follows the ``repro`` logger's level).
Everything here is parent-side and post-hoc; nothing touches the
simulator hot path or perturbs results.
"""

from __future__ import annotations

import logging
import os
import shutil
import sys
import threading
import time
from typing import Optional

_log = logging.getLogger("repro.obs.progress")

#: Seconds between status-line repaints (TTY mode).
RENDER_INTERVAL_S = 0.1

#: Seconds between progress log lines (non-TTY mode).
LOG_INTERVAL_S = 5.0

#: EWMA smoothing factor for per-point durations (higher = snappier ETA).
EWMA_ALPHA = 0.3

#: A point running for longer than this many seconds (and at least twice
#: the EWMA duration) is named as the slowest on the status line.
STALE_AFTER_S = 5.0


def _is_tty(stream) -> bool:
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError, OSError):
        return False


# --------------------------------------------------------------------- #
# the single stderr writer
# --------------------------------------------------------------------- #


class OutputCoordinator:
    """Serializes the status line and log records onto one stream.

    At most one status line is active at a time (sweeps do not nest in
    practice; a nested ``begin`` simply takes the line over).  All
    writes — status repaints and log records alike — happen under one
    lock, and a log record is bracketed by erase/redraw so it lands on
    its own line.  When the status stream is not a TTY no control
    sequences are ever written; log records pass straight through.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._stream = None
        self._status = ""

    def begin_status(self, stream) -> bool:
        """Claim the status line on *stream*; returns whether *stream*
        is a TTY (the caller skips :meth:`set_status` when not)."""
        with self._lock:
            self._clear_locked()
            self._stream = stream
            self._status = ""
        return _is_tty(stream)

    def set_status(self, text: str) -> None:
        """Repaint the status line (no-op without an active stream)."""
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            width = shutil.get_terminal_size(fallback=(80, 24)).columns
            self._status = text[: max(width - 1, 10)]
            self._paint_locked()

    def end_status(self) -> None:
        """Erase the status line and release the stream."""
        with self._lock:
            self._clear_locked()
            self._stream = None
            self._status = ""

    def log_write(self, stream, text: str) -> None:
        """Write one log record, lifting the status line out of its way."""
        with self._lock:
            active = self._stream is not None and self._status
            if active:
                self._erase_locked()
            try:
                stream.write(text)
                stream.flush()
            finally:
                if active:
                    self._paint_locked()

    # -- locked primitives ------------------------------------------ #

    def _paint_locked(self) -> None:
        try:
            self._stream.write("\r\x1b[2K" + self._status)
            self._stream.flush()
        except (ValueError, OSError):  # closed stream mid-teardown
            pass

    def _erase_locked(self) -> None:
        try:
            self._stream.write("\r\x1b[2K")
            self._stream.flush()
        except (ValueError, OSError):
            pass

    def _clear_locked(self) -> None:
        if self._stream is not None and self._status:
            self._erase_locked()


#: Process-wide coordinator (log handlers and renderers share it).
coordinator = OutputCoordinator()


class CoordinatedStreamHandler(logging.StreamHandler):
    """``StreamHandler`` that routes its writes through the coordinator,
    so emitting a record while a status line is drawn erases and redraws
    it instead of splicing into it."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            msg = self.format(record) + self.terminator
            coordinator.log_write(self.stream, msg)
        except RecursionError:  # pragma: no cover - logging contract
            raise
        except Exception:  # pragma: no cover - logging contract
            self.handleError(record)


def coordinated_handler(stream) -> logging.StreamHandler:
    """The handler :func:`repro.obs.logconf.setup_logging` attaches."""
    return CoordinatedStreamHandler(stream)


# --------------------------------------------------------------------- #
# the renderer
# --------------------------------------------------------------------- #


def _fmt_eta(seconds: float) -> str:
    seconds = max(int(round(seconds)), 0)
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


class SweepProgress:
    """Parent-side sweep telemetry (one instance per ``run_sweep``).

    Fed by the supervised executor's event stream (``start`` / ``retry``
    / ``timeout`` / ``crash`` / ``failed``), completion callbacks and
    :meth:`tick`.  Thread-safe: sequential sweeps tick
    from the supervisor's ticker thread.
    """

    def __init__(
        self,
        stream=None,
        render_interval_s: float = RENDER_INTERVAL_S,
        log_interval_s: float = LOG_INTERVAL_S,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.render_interval_s = render_interval_s
        self.log_interval_s = log_interval_s
        self._lock = threading.RLock()
        self._tty = False
        self._active = False
        self.total = 0
        self.cached = 0
        self.jobs = 1
        self.completed = 0
        self.failed = 0
        self.retries = 0
        #: key -> (label, started_monotonic) for in-flight attempts.
        self._running: dict[str, tuple[str, float]] = {}
        #: keys waiting out a retry backoff.
        self._retrying: set[str] = set()
        self._ewma_s: Optional[float] = None
        self._t0 = 0.0
        self._last_render = 0.0
        self._last_log = 0.0

    # -- lifecycle --------------------------------------------------- #

    def begin(self, total: int, cached: int, jobs: int) -> None:
        with self._lock:
            self.total = total
            self.cached = cached
            self.jobs = max(jobs, 1)
            self._t0 = time.monotonic()
            self._last_log = self._t0
            self._active = True
            self._tty = coordinator.begin_status(self.stream)
        self._render(force=True)

    def finish(self) -> None:
        with self._lock:
            if not self._active:
                return
            self._active = False
            coordinator.end_status()
            summary = self._summary_locked()
        _log.info("sweep finished: %s", summary)

    # -- feeds -------------------------------------------------------- #

    def event(self, kind: str, task) -> None:
        with self._lock:
            if kind == "start":
                self._running[task.key] = (task.label, time.monotonic())
                self._retrying.discard(task.key)
            elif kind == "retry":
                self.retries += 1
                self._running.pop(task.key, None)
                self._retrying.add(task.key)
            elif kind in ("timeout", "crash"):
                self._running.pop(task.key, None)
            elif kind == "failed":
                self.failed += 1
                self._running.pop(task.key, None)
                self._retrying.discard(task.key)
        self._render()

    def complete(self, task) -> None:
        with self._lock:
            self.completed += 1
            entry = self._running.pop(task.key, None)
            self._retrying.discard(task.key)
            if entry is not None:
                dt = time.monotonic() - entry[1]
                self._ewma_s = (
                    dt
                    if self._ewma_s is None
                    else EWMA_ALPHA * dt + (1.0 - EWMA_ALPHA) * self._ewma_s
                )
        self._render()

    def tick(self) -> None:
        """Repaint (throttled) so in-flight points age between events."""
        self._render()

    # -- rendering ---------------------------------------------------- #

    def _eta_s_locked(self) -> Optional[float]:
        if self._ewma_s is None:
            return None
        remaining = self.total - self.cached - self.completed - self.failed
        if remaining <= 0:
            return 0.0
        return remaining * self._ewma_s / self.jobs

    def _slowest_locked(self) -> Optional[tuple[str, float]]:
        """``(label, elapsed_s)`` of the longest-running in-flight point,
        if it is slow enough to call out."""
        if not self._running:
            return None
        label, started = min(self._running.values(), key=lambda e: e[1])
        elapsed = time.monotonic() - started
        if elapsed < STALE_AFTER_S:
            return None
        if self._ewma_s is not None and elapsed < 2.0 * self._ewma_s:
            return None
        return label, elapsed

    def _summary_locked(self) -> str:
        done = self.completed + self.cached
        parts = [f"{done}/{self.total} done"]
        if self._running:
            parts.append(f"{len(self._running)} running")
        if self._retrying:
            parts.append(f"{len(self._retrying)} retrying")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.total:
            pct = 100.0 * self.cached / self.total
            parts.append(f"cache {self.cached}/{self.total} ({pct:.0f}%)")
        eta = self._eta_s_locked()
        if eta is not None and (self._running or self._retrying):
            parts.append(f"eta {_fmt_eta(eta)}")
        slowest = self._slowest_locked()
        if slowest is not None:
            parts.append(f"slowest {slowest[0]} {slowest[1]:.0f}s")
        return " | ".join(parts)

    def _render(self, force: bool = False) -> None:
        with self._lock:
            if not self._active:
                return
            now = time.monotonic()
            if self._tty:
                if not force and now - self._last_render < self.render_interval_s:
                    return
                self._last_render = now
                coordinator.set_status("sweep " + self._summary_locked())
            else:
                if not force and now - self._last_log < self.log_interval_s:
                    return
                self._last_log = now
                _log.info("sweep progress: %s", self._summary_locked())


# --------------------------------------------------------------------- #
# activation
# --------------------------------------------------------------------- #


def progress_wanted() -> bool:
    """Whether sweep telemetry is enabled for this process.

    ``REPRO_PROGRESS=0`` (or ``--no-progress``) disables; ``1`` forces
    on.  The default follows the ``repro`` logger: anything quieter than
    WARNING (``--quiet``) disables telemetry entirely — the status line
    included, since quiet means *quiet*.
    """
    env = os.environ.get("REPRO_PROGRESS", "").strip().lower()
    if env in ("0", "off", "false", "no"):
        return False
    if env in ("1", "on", "true", "yes"):
        return True
    return logging.getLogger("repro").getEffectiveLevel() < logging.ERROR


def resolve_progress(total: int, stream=None) -> Optional[SweepProgress]:
    """A renderer for a *total*-point sweep, or None when disabled."""
    if total <= 0 or not progress_wanted():
        return None
    return SweepProgress(stream=stream)
