"""Sweep supervision: timeouts, retries, quarantine, chaos, heartbeats.

The parallel runner (:mod:`repro.runner.pool`) fans independent
simulation points over a process pool.  Without supervision, one hung
point, one OOM-killed worker or one Ctrl-C throws away the whole sweep.
This module wraps point execution in the machinery of a production job
scheduler:

* **Per-point wall-clock timeouts** — every attempt runs under a SIGALRM
  :func:`watchdog` inside the worker (explicit via
  ``--point-timeout`` / ``REPRO_POINT_TIMEOUT``, else derived from the
  point's shape and message size).  The parent additionally enforces a
  hard deadline (timeout + :data:`GRACE_S`): a worker wedged beyond its
  own alarm is killed and its pool respawned.
* **Bounded retries with deterministic backoff** — transient failures
  (timeouts, worker deaths) are rescheduled with exponential backoff and
  *no jitter*: given the same failures, the schedule is reproducible.
  Simulation results themselves are seed-deterministic, so a retried
  point returns bit-identical bytes.
* **Worker-crash quarantine** — a ``BrokenProcessPool`` (worker SIGKILL,
  OOM, hard crash) is recovered by respawning the pool; every in-flight
  point is rescheduled, and a point present at
  :data:`QUARANTINE_STRIKES` pool breaks is quarantined (recorded as a
  structured failure) instead of being allowed to kill the pool forever.
* **Graceful degradation** — :func:`repro.runner.pool.run_sweep` returns
  a :class:`SweepResult` carrying every completed run plus a structured
  ``failures`` list; :func:`~repro.runner.pool.run_points` keeps its
  historical contract (deterministic errors re-raise unchanged; resource
  failures raise :class:`SweepIncompleteError`, which still carries the
  partial :class:`SweepResult`).
* **Resume from the cache** — the runner stores every completed point
  in the content-addressed result cache (:mod:`repro.runner.cache`) the
  moment it lands, so re-running an interrupted sweep simulates only the
  missing points, bit-identically.  The optional :class:`SweepJournal`
  is an append-only log of worker heartbeats for post-mortems; it holds
  no results.
* **Deterministic chaos** — ``REPRO_CHAOS=kill:0.05,hang:0.02,seed=N``
  makes workers die (``os._exit``) or stall before simulating, decided
  by a hash of ``(seed, point key, attempt)``: reproducible, and a
  retried attempt re-rolls the dice, so chaos converges.  This is how
  the whole layer is tested in CI.

Every sweep, pooled or sequential, runs through :func:`execute_supervised`.
With no timeout, journal or chaos configured (supervision not *active*)
the sequential supervisor is a thin wrapper: the watchdog is a no-op, and
in strict mode a deterministic error re-raises as the same exception
object a direct call would have raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.runner.codec import SCHEMA_VERSION
from repro.util.jsonl import open_append, write_line

_log = logging.getLogger("repro.runner.supervise")

#: Journal line-format version (independent of the payload schema).
JOURNAL_VERSION = 1


# --------------------------------------------------------------------- #
# errors
# --------------------------------------------------------------------- #


class PointTimeoutError(Exception):
    """An attempt exceeded its wall-clock limit (raised by the in-worker
    :func:`watchdog`, or synthesized by the parent after a hard kill)."""


class ChaosKilled(Exception):
    """Sequential-mode stand-in for a chaos worker kill: the in-process
    path cannot ``os._exit`` without taking the whole run down, so the
    'killed worker' surfaces as this retryable crash instead."""


class SweepIncompleteError(RuntimeError):
    """Points remain failed after every retry.  Carries the partial
    :class:`SweepResult` — completed runs are *not* lost."""

    def __init__(self, sweep: "SweepResult") -> None:
        self.sweep = sweep
        kinds: dict[str, int] = {}
        for f in sweep.failures:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        detail = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        first = sweep.failures[0] if sweep.failures else None
        super().__init__(
            f"{len(sweep.failures)} of {len(sweep.runs)} point(s) failed "
            f"({detail}); first: {first.label if first else '?'}: "
            f"{first.error if first else '?'}"
        )


# --------------------------------------------------------------------- #
# watchdog (shared with repro.check.fuzz)
# --------------------------------------------------------------------- #


def _can_alarm() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextlib.contextmanager
def watchdog(seconds: Optional[float], what: str = "operation") -> Iterator[None]:
    """Raise :class:`PointTimeoutError` if the block outlives *seconds*.

    SIGALRM-based, so it interrupts pure-Python loops and sleeps alike.
    Nests correctly: the outer timer's *remaining* time is restored on
    exit.  Degrades to a no-op when *seconds* is falsy, off the main
    thread, or on platforms without SIGALRM — a watchdog must never be
    the thing that breaks a run.
    """
    if not seconds or seconds <= 0 or not _can_alarm():
        yield
        return

    def _fire(signum, frame):
        raise PointTimeoutError(
            f"{what} exceeded its {seconds:g}s wall-clock limit"
        )

    prev_handler = signal.signal(signal.SIGALRM, _fire)
    started = time.monotonic()
    prev_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev_handler)
        if prev_delay:
            remaining = prev_delay - (time.monotonic() - started)
            # Re-arm the outer watchdog; if its deadline already passed,
            # fire it almost immediately rather than swallowing it.
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-4))


# --------------------------------------------------------------------- #
# chaos
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic fault injection for the supervision layer itself.

    Parsed from ``REPRO_CHAOS`` (e.g. ``kill:0.05,hang:0.02,seed=3``).
    Each *attempt* of each point hashes ``(seed, point key, attempt)``
    into a uniform draw: below ``kill_prob`` the worker dies hard
    (``os._exit``), below ``kill_prob + hang_prob`` it stalls for
    ``hang_s`` before simulating (long enough to trip any sane timeout).
    Retries re-roll deterministically, so a chaotic sweep converges to
    the same bits as a clean one.
    """

    kill_prob: float = 0.0
    hang_prob: float = 0.0
    seed: int = 0
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        for name in ("kill_prob", "hang_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"chaos {name} must be in [0, 1], got {v}")
        if self.hang_s <= 0:
            raise ValueError("chaos hang_s must be positive")

    @property
    def enabled(self) -> bool:
        return self.kill_prob > 0.0 or self.hang_prob > 0.0

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse ``kill:P,hang:P,seed=N[,hang_s:S]`` (``:`` and ``=``
        are interchangeable)."""
        kw: dict = {}
        for part in spec.strip().split(","):
            part = part.strip()
            if not part:
                continue
            for sep in (":", "="):
                if sep in part:
                    name, _, value = part.partition(sep)
                    break
            else:
                raise ValueError(
                    f"bad chaos field {part!r} in {spec!r} "
                    "(expected name:value)"
                )
            name = name.strip()
            try:
                if name == "kill":
                    kw["kill_prob"] = float(value)
                elif name == "hang":
                    kw["hang_prob"] = float(value)
                elif name == "seed":
                    kw["seed"] = int(value)
                elif name == "hang_s":
                    kw["hang_s"] = float(value)
                else:
                    raise ValueError(
                        f"unknown chaos field {name!r} in {spec!r} "
                        "(known: kill, hang, seed, hang_s)"
                    )
            except ValueError as exc:
                if "chaos" in str(exc) or "unknown" in str(exc):
                    raise
                raise ValueError(
                    f"bad chaos value {value!r} for {name!r} in {spec!r}"
                ) from None
        return cls(**kw)

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """``"kill"``, ``"hang"`` or ``None`` for this (point, attempt)."""
        blob = f"{self.seed}:{key}:{attempt}".encode("ascii")
        digest = hashlib.sha256(blob).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        if u < self.kill_prob:
            return "kill"
        if u < self.kill_prob + self.hang_prob:
            return "hang"
        return None


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #


#: Derived-timeout calibration: seconds of floor, plus seconds per unit
#: of the point's :meth:`~repro.runner.point.SimPoint.cost_hint` (total
#: bytes exchanged).  Deliberately generous — a timeout exists to catch
#: *hangs*, not slow-but-progressing simulations.
TIMEOUT_FLOOR_S = 60.0
TIMEOUT_PER_COST_S = 1.0 / 200_000.0


def derive_timeout(point) -> float:
    """Default per-point wall-clock limit from shape/message size."""
    return TIMEOUT_FLOOR_S + TIMEOUT_PER_COST_S * point.cost_hint


#: Retry backoff: attempt *k* waits ``BACKOFF_S * BACKOFF_FACTOR**(k - 2)``
#: seconds — exponential and jitter-free, so the schedule is reproducible.
BACKOFF_S = 0.25
BACKOFF_FACTOR = 2.0
#: Pool breaks a single point may be present for before it is quarantined.
QUARANTINE_STRIKES = 3
#: Seconds past a point's own timeout before the parent kills its worker.
GRACE_S = 10.0


def backoff_for(attempt: int) -> float:
    """Deterministic delay before retry *attempt* (attempt >= 2)."""
    return BACKOFF_S * BACKOFF_FACTOR ** max(attempt - 2, 0)


@dataclass
class SuperviseConfig:
    """Knobs of the supervision layer (see the module docstring).

    ``point_timeout_s=None`` means "derive from the point" when timeouts
    are needed (chaos active, or supervision explicitly activated) and
    "no timeout" otherwise.  ``max_attempts`` bounds every retry cause
    together; :data:`QUARANTINE_STRIKES` separately bounds how many pool
    breaks a single point may be present for.  ``journal`` names the
    heartbeat log (:class:`SweepJournal`).
    """

    point_timeout_s: Optional[float] = None
    max_attempts: int = 5
    journal: Optional[Path] = None
    chaos: Optional[ChaosPlan] = None
    #: Seconds between worker heartbeats (``REPRO_HEARTBEAT``; 0 turns
    #: them off).  Deliberately *not* part of :attr:`is_active` — a
    #: heartbeat cadence alone shouldn't arm per-point timeouts.
    heartbeat_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive")
        if self.heartbeat_s < 0:
            raise ValueError("heartbeat_s must be >= 0")
        if self.journal is not None:
            self.journal = Path(self.journal)

    @property
    def is_active(self) -> bool:
        """Whether any supervision feature is actually requested; only
        then does a point without an explicit limit get a derived one."""
        return (
            self.point_timeout_s is not None
            or self.journal is not None
            or (self.chaos is not None and self.chaos.enabled)
        )

    def timeout_for(self, point) -> Optional[float]:
        """The wall-clock limit applied to one attempt of *point*."""
        if self.point_timeout_s is not None:
            return self.point_timeout_s
        if self.is_active:
            return derive_timeout(point)
        return None

    @classmethod
    def from_env(cls, **overrides) -> "SuperviseConfig":
        """Defaults + ``REPRO_POINT_TIMEOUT`` / ``REPRO_CHAOS`` env knobs,
        with explicit *overrides* winning."""
        kw: dict = {}
        env_t = os.environ.get("REPRO_POINT_TIMEOUT", "").strip()
        if env_t:
            try:
                kw["point_timeout_s"] = float(env_t)
            except ValueError:
                raise ValueError(
                    f"REPRO_POINT_TIMEOUT must be seconds, got {env_t!r}"
                ) from None
        env_c = os.environ.get("REPRO_CHAOS", "").strip()
        if env_c:
            kw["chaos"] = ChaosPlan.parse(env_c)
        env_h = os.environ.get("REPRO_HEARTBEAT", "").strip()
        if env_h:
            try:
                kw["heartbeat_s"] = float(env_h)
            except ValueError:
                raise ValueError(
                    f"REPRO_HEARTBEAT must be seconds, got {env_h!r}"
                ) from None
        kw.update(overrides)
        return cls(**kw)


#: Active config (None = resolve from env per sweep).
_active: Optional[SuperviseConfig] = None


def active_supervision() -> Optional[SuperviseConfig]:
    """The process-wide config, or None when none was activated."""
    return _active


@contextlib.contextmanager
def supervising(cfg: SuperviseConfig) -> Iterator[SuperviseConfig]:
    """Activate *cfg* for the dynamic extent of the block (mirrors
    :func:`repro.obs.context.observe`); the CLI flags work through this."""
    global _active
    prev = _active
    _active = cfg
    try:
        yield cfg
    finally:
        _active = prev


def resolve_supervision(
    explicit: Optional[SuperviseConfig] = None,
) -> SuperviseConfig:
    """Explicit argument > :func:`supervising` context > env defaults."""
    if explicit is not None:
        return explicit
    if _active is not None:
        return _active
    return SuperviseConfig.from_env()


# --------------------------------------------------------------------- #
# sweep results
# --------------------------------------------------------------------- #


@dataclass
class PointFailure:
    """One point that could not be completed, and why."""

    index: int
    key: str
    label: str
    #: ``"timeout"`` | ``"crash"`` | ``"quarantined"`` | ``"error"``
    kind: str
    attempts: int
    error: str
    #: The original exception for ``"error"`` failures (deterministic
    #: simulation errors re-raise unchanged in strict mode).  Not part
    #: of :meth:`to_dict` — exceptions aren't JSON.
    exception: Optional[BaseException] = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SweepResult:
    """Everything a supervised sweep produced: completed runs in input
    order (``None`` where a point failed) plus structured failures."""

    runs: list
    failures: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> int:
        return sum(1 for r in self.runs if r is not None)

    def require(self) -> list:
        """The full run list, or raise.

        A single deterministic simulation error re-raises *unchanged*
        (the historical ``run_points`` contract — callers like the
        differential harness catch ``SimulationError`` by type); anything
        else raises :class:`SweepIncompleteError` carrying this result.
        """
        if self.complete:
            return self.runs
        for f in self.failures:
            if f.kind == "error" and f.exception is not None:
                raise f.exception
        raise SweepIncompleteError(self)


# --------------------------------------------------------------------- #
# journal
# --------------------------------------------------------------------- #


def _compact(record: dict) -> str:
    """A journal line: compact JSON in the record's own key order."""
    return json.dumps(record, separators=(",", ":"))


class SweepJournal:
    """Append-only JSONL log of a sweep's worker heartbeats.

    Line 1 is a header pinning the journal and payload schema versions;
    every other line is an auxiliary record written by :meth:`note`
    (``kind="heartbeat"``, see :mod:`repro.obs.progress`) — diagnostics
    for a human reading the journal of a dead sweep.  It holds no
    results: completed points live in the result cache, which is what a
    re-run resumes from.  Records are flushed per line, and a torn final
    line from a SIGKILL is newline-terminated before the next append.
    The file handling is :mod:`repro.util.jsonl`, shared with the run
    history.  Writes are serialized by a lock: on the sequential path an
    attempt's first heartbeat comes from the main thread and the rest
    from its sampler thread.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None
        self._lock = threading.Lock()

    def open_append(self) -> "SweepJournal":
        """Open for appending, writing the header on a fresh file."""
        header = {
            "kind": "header",
            "journal_version": JOURNAL_VERSION,
            "schema": SCHEMA_VERSION,
        }
        self._fh = open_append(self.path, _compact(header))
        return self

    def note(self, record: dict) -> bool:
        """Append one auxiliary record (e.g. ``kind="heartbeat"``).

        Best-effort diagnostics: non-JSON-encodable records are dropped
        with a warning rather than killing the sweep.
        """
        with self._lock:
            if self._fh is None:
                return False
            try:
                line = _compact(record)
            except (TypeError, ValueError):
                _log.warning(
                    "journal %s: dropping non-JSON note %r", self.path, record
                )
                return False
            write_line(self._fh, line)
            return True

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    self._fh.close()
                finally:
                    self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self.open_append()

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# worker heartbeats
# --------------------------------------------------------------------- #

#: Per-worker heartbeat plumbing, set once by the pool initializer
#: (:func:`_hb_init`).  Pool workers inherit the queue through the
#: fork/spawn machinery; the sequential path passes an emit callable to
#: :func:`_worker_entry` directly instead.
_HB: dict = {"emit": None, "interval": 0.0}


def _hb_init(queue, interval: float) -> None:
    """``ProcessPoolExecutor`` initializer: arm heartbeats in a worker."""
    _HB["emit"] = queue.put_nowait
    _HB["interval"] = interval


def _heartbeat_record(key: str, label: str, attempt: int, t0: float) -> dict:
    rec = {
        "key": key,
        "label": label,
        "attempt": attempt,
        "elapsed_s": round(time.monotonic() - t0, 3),
        "pid": os.getpid(),
        "sim_cycles": None,
        "delivered": None,
    }
    try:
        from repro.net.simulator import live_progress

        live = live_progress()
        if live is not None:
            rec["sim_cycles"], rec["delivered"] = live
    except Exception:  # pragma: no cover - telemetry must never break a run
        pass
    return rec


@contextlib.contextmanager
def _heartbeats(
    key: str,
    label: str,
    attempt: int,
    emit: Optional[Callable],
    interval: float,
) -> Iterator[None]:
    """Emit heartbeat records while the wrapped attempt runs.

    One record goes out immediately (so even sub-second points leave a
    breadcrumb), then one per *interval* from a daemon sampler thread.
    The thread only ever *reads* simulator state
    (:func:`repro.net.simulator.live_progress`), so the simulation
    itself is unperturbed; emit failures (parent gone, queue full) are
    swallowed — telemetry must never take down the point it watches.
    """
    if emit is None or interval <= 0:
        yield
        return
    t0 = time.monotonic()
    stop = threading.Event()

    def _send() -> None:
        try:
            emit(_heartbeat_record(key, label, attempt, t0))
        except Exception:
            pass

    def _pulse() -> None:
        while not stop.wait(interval):
            _send()

    _send()
    thread = threading.Thread(
        target=_pulse, name=f"heartbeat:{label}", daemon=True
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=1.0)


# --------------------------------------------------------------------- #
# worker body
# --------------------------------------------------------------------- #


def _worker_entry(
    point,
    key: str,
    attempt: int,
    timeout_s: Optional[float],
    chaos: Optional[ChaosPlan],
    obs,
    check,
    in_pool: bool,
    hb_emit: Optional[Callable] = None,
    hb_interval: float = 0.0,
) -> dict:
    """One supervised attempt: chaos, watchdog, simulate, encode.

    Runs in a pool worker (``in_pool=True``) or inline in the parent for
    sequential sweeps.  The watchdog arms *before* chaos so an injected
    hang is caught exactly like a real one.  Heartbeats come from the
    pool initializer's queue (pooled) or the explicit ``hb_emit``
    callable (sequential) and cover chaos hangs too — a stalled worker
    is visible from its flatlining ``sim_cycles``.
    """
    from repro.runner.pool import _simulate_encoded, point_label

    if in_pool and hb_emit is None:
        hb_emit = _HB["emit"]
        hb_interval = _HB["interval"]
    label = point_label(point)
    with watchdog(timeout_s, f"point {label} (attempt {attempt})"):
        with _heartbeats(key, label, attempt, hb_emit, hb_interval):
            if chaos is not None and chaos.enabled:
                fate = chaos.decide(key, attempt)
                if fate == "kill":
                    if in_pool:
                        # A hard worker death: the parent sees
                        # BrokenProcessPool, exactly like an OOM kill.
                        os._exit(42)
                    raise ChaosKilled(
                        f"chaos killed point {label} (attempt {attempt})"
                    )
                if fate == "hang":
                    time.sleep(chaos.hang_s)
            return _simulate_encoded(point, obs, check)


# --------------------------------------------------------------------- #
# the supervised executor
# --------------------------------------------------------------------- #


@dataclass
class _Task:
    """Book-keeping for one point moving through the scheduler."""

    index: int
    point: object
    key: str
    label: str
    timeout_s: Optional[float]
    attempt: int = 1
    timeouts: int = 0
    crashes: int = 0
    not_before: float = 0.0
    deadline: float = float("inf")
    hard_killed: bool = False


class _Supervisor:
    """Executes a batch of tasks under one :class:`SuperviseConfig`.

    Shared state machine for the pooled and sequential paths: attempts
    either complete (``on_complete`` fires, for cache/counters), time
    out, crash, or error; transient causes reschedule with backoff until
    ``max_attempts`` (or :data:`QUARANTINE_STRIKES` pool breaks), then
    become :class:`PointFailure` records.
    """

    def __init__(
        self,
        cfg: SuperviseConfig,
        obs,
        check,
        on_complete: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        strict_errors: bool = True,
        heartbeat: Optional[Callable] = None,
    ) -> None:
        self.cfg = cfg
        self.obs = obs
        self.check = check
        self.on_complete = on_complete
        self.on_event = on_event or (lambda kind, task: None)
        self.strict_errors = strict_errors
        self.heartbeat = heartbeat
        self.payloads: dict[int, dict] = {}
        self.failures: list[PointFailure] = []
        self._hb_queue = None

    # -- heartbeat plumbing ----------------------------------------- #

    def _hb_consume(self, rec: dict) -> None:
        """Hand one heartbeat to the consumer; never let it kill the
        sweep (the consumer renders UI and journals diagnostics)."""
        if self.heartbeat is None:
            return
        try:
            self.heartbeat(rec)
        except Exception:
            _log.debug("heartbeat consumer failed", exc_info=True)

    def _drain_heartbeats(self) -> None:
        q = self._hb_queue
        if q is None:
            return
        while True:
            try:
                rec = q.get_nowait()
            except Exception:
                # queue.Empty normally; OSError/ValueError mid-teardown.
                break
            self._hb_consume(rec)

    # -- shared outcome handlers ------------------------------------ #

    def _complete(self, task: _Task, payload: dict) -> None:
        self.payloads[task.index] = payload
        if self.on_complete is not None:
            self.on_complete(task, payload)

    def _fail(self, task: _Task, kind: str, message: str,
              exception: Optional[BaseException] = None) -> None:
        failure = PointFailure(
            index=task.index,
            key=task.key,
            label=task.label,
            kind=kind,
            attempts=task.attempt,
            error=message,
            exception=exception,
        )
        self.failures.append(failure)
        self.on_event("failed", task)
        _log.error("point %s failed (%s): %s", task.label, kind, message)

    def _retry_or_fail(
        self, task: _Task, kind: str, message: str, now: float
    ) -> Optional[_Task]:
        """Reschedule *task* after a transient failure, or fail it.

        Returns the task when it should be requeued (with its backoff
        gate set), else records the failure and returns None.
        """
        if kind == "timeout":
            task.timeouts += 1
            self.on_event("timeout", task)
        elif kind == "crash":
            task.crashes += 1
            self.on_event("crash", task)
            if task.crashes >= QUARANTINE_STRIKES:
                self._fail(
                    task,
                    "quarantined",
                    f"present at {task.crashes} pool break(s) "
                    f"(strikes limit {QUARANTINE_STRIKES}): "
                    f"{message}",
                )
                self.on_event("quarantined", task)
                return None
        if task.attempt >= self.cfg.max_attempts:
            self._fail(
                task,
                kind,
                f"retries exhausted after {task.attempt} attempt(s): "
                f"{message}",
            )
            return None
        task.attempt += 1
        task.not_before = now + backoff_for(task.attempt)
        task.deadline = float("inf")
        task.hard_killed = False
        self.on_event("retry", task)
        _log.warning(
            "%s; retry %d/%d in %.2fs",
            message,
            task.attempt - 1,
            self.cfg.max_attempts - 1,
            task.not_before - now,
        )
        return task

    def _handle_error(self, task: _Task, exc: BaseException) -> None:
        """Deterministic failure (simulation/validation error): never
        retried — the same inputs would fail the same way."""
        self._fail(
            task,
            "error",
            f"{type(exc).__name__}: {exc}",
            exception=exc,
        )
        if self.strict_errors:
            raise exc

    # -- sequential path -------------------------------------------- #

    def run_sequential(self, tasks: list) -> None:
        hb_emit = (
            self._hb_consume
            if self.heartbeat is not None and self.cfg.heartbeat_s > 0
            else None
        )
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self.on_event("start", task)
            try:
                payload = _worker_entry(
                    task.point,
                    task.key,
                    task.attempt,
                    task.timeout_s,
                    self.cfg.chaos,
                    self.obs,
                    self.check,
                    in_pool=False,
                    hb_emit=hb_emit,
                    hb_interval=self.cfg.heartbeat_s,
                )
            except PointTimeoutError as exc:
                again = self._retry_or_fail(
                    task, "timeout", str(exc), time.monotonic()
                )
                if again is not None:
                    queue.append(again)
            except ChaosKilled as exc:
                again = self._retry_or_fail(
                    task, "crash", str(exc), time.monotonic()
                )
                if again is not None:
                    queue.append(again)
            except Exception as exc:
                self._handle_error(task, exc)
            else:
                self._complete(task, payload)

    # -- pooled path ------------------------------------------------ #

    def _spawn_pool(self, max_workers: int) -> ProcessPoolExecutor:
        """A worker pool, with heartbeats armed when a consumer wants
        them (the queue rides into workers via the pool initializer).

        Each pool gets a fresh queue; the previous pool's is drained and
        closed.  A queue's feeder threads share one cross-process write
        lock, and a worker that dies holding it (chaos ``os._exit``, an
        OOM SIGKILL) leaves it taken for good.  Workers of a respawned
        pool sharing that queue would block on the lock in their feeder
        threads, then at exit, where each joins its feeder thread, so the
        final ``shutdown(wait=True)`` would never return.
        """
        self._drain_heartbeats()
        self._close_hb_queue()
        if self.heartbeat is None or self.cfg.heartbeat_s <= 0:
            return ProcessPoolExecutor(max_workers=max_workers)
        import multiprocessing as mp

        self._hb_queue = mp.Queue()
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_hb_init,
            initargs=(self._hb_queue, self.cfg.heartbeat_s),
        )

    def run_pooled(self, tasks: list, jobs: int) -> None:
        max_workers = min(jobs, len(tasks))
        pool = self._spawn_pool(max_workers)
        ready: deque = deque(tasks)
        waiting: list = []
        in_flight: dict = {}
        try:
            while ready or waiting or in_flight:
                now = time.monotonic()
                if waiting:
                    still = []
                    for task in waiting:
                        if task.not_before <= now:
                            ready.append(task)
                        else:
                            still.append(task)
                    waiting = still
                while ready and len(in_flight) < max_workers:
                    task = ready.popleft()
                    try:
                        future = pool.submit(
                            _worker_entry,
                            task.point,
                            task.key,
                            task.attempt,
                            task.timeout_s,
                            self.cfg.chaos,
                            self.obs,
                            self.check,
                            True,
                        )
                    except BrokenProcessPool:
                        # A worker died between our last wait and this
                        # submit: the pool is already broken.  Put the
                        # task back untouched (it never ran) and recover.
                        ready.appendleft(task)
                        pool = self._recover_pool_break(
                            pool, in_flight, waiting, max_workers
                        )
                        continue
                    if task.timeout_s is not None:
                        task.deadline = now + task.timeout_s + GRACE_S
                    else:
                        task.deadline = float("inf")
                    in_flight[future] = task
                    self.on_event("start", task)
                if not in_flight:
                    if waiting:
                        pause = min(t.not_before for t in waiting) - now
                        if pause > 0:
                            time.sleep(min(pause, 1.0))
                    continue
                horizon = min(t.deadline for t in in_flight.values())
                for t in waiting:
                    horizon = min(horizon, t.not_before)
                wait_s = min(max(horizon - now, 0.02), 1.0)
                done, _ = wait(
                    set(in_flight),
                    timeout=wait_s,
                    return_when=FIRST_COMPLETED,
                )
                self._drain_heartbeats()
                now = time.monotonic()
                if not done:
                    overdue = [
                        t for t in in_flight.values() if t.deadline <= now
                    ]
                    if overdue:
                        # The in-worker alarm should have fired long ago:
                        # the worker is wedged beyond Python's reach.
                        # Kill the pool; the break handler sorts out who
                        # was a timeout and who was a bystander.
                        for t in overdue:
                            t.hard_killed = True
                            _log.warning(
                                "point %s overran its hard deadline; "
                                "killing the worker pool",
                                t.label,
                            )
                        _kill_pool_workers(pool)
                    continue
                broke = False
                for future in done:
                    task = in_flight.pop(future)
                    try:
                        payload = future.result()
                    except PointTimeoutError as exc:
                        again = self._retry_or_fail(
                            task, "timeout", str(exc), now
                        )
                        if again is not None:
                            waiting.append(again)
                    except BrokenProcessPool:
                        # Put it back: the break handler below treats
                        # every in-flight task uniformly.
                        in_flight[future] = task
                        broke = True
                    except Exception as exc:
                        self._handle_error(task, exc)
                    else:
                        self._complete(task, payload)
                if broke:
                    pool = self._recover_pool_break(
                        pool, in_flight, waiting, max_workers
                    )
        except BaseException:
            _kill_pool_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            self._close_hb_queue()
            raise
        pool.shutdown(wait=True, cancel_futures=True)
        self._drain_heartbeats()
        self._close_hb_queue()

    def _close_hb_queue(self) -> None:
        q, self._hb_queue = self._hb_queue, None
        if q is not None:
            try:
                q.close()
                q.join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass

    def _recover_pool_break(
        self, pool, in_flight: dict, waiting: list, max_workers: int
    ):
        """A worker died: drain every in-flight future, attribute the
        damage, respawn the pool."""
        self.on_event("pool_break", None)
        _log.warning(
            "worker pool broke with %d point(s) in flight; respawning",
            len(in_flight),
        )
        self._drain_heartbeats()
        now = time.monotonic()
        # A pool break takes down *every* in-flight future, culprit and
        # bystander alike.  For real crashes (OOM, segfault) the parent
        # cannot tell who was at fault, so everyone gets a strike — but
        # chaos kills are decided by a hash the parent can replay: when
        # the chaos plan fingers a culprit among the in-flight attempts,
        # the others are provable bystanders and are rescheduled without
        # a strike (same attempt number, so the deterministic re-roll is
        # unchanged).  Without this, one slow point sharing a small pool
        # with chaos-killed neighbours soaks up bystander strikes until
        # it is quarantined for crimes it never committed.
        bystanders: set = set()
        chaos = self.cfg.chaos
        if chaos is not None and chaos.enabled:
            culprits = {
                id(task)
                for task in in_flight.values()
                if chaos.decide(task.key, task.attempt) == "kill"
            }
            if culprits:
                bystanders = {
                    id(task)
                    for task in in_flight.values()
                    if id(task) not in culprits
                }
        for future, task in list(in_flight.items()):
            payload = None
            exc: Optional[BaseException] = None
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    payload = future.result()
            else:
                future.cancel()
            if payload is not None:
                # Completed before the pool collapsed — keep it.
                self._complete(task, payload)
                continue
            if task.hard_killed or isinstance(exc, PointTimeoutError):
                again = self._retry_or_fail(
                    task,
                    "timeout",
                    "hard-killed after overrunning its deadline",
                    now,
                )
            elif exc is not None and not isinstance(exc, BrokenProcessPool):
                self._handle_error(task, exc)
                again = None
            elif id(task) in bystanders:
                # Not at fault: requeue immediately, no strike, no
                # backoff, same attempt number.
                task.deadline = float("inf")
                task.hard_killed = False
                again = task
            else:
                again = self._retry_or_fail(
                    task, "crash", "worker died (pool broke)", now
                )
            if again is not None:
                waiting.append(again)
        in_flight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return self._spawn_pool(max_workers)


def _kill_pool_workers(pool) -> None:
    """Hard-kill a pool's worker processes (wedged or abandoned)."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except (OSError, AttributeError, ValueError):  # pragma: no cover
            pass


def execute_supervised(
    items: list,
    jobs: int,
    cfg: SuperviseConfig,
    obs,
    check,
    on_complete: Optional[Callable] = None,
    on_event: Optional[Callable] = None,
    strict_errors: bool = True,
    heartbeat: Optional[Callable] = None,
) -> tuple[dict, list]:
    """Run ``(index, point, key, label)`` items under supervision.

    Returns ``(payloads_by_index, failures)``.  ``on_complete(task,
    payload)`` fires as each point lands (cache/counters hook);
    ``on_event(kind, task)`` fires on start/retry/timeout/crash/
    pool_break/quarantined/failed transitions (counters + progress
    hook); ``heartbeat(record)`` receives worker heartbeat dicts on the
    parent's thread (pooled) or the sampler thread (sequential) when
    ``cfg.heartbeat_s > 0``.  With ``strict_errors`` deterministic
    simulation errors re-raise immediately (the historical contract);
    otherwise they become structured failures like everything else.
    """
    sup = _Supervisor(
        cfg,
        obs,
        check,
        on_complete=on_complete,
        on_event=on_event,
        strict_errors=strict_errors,
        heartbeat=heartbeat,
    )
    tasks = [
        _Task(
            index=index,
            point=point,
            key=key,
            label=label,
            timeout_s=cfg.timeout_for(point),
        )
        for index, point, key, label in items
    ]
    if jobs > 1 and len(tasks) > 1:
        sup.run_pooled(tasks, jobs)
    else:
        sup.run_sequential(tasks)
    return sup.payloads, sup.failures


__all__ = [
    "ChaosKilled",
    "ChaosPlan",
    "JOURNAL_VERSION",
    "PointFailure",
    "PointTimeoutError",
    "SuperviseConfig",
    "SweepIncompleteError",
    "SweepJournal",
    "SweepResult",
    "active_supervision",
    "derive_timeout",
    "execute_supervised",
    "resolve_supervision",
    "supervising",
    "watchdog",
]
