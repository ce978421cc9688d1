"""Sweep supervision: timeouts, retries, quarantine, chaos.

The parallel runner (:mod:`repro.runner.pool`) fans independent
simulation points over a process pool.  Without supervision, one hung
point, one OOM-killed worker or one Ctrl-C throws away the whole sweep.
This module wraps point execution in the machinery of a production job
scheduler:

* **Per-point wall-clock timeouts** — every attempt runs under a SIGALRM
  :func:`watchdog` inside the worker (explicit via
  ``--point-timeout`` / ``REPRO_POINT_TIMEOUT``, else derived from the
  point's shape and message size).  The parent additionally enforces a
  hard deadline (timeout + :data:`GRACE_S`, from the point's start): a
  worker wedged beyond its own alarm is killed and its pool respawned.
* **Bounded retries with deterministic backoff** — transient failures
  (timeouts, worker deaths) are rescheduled with exponential backoff and
  *no jitter*: given the same failures, the schedule is reproducible.
  Simulation results themselves are seed-deterministic, so a retried
  point returns bit-identical bytes.
* **Worker-crash quarantine** — a ``BrokenProcessPool`` (worker SIGKILL,
  OOM, hard crash) is recovered by respawning the pool; every in-flight
  point is rescheduled, and a point running at
  :data:`QUARANTINE_STRIKES` pool breaks is quarantined (recorded as a
  structured failure) instead of being allowed to kill the pool forever.
  Points still queued behind the running ones requeue strike-free.
* **Graceful degradation** — :func:`repro.runner.pool.run_sweep` returns
  a :class:`SweepResult` carrying every completed run plus a structured
  ``failures`` list; :func:`~repro.runner.pool.run_points` keeps its
  historical contract (deterministic errors re-raise unchanged; resource
  failures raise :class:`SweepIncompleteError`, which still carries the
  partial :class:`SweepResult`).
* **Resume from the cache** — the runner stores every completed point
  in the content-addressed result cache (:mod:`repro.runner.cache`) the
  moment it lands, so re-running an interrupted sweep simulates only the
  missing points, bit-identically.
* **Deterministic chaos** — ``REPRO_CHAOS=kill:0.05,hang:0.02,seed=N``
  makes workers die (``os._exit``) or stall before simulating, decided
  by a hash of ``(seed, point key, attempt)``: reproducible, and a
  retried attempt re-rolls the dice, so chaos converges.  This is how
  the whole layer is tested in CI.

Every sweep, pooled or sequential, runs through :func:`execute_supervised`.
With no timeout or chaos configured (supervision not *active*) the
sequential supervisor is a thin wrapper: the watchdog is a no-op, and in
strict mode a deterministic error re-raises as the same exception object
a direct call would have raised.

Telemetry is the supervisor's own event stream: ``on_event`` reports
each start, retry, timeout, crash, pool break and failure, and
``on_complete`` each landed point.  A ``tick`` callable, if given, is
called at least once per :data:`TICK_S` while points run, so a status
line can age its in-flight points between events.  Workers report
nothing on a side channel.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.util.validation import check_positive_int

_log = logging.getLogger("repro.runner.supervise")


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


#: ``REPRO_CHAOS`` field name -> (:class:`ChaosPlan` attribute, parser).
_CHAOS_FIELDS = {
    "kill": ("kill_prob", float),
    "hang": ("hang_prob", float),
    "seed": ("seed", int),
    "hang_s": ("hang_s", float),
}


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
                attr, convert = _CHAOS_FIELDS[name]
            except KeyError:
                raise ValueError(
                    f"unknown chaos field {name!r} in {spec!r} "
                    f"(known: {', '.join(_CHAOS_FIELDS)})"
                ) from None
            try:
                kw[attr] = convert(value)
            except ValueError:
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
#: Longest gap between two calls of a sweep's ``tick`` while points run.
TICK_S = 1.0
#: Tasks the pooled path keeps queued behind each running one.
QUEUE_DEPTH = 1


def backoff_for(attempt: int) -> float:
    """Deterministic delay before retry *attempt* (attempt >= 2)."""
    return BACKOFF_S * BACKOFF_FACTOR ** max(attempt - 2, 0)


#: Longest per-point limit, s (~32 years).  ``setitimer`` cannot arm a
#: timer past ~9.2e9 s, so a longer (or infinite) limit is refused up
#: front rather than failing every point inside :func:`watchdog`.
MAX_POINT_TIMEOUT_S = 1e9


def _check_timeout(seconds: float, name: str) -> float:
    """Return *seconds* if the watchdog can arm it, else raise."""
    if not 0.0 < seconds <= MAX_POINT_TIMEOUT_S:  # NaN fails here too
        raise ValueError(
            f"{name} must be seconds in (0, {MAX_POINT_TIMEOUT_S:g}], "
            f"got {seconds!r}"
        )
    return seconds


@dataclass
class SuperviseConfig:
    """Knobs of the supervision layer (see the module docstring).

    ``point_timeout_s=None`` means "derive from the point" when timeouts
    are needed (chaos active, or supervision explicitly activated) and
    "no timeout" otherwise.  ``max_attempts`` bounds every retry cause
    together; :data:`QUARANTINE_STRIKES` separately bounds how many pool
    breaks a single point may be present for.
    """

    point_timeout_s: Optional[float] = None
    max_attempts: int = 5
    chaos: Optional[ChaosPlan] = None

    def __post_init__(self) -> None:
        self.max_attempts = check_positive_int(
            self.max_attempts, "max_attempts"
        )
        if self.point_timeout_s is not None:
            _check_timeout(self.point_timeout_s, "point_timeout_s")

    @property
    def is_active(self) -> bool:
        """Whether any supervision feature is actually requested; only
        then does a point without an explicit limit get a derived one."""
        return self.point_timeout_s is not None or (
            self.chaos is not None and self.chaos.enabled
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
                timeout = float(env_t)
            except ValueError:
                raise ValueError(
                    f"REPRO_POINT_TIMEOUT must be seconds, got {env_t!r}"
                ) from None
            kw["point_timeout_s"] = _check_timeout(
                timeout, "REPRO_POINT_TIMEOUT"
            )
        env_c = os.environ.get("REPRO_CHAOS", "").strip()
        if env_c:
            try:
                kw["chaos"] = ChaosPlan.parse(env_c)
            except ValueError as exc:
                raise ValueError(f"REPRO_CHAOS: {exc}") from None
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
) -> dict:
    """One supervised attempt: chaos, watchdog, simulate, encode.

    Runs in a pool worker (``in_pool=True``) or inline in the parent for
    sequential sweeps.  The watchdog arms *before* chaos so an injected
    hang is caught exactly like a real one.
    """
    from repro.runner.pool import _simulate_encoded, point_label

    label = point_label(point)
    with watchdog(timeout_s, f"point {label} (attempt {attempt})"):
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
        tick: Optional[Callable] = None,
    ) -> None:
        self.cfg = cfg
        self.obs = obs
        self.check = check
        self.on_complete = on_complete
        self.on_event = on_event or (lambda kind, task: None)
        self.strict_errors = strict_errors
        self.tick = tick
        self.payloads: dict[int, dict] = {}
        self.failures: list[PointFailure] = []

    # -- telemetry -------------------------------------------------- #

    def _tick(self) -> None:
        """Call the tick consumer; never let it kill the sweep (it only
        repaints a status line)."""
        if self.tick is None:
            return
        try:
            self.tick()
        except Exception:
            _log.debug("sweep tick failed", exc_info=True)

    @contextlib.contextmanager
    def _ticker(self) -> Iterator[None]:
        """Tick from one daemon thread while the wrapped block runs.

        The sequential path simulates on the calling thread, so nothing
        else would tick between a point's start and its completion.
        """
        if self.tick is None:
            yield
            return
        stop = threading.Event()

        def _loop() -> None:
            while not stop.wait(TICK_S):
                self._tick()

        thread = threading.Thread(
            target=_loop, name="sweep-ticker", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=1.0)

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

    def run_pooled(self, tasks: list, jobs: int) -> None:
        """Fan *tasks* over a worker pool, longest first.

        Up to :data:`QUEUE_DEPTH` tasks wait in the pool's queue behind
        each running one, so a worker that finishes starts its next point
        at once instead of idling while the parent stores a result.
        Workers take tasks in submission order, so the running tasks are
        the oldest ``max_workers`` unfinished submissions: a queued task
        gets its ``start`` event and hard deadline when a completion
        frees a worker for it.  The parent starts no thread of its own
        here (a fork with threads alive can deadlock a worker); it ticks
        after every ``wait`` instead."""
        max_workers = min(jobs, len(tasks))
        pool = ProcessPoolExecutor(max_workers=max_workers)
        # sorted() is stable: equal hints keep their input order.
        ready: deque = deque(
            sorted(tasks, key=lambda t: -t.point.cost_hint)
        )
        waiting: list = []
        # Submitted futures by state, each in submission order.
        running: dict = {}
        queued: dict = {}
        limit = max_workers * (1 + QUEUE_DEPTH)
        try:
            while ready or waiting or running or queued:
                now = time.monotonic()
                if waiting:
                    still = []
                    for task in waiting:
                        if task.not_before <= now:
                            ready.append(task)
                        else:
                            still.append(task)
                    waiting = still
                while ready and len(running) + len(queued) < limit:
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
                            pool, running, queued, waiting, max_workers
                        )
                        continue
                    queued[future] = task
                self._start_queued(running, queued, max_workers, now)
                if not running:
                    if waiting:
                        pause = min(t.not_before for t in waiting) - now
                        if pause > 0:
                            time.sleep(min(pause, TICK_S))
                    continue
                horizon = min(t.deadline for t in running.values())
                for t in waiting:
                    horizon = min(horizon, t.not_before)
                wait_s = min(max(horizon - now, 0.02), TICK_S)
                done, _ = wait(
                    [*running, *queued],
                    timeout=wait_s,
                    return_when=FIRST_COMPLETED,
                )
                self._tick()
                now = time.monotonic()
                if not done:
                    overdue = [
                        t for t in running.values() if t.deadline <= now
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
                    held = running if future in running else queued
                    task = held.pop(future)
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # Put it back: the break handler below sorts the
                        # in-flight tasks by whether they had started.
                        held[future] = task
                        broke = True
                        continue
                    if held is queued:
                        # It started and finished between two looks.
                        self.on_event("start", task)
                    if exc is None:
                        self._complete(task, future.result())
                    elif isinstance(exc, PointTimeoutError):
                        again = self._retry_or_fail(
                            task, "timeout", str(exc), now
                        )
                        if again is not None:
                            waiting.append(again)
                    else:
                        self._handle_error(task, exc)
                if broke:
                    pool = self._recover_pool_break(
                        pool, running, queued, waiting, max_workers
                    )
        except BaseException:
            _kill_pool_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True, cancel_futures=True)

    def _start_queued(
        self, running: dict, queued: dict, max_workers: int, now: float
    ) -> None:
        """Move the oldest queued tasks to *running* while a worker is
        free, arming each one's hard deadline from now."""
        while queued and len(running) < max_workers:
            future = next(iter(queued))
            task = queued.pop(future)
            if task.timeout_s is not None:
                task.deadline = now + task.timeout_s + GRACE_S
            else:
                task.deadline = float("inf")
            running[future] = task
            self.on_event("start", task)

    def _recover_pool_break(
        self,
        pool,
        running: dict,
        queued: dict,
        waiting: list,
        max_workers: int,
    ):
        """A worker died: drain every in-flight future, attribute the
        damage, respawn the pool.

        Results that landed before the break are kept, and the queued
        tasks their workers went on to take count as started.  The rest
        of the queue never ran: it requeues as it was, with no strike
        and no backoff."""
        self.on_event("pool_break", None)
        _log.warning(
            "worker pool broke with %d point(s) running and %d queued; "
            "respawning",
            len(running),
            len(queued),
        )
        now = time.monotonic()
        for held in (running, queued):
            for future, task in list(held.items()):
                if future.done() and future.exception() is None:
                    del held[future]
                    if held is queued:
                        self.on_event("start", task)
                    self._complete(task, future.result())
        self._start_queued(running, queued, max_workers, now)
        for future, task in queued.items():
            future.cancel()
            waiting.append(task)
        queued.clear()
        # A pool break takes down *every* running future, culprit and
        # bystander alike.  For real crashes (OOM, segfault) the parent
        # cannot tell who was at fault, so everyone gets a strike — but
        # chaos kills are decided by a hash the parent can replay: when
        # the chaos plan fingers a culprit among the running attempts,
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
                for task in running.values()
                if chaos.decide(task.key, task.attempt) == "kill"
            }
            if culprits:
                bystanders = {
                    id(task)
                    for task in running.values()
                    if id(task) not in culprits
                }
        for future, task in running.items():
            exc = future.exception() if future.done() else None
            future.cancel()
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
        running.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return ProcessPoolExecutor(max_workers=max_workers)


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
    tick: Optional[Callable] = None,
) -> tuple[dict, list]:
    """Run ``(index, point, key, label)`` items under supervision.

    Returns ``(payloads_by_index, failures)``.  ``on_complete(task,
    payload)`` fires as each point lands (cache/counters hook);
    ``on_event(kind, task)`` fires on start/retry/timeout/crash/
    pool_break/quarantined/failed transitions (counters + progress
    hook); ``tick()`` is called at least once per :data:`TICK_S` while
    points run, from the parent's main thread (pooled) or from one
    daemon ticker thread (sequential, whose main thread is busy
    simulating).  With ``strict_errors`` deterministic simulation errors
    re-raise immediately (the historical contract); otherwise they
    become structured failures like everything else.
    """
    sup = _Supervisor(
        cfg,
        obs,
        check,
        on_complete=on_complete,
        on_event=on_event,
        strict_errors=strict_errors,
        tick=tick,
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
        with sup._ticker():
            sup.run_sequential(tasks)
    return sup.payloads, sup.failures


__all__ = [
    "ChaosKilled",
    "ChaosPlan",
    "PointFailure",
    "PointTimeoutError",
    "SuperviseConfig",
    "SweepIncompleteError",
    "SweepResult",
    "active_supervision",
    "derive_timeout",
    "execute_supervised",
    "resolve_supervision",
    "supervising",
    "watchdog",
]
