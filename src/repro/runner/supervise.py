"""Sweep supervision: timeouts, retries, owned workers, chaos.

The parallel runner (:mod:`repro.runner.pool`) fans independent
simulation points over worker processes.  Without supervision, one hung
point, one OOM-killed worker or one Ctrl-C throws away the whole sweep.
This module wraps point execution in the machinery of a production job
scheduler:

* **Per-point wall-clock timeouts** — every attempt runs under a SIGALRM
  :func:`watchdog` inside the worker (explicit via
  ``--point-timeout`` / ``REPRO_POINT_TIMEOUT``, else derived from the
  point's shape and message size).  The parent additionally enforces a
  hard deadline (timeout + :data:`GRACE_S`, from the point's hand-over
  to its worker): a worker wedged beyond its own alarm is killed and
  replaced.
* **Bounded retries with deterministic backoff** — transient failures
  (timeouts, worker deaths) are rescheduled with exponential backoff and
  *no jitter*: given the same failures, the schedule is reproducible.
  Simulation results themselves are seed-deterministic, so a retried
  point returns bit-identical bytes.
* **One point per worker** — the pooled path owns its worker processes,
  each with its own pipe and at most one point.  A worker that dies
  (SIGKILL, OOM, hard crash) costs exactly the point it held one
  attempt, and only that worker is replaced.  An exception a point
  raises comes back as itself, with the worker's traceback chained as
  its ``__cause__``.
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
each start, retry, timeout, crash and failure, and ``on_complete`` each
landed point.  A ``tick`` callable, if given, is called at least once
per :data:`TICK_S` while points run, so a status line can age its
in-flight points between events.  Workers report nothing on a side
channel.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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
#: Seconds past a point's own timeout before the parent kills its worker.
GRACE_S = 10.0
#: Longest gap between two calls of a sweep's ``tick`` while points run.
TICK_S = 1.0


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
    together.
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
    #: ``"timeout"`` | ``"crash"`` | ``"error"``
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

    Runs in a pooled worker (``in_pool=True``) or inline in the parent
    for sequential sweeps.  The watchdog arms *before* chaos so an
    injected hang is caught exactly like a real one.
    """
    from repro.runner.pool import _simulate_encoded, point_label

    label = point_label(point)
    with watchdog(timeout_s, f"point {label} (attempt {attempt})"):
        if chaos is not None and chaos.enabled:
            fate = chaos.decide(key, attempt)
            if fate == "kill":
                if in_pool:
                    # A hard worker death: the parent sees the worker's
                    # pipe close, exactly like an OOM kill.
                    os._exit(42)
                raise ChaosKilled(
                    f"chaos killed point {label} (attempt {attempt})"
                )
            if fate == "hang":
                time.sleep(chaos.hang_s)
        return _simulate_encoded(point, obs, check)


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the ``__cause__`` of
    the exception the worker's point raised."""


def _worker_main(conn, parent_end) -> None:
    """Body of one pooled worker process.

    Runs each :func:`_worker_entry` argument tuple the parent sends on
    *conn*, one at a time, and replies ``(payload, None, None)`` or
    ``(None, exception, traceback text)``.  An exception that does not
    survive a pickle round trip is replaced by a :class:`RuntimeError`
    naming its type and message.  Ctrl-C is the parent's to handle: it
    kills its workers on the way out.  The worker closes its copy of
    the parent's end, so a parent that dies without killing it leaves
    the worker a closed pipe to exit on rather than a wait forever.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            args = conn.recv()
            try:
                reply = (_worker_entry(*args, in_pool=True), None, None)
            except Exception as exc:
                tb = "".join(traceback.format_exception(exc))
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = (None, exc, tb)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the pipe broke: the parent is gone


class _Worker:
    """One pooled worker process, the parent's end of its pipe, and the
    task it holds (``None`` while idle)."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main,
            args=(child, self.conn),
            name="sweep-worker",
        )
        self.proc.start()
        child.close()
        self.task: Optional[_Task] = None

    def stop(self) -> None:
        """Kill the process (a no-op once it has died) and reap it."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()


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
    not_before: float = 0.0
    deadline: float = float("inf")


class _Supervisor:
    """Executes a batch of tasks under one :class:`SuperviseConfig`.

    Shared state machine for the pooled and sequential paths: attempts
    either complete (``on_complete`` fires, for cache/counters), time
    out, crash, or error; transient causes reschedule with backoff until
    ``max_attempts``, then become :class:`PointFailure` records.
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
        """Reschedule *task* after a transient failure (kind ``timeout``
        or ``crash``), or fail it.

        Returns the task when it should be requeued (with its backoff
        gate set), else records the failure and returns None.
        """
        self.on_event(kind, task)
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
        """Run *tasks* longest first on ``min(jobs, len(tasks))`` worker
        processes this supervisor owns, one point per worker.

        A worker that replies gets its next point before the parent
        stores the reply, so it never idles through a cache write; the
        point's ``start`` event and hard deadline count from that
        hand-over.  A worker that dies, or that the parent kills past
        its hard deadline, costs the point it held one attempt, and only
        that worker is replaced.  The parent starts no thread here (a
        fork with threads alive can deadlock a worker); it ticks after
        every wait instead.  Every worker is killed and reaped before
        this returns or raises."""
        nworkers = min(jobs, len(tasks))
        # sorted() is stable: equal hints keep their input order.
        ready: deque = deque(
            sorted(tasks, key=lambda t: -t.point.cost_hint)
        )
        waiting: list = []
        idle: list = []
        busy: dict = {}  # the parent's end of a pipe -> its worker
        try:
            while ready or waiting or busy:
                now = time.monotonic()
                if waiting:
                    ready.extend(t for t in waiting if t.not_before <= now)
                    waiting = [t for t in waiting if t.not_before > now]
                while ready and len(busy) < nworkers:
                    worker = idle.pop() if idle else _Worker()
                    self._hand_over(worker, ready.popleft(), busy, now)
                horizon = min(
                    [w.task.deadline for w in busy.values()]
                    + [t.not_before for t in waiting]
                )
                wait_s = min(max(horizon - now, 0.02), TICK_S)
                if busy:
                    replied = wait(list(busy), wait_s)
                else:
                    replied = []
                    time.sleep(wait_s)
                self._tick()
                now = time.monotonic()
                for conn in replied:
                    worker = busy.pop(conn)
                    task, worker.task = worker.task, None
                    try:
                        payload, exc, tb = conn.recv()
                    except (EOFError, OSError):
                        worker.stop()
                        again = self._retry_or_fail(
                            task,
                            "crash",
                            f"worker running point {task.label} died "
                            f"(exit code {worker.proc.exitcode})",
                            now,
                        )
                        if again is not None:
                            waiting.append(again)
                        continue
                    if ready:
                        self._hand_over(worker, ready.popleft(), busy, now)
                    else:
                        idle.append(worker)
                    if exc is None:
                        self._complete(task, payload)
                    elif isinstance(exc, PointTimeoutError):
                        again = self._retry_or_fail(
                            task, "timeout", str(exc), now
                        )
                        if again is not None:
                            waiting.append(again)
                    else:
                        exc.__cause__ = _RemoteTraceback(f'\n"""\n{tb}"""')
                        self._handle_error(task, exc)
                for conn, worker in list(busy.items()):
                    if worker.task.deadline > now:
                        continue
                    # The in-worker alarm should have fired long ago: the
                    # worker is wedged beyond Python's reach.
                    _log.warning(
                        "point %s overran its hard deadline; killing its "
                        "worker",
                        worker.task.label,
                    )
                    del busy[conn]
                    worker.stop()
                    again = self._retry_or_fail(
                        worker.task,
                        "timeout",
                        "hard-killed after overrunning its deadline",
                        now,
                    )
                    if again is not None:
                        waiting.append(again)
        finally:
            for worker in (*idle, *busy.values()):
                worker.stop()

    def _hand_over(
        self, worker: _Worker, task: _Task, busy: dict, now: float
    ) -> None:
        """Send *task* to the idle *worker* and arm its hard deadline."""
        worker.task = task
        if task.timeout_s is not None:
            task.deadline = now + task.timeout_s + GRACE_S
        else:
            task.deadline = float("inf")
        busy[worker.conn] = worker
        self.on_event("start", task)
        try:
            worker.conn.send(
                (
                    task.point,
                    task.key,
                    task.attempt,
                    task.timeout_s,
                    self.cfg.chaos,
                    self.obs,
                    self.check,
                )
            )
        except OSError:
            # The worker died since its last reply; its closed pipe
            # reports the crash on the next wait.
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
    ``on_event(kind, task)`` fires on start/retry/timeout/crash/failed
    transitions (counters + progress hook); ``tick()`` is called at
    least once per :data:`TICK_S` while points run, from the parent's
    main thread (pooled) or from one daemon ticker thread (sequential,
    whose main thread is busy simulating).  With ``strict_errors`` deterministic simulation errors
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
