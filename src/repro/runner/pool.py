"""Parallel, cached, supervised execution of independent simulation points.

:func:`run_points` is the one entry point every experiment driver uses.
Guarantees:

* **Deterministic order** — results come back in input order, always.
* **Bit-identical parallelism** — each point is an independent simulation
  with its own seed; ``jobs=4`` returns exactly what ``jobs=1`` returns.
* **Bit-identical caching** — every result (fresh, pooled, cached or
  retried) goes through one canonical JSON encode/decode cycle, so where
  a result came from is unobservable downstream.
* **Resume from the cache** — each point is stored in the cache the
  moment it completes, so re-running an interrupted sweep simulates only
  the points that are still missing.  The cache is the only store of
  results.
* **Resilience** — every sweep runs under the supervision layer
  (:mod:`repro.runner.supervise`): per-point wall-clock timeouts,
  bounded deterministic retries, and owned worker processes that hold
  one point each, so a dead worker costs only its own point one
  attempt.  :func:`run_sweep` returns a
  :class:`~repro.runner.supervise.SweepResult` carrying completed runs
  plus structured failures; :func:`run_points` keeps the historical
  list-returning contract (deterministic simulation errors re-raise
  unchanged, resource failures raise
  :class:`~repro.runner.supervise.SweepIncompleteError` — which still
  carries the partial results).

Job-count resolution: explicit ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else 1 (sequential, in-process).  ``jobs=0`` or a
negative value means "all cores".

Observability: when an :class:`~repro.obs.config.ObsConfig` is passed (or
one is active via :func:`repro.obs.context.observe`, which is how the CLI
flags work), every point runs on the instrumented network and its
trace/metrics payload — already JSON-native from the canonical codec — is
deposited into the active collector in input order.  Observed runs bypass
the cache entirely, in both directions: an instrumented result never
pollutes it (its extras would break replayed-vs-fresh identity for normal
runs) and never gets served from it (a stored entry has no trace).  The
same holds for checked runs (a stored result was produced without the
oracles watching).

The module-level :data:`counters` record how many points were actually
simulated vs. served from cache (plus retries, timeouts, worker
crashes, corrupt entries, simulated cycles/events and the executed
point keys for provenance) — tests assert on them, and the CLI reports
them.  The same supervisor events drive the live status line
(:mod:`repro.obs.progress`).
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.api import AllToAllRun, simulate_alltoall
from repro.check.config import CheckConfig
from repro.check.context import active_check
from repro.obs.config import ObsConfig
from repro.obs.context import active_config, collect
from repro.runner.cache import cache_get, cache_put, pop_corrupt_count
from repro.runner.codec import decode_run, encode_run, point_key
from repro.runner.point import SimPoint
from repro.runner.supervise import (
    SuperviseConfig,
    SweepResult,
    execute_supervised,
    resolve_supervision,
)

_log = logging.getLogger("repro.runner.pool")


@dataclass
class RunnerCounters:
    """Observability: what :func:`run_points` actually did."""

    simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_corrupt: int = 0
    #: Supervision layer: reschedules, attempt timeouts, worker crashes.
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: Simulated-time and event totals over freshly executed points.
    sim_cycles: float = 0.0
    sim_events: int = 0
    #: Cache keys of every point executed (hit or fresh), in order —
    #: the provenance config fingerprint hashes these.
    point_keys: list = field(default_factory=list)
    #: Structured failure dicts
    #: (:meth:`~repro.runner.supervise.PointFailure.to_dict`) from every
    #: supervised sweep, in completion order — the experiment registry
    #: threads these onto :class:`ExperimentResult.failures`.
    failures: list = field(default_factory=list)

    def reset(self) -> None:
        # In place: callers hold the module-level instance.
        self.__init__()

    def snapshot(self) -> dict:
        """Plain-dict copy (for deltas around an experiment run)."""
        return asdict(self)


#: Process-wide counters (reset with ``counters.reset()``).
counters = RunnerCounters()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Final worker count: argument > ``REPRO_JOBS`` env > 1.

    0 means one worker per core; a negative count is refused."""
    name = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            name = "REPRO_JOBS"
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        else:
            jobs = 1
    if jobs < 0:
        raise ValueError(
            f"{name} must be >= 0 (0 = all cores), got {jobs}"
        )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def point_label(point: SimPoint) -> str:
    """Human-readable identity of a point (trace/log annotations)."""
    dims = "x".join(str(d) for d in point.shape.dims)
    name = getattr(point.strategy, "name", type(point.strategy).__name__)
    label = f"{name}@{dims}/{point.msg_bytes}B/seed{point.seed}"
    if point.faults is not None and not point.faults.is_empty:
        label += "/faulty"
    return label


def _simulate_encoded(
    point: SimPoint,
    obs: Optional[ObsConfig] = None,
    check: Optional[CheckConfig] = None,
) -> dict:
    """Worker body: run one point and return the canonical payload.

    Returning the *encoded* form does double duty — it is what crosses the
    process boundary and what lands in the cache, so all paths are the
    same bytes by construction.  With *obs* enabled the payload also
    carries ``result.extras["obs"]`` (trace + metrics), which the parent
    harvests into the active collector.  With a *check* config the
    point runs on the oracle-checked network (same decisions, same
    payload).
    """
    run = simulate_alltoall(
        point.strategy,
        point.shape,
        point.msg_bytes,
        params=point.params,
        seed=point.seed,
        faults=point.faults,
        obs=obs,
        check=check,
    )
    return encode_run(run)


def run_point(point: SimPoint) -> AllToAllRun:
    """Run (or fetch) a single point through the cache."""
    return run_points([point])[0]


def _count_event(kind: str, task) -> None:
    """Fold supervision transitions into the process-wide counters."""
    if kind == "retry":
        counters.retries += 1
    elif kind == "timeout":
        counters.timeouts += 1
    elif kind == "crash":
        counters.crashes += 1


def run_sweep(
    points: Sequence[SimPoint],
    jobs: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
    check: Optional[CheckConfig] = None,
    supervise: Optional[SuperviseConfig] = None,
    graceful: bool = True,
) -> SweepResult:
    """Execute *points* under supervision and report everything.

    Returns a :class:`~repro.runner.supervise.SweepResult`: one
    :class:`AllToAllRun` per point in input order (``None`` where a point
    ultimately failed) plus a structured ``failures`` list.  With
    ``graceful=True`` (the default here) nothing short of the process
    dying raises — a deterministic simulation error becomes a failure
    record like a crash or a timeout does.  ``graceful=False`` restores
    the historical fail-fast contract for :func:`run_points`.

    *supervise* defaults to the config activated via
    :func:`~repro.runner.supervise.supervising` (how the CLI flags work),
    else one resolved from ``REPRO_POINT_TIMEOUT`` / ``REPRO_CHAOS``.
    *obs* and *check* default to their own process-wide contexts; an
    enabled obs config or any check config bypasses the cache in both
    directions (see module docstring).  Points already in the cache are
    served from it, which is how re-running an interrupted sweep resumes
    it.
    """
    points = list(points)
    if obs is None:
        obs = active_config()
    observed = obs is not None and obs.enabled
    if check is None:
        check = active_check()
    bypass = observed or check is not None
    cfg = resolve_supervision(supervise)

    keys = [point_key(p) for p in points]
    labels = [point_label(p) for p in points]
    counters.point_keys.extend(keys)
    if bypass:
        payloads: list[Optional[dict]] = [None] * len(points)
        misses = list(range(len(points)))
    else:
        payloads = [cache_get(k) for k in keys]
        misses = [i for i, p in enumerate(payloads) if p is None]
        counters.cache_hits += len(points) - len(misses)
        counters.cache_misses += len(misses)
        counters.cache_corrupt += pop_corrupt_count()

    jobs = resolve_jobs(jobs)
    _log.info(
        "sweep: %d point(s), %d to simulate, jobs=%d%s",
        len(points),
        len(misses),
        jobs,
        " [observed/checked, cache bypassed]" if bypass else "",
    )

    # Live telemetry (status line / progress log lines), fed by the
    # supervisor's events and ticks.  Imported lazily: pool workers
    # import this module but never run a sweep themselves.
    from repro.obs.progress import resolve_progress

    progress = resolve_progress(len(points))
    if progress is not None:
        progress.begin(
            total=len(points), cached=len(points) - len(misses), jobs=jobs
        )

    failures = []
    try:
        if misses:
            todo = [
                (i, points[i], keys[i], labels[i]) for i in misses
            ]

            def _on_complete(task, payload) -> None:
                counters.simulated += 1
                result = payload["result"]
                counters.sim_cycles += result["time_cycles"]
                counters.sim_events += result["events_processed"]
                _log.debug(
                    "simulated %s: %.0f cycles, %d events",
                    task.label,
                    result["time_cycles"],
                    result["events_processed"],
                )
                if not bypass and cache_put(task.key, payload):
                    counters.cache_stores += 1
                if progress is not None:
                    progress.complete(task)

            def _on_event(kind: str, task) -> None:
                _count_event(kind, task)
                if progress is not None:
                    progress.event(kind, task)

            fresh, failures = execute_supervised(
                todo,
                jobs,
                cfg,
                obs,
                check,
                on_complete=_on_complete,
                on_event=_on_event,
                strict_errors=not graceful,
                tick=progress.tick if progress is not None else None,
            )
            for i, payload in fresh.items():
                payloads[i] = payload
    finally:
        if progress is not None:
            progress.finish()

    counters.failures.extend(f.to_dict() for f in failures)
    if observed:
        # Harvest per-point observability payloads in input order, so a
        # jobs=4 sweep collects exactly what a jobs=1 sweep does.
        for point, payload in zip(points, payloads):
            if payload is None:
                continue
            obs_payload = payload["result"]["extras"].get("obs")
            if obs_payload is not None:
                collect(point_label(point), obs_payload)
        _collect_supervision_metrics(obs, failures)
    runs = [decode_run(p) if p is not None else None for p in payloads]
    return SweepResult(runs=runs, failures=failures)


def _collect_supervision_metrics(obs: ObsConfig, failures: list) -> None:
    """Contribute the sweep supervisor's counters to an active metrics
    collection — but only when something actually happened, so healthy
    sweeps keep their golden traces byte-identical."""
    if not obs.metrics:
        return
    eventful = (
        counters.retries
        or counters.timeouts
        or counters.crashes
        or failures
    )
    if not eventful:
        return
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("runner.retries").inc(counters.retries)
    reg.counter("runner.timeouts").inc(counters.timeouts)
    reg.counter("runner.crashes").inc(counters.crashes)
    reg.counter("runner.failed_points").inc(len(failures))
    collect("sweep:supervisor", {"metrics": reg.to_dict()})


def run_points(
    points: Sequence[SimPoint],
    jobs: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
    check: Optional[CheckConfig] = None,
    supervise: Optional[SuperviseConfig] = None,
) -> list[AllToAllRun]:
    """Execute *points*, in parallel when ``jobs > 1``, through the cache.

    Returns one :class:`AllToAllRun` per point, in input order.  Runs
    under the supervision layer (see :func:`run_sweep`) in fail-fast
    mode: deterministic simulation errors re-raise unchanged; points
    still missing after timeouts and retries raise
    :class:`~repro.runner.supervise.SweepIncompleteError`, which carries
    the partial :class:`~repro.runner.supervise.SweepResult` (completed
    runs + structured failures) so a caller can still salvage the sweep.
    """
    return run_sweep(
        points,
        jobs=jobs,
        obs=obs,
        check=check,
        supervise=supervise,
        graceful=False,
    ).require()
