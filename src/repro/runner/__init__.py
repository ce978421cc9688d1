"""Parallel sweep runner with a persistent result cache.

Every experiment in the repo is a sweep of independent simulation points;
this package runs them — optionally fanned out over a process pool
(``--jobs N`` / ``REPRO_JOBS``) and always through a content-addressed
on-disk result cache (``REPRO_CACHE_DIR``, disable with ``REPRO_CACHE=0``)
— while guaranteeing results identical to a sequential uncached run.
See DESIGN.md section 9.
"""

from repro.runner.cache import cache_enabled, cache_root
from repro.runner.codec import (
    SCHEMA_VERSION,
    canonical_extras,
    decode_run,
    encode_run,
    point_fingerprint,
    point_key,
)
from repro.runner.point import SimPoint
from repro.runner.pool import (
    RunnerCounters,
    counters,
    point_label,
    resolve_jobs,
    run_point,
    run_points,
    run_sweep,
)
from repro.runner.supervise import (
    ChaosPlan,
    PointFailure,
    PointTimeoutError,
    SuperviseConfig,
    SweepIncompleteError,
    SweepJournal,
    SweepResult,
    active_supervision,
    derive_timeout,
    resolve_supervision,
    supervising,
    watchdog,
)

__all__ = [
    "SCHEMA_VERSION",
    "ChaosPlan",
    "PointFailure",
    "PointTimeoutError",
    "RunnerCounters",
    "SimPoint",
    "SuperviseConfig",
    "SweepIncompleteError",
    "SweepJournal",
    "SweepResult",
    "active_supervision",
    "cache_enabled",
    "cache_root",
    "canonical_extras",
    "counters",
    "decode_run",
    "derive_timeout",
    "encode_run",
    "point_fingerprint",
    "point_key",
    "point_label",
    "resolve_jobs",
    "resolve_supervision",
    "run_point",
    "run_points",
    "run_sweep",
    "supervising",
    "watchdog",
]
