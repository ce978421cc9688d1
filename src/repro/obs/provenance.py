"""Run provenance: enough metadata to trust (or reproduce) a result.

Every :class:`~repro.experiments.common.ExperimentResult` gets a
provenance record attached by :func:`repro.experiments.registry.run_experiment`:
the result schema version, the seed and scale, the git revision of the
working tree, a fingerprint over the exact simulation points executed
(their cache keys, which already cover shape/strategy/options/config/
faults), and the wall-time vs simulated-cycles accounting that separates
"the simulator got slower" from "the simulated collective got slower".

The record is plain JSON types; nothing in it feeds back into simulation
or caching (wall time and git state must never perturb a cache key).
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
from functools import lru_cache
from pathlib import Path

#: Version of the provenance record layout.
PROVENANCE_VERSION = 2


@lru_cache(maxsize=1)
def git_describe() -> str:
    """``git describe --always --dirty`` of the repo, or a sentinel.

    Runs in the directory holding this package (not the caller's cwd),
    so the revision describes the code that actually executed.  Cached
    per process; failures degrade to a sentinel rather than raising —
    provenance must never fail a run.  The sentinels distinguish the
    two failure families: ``"unavailable"`` means git itself could not
    answer (the binary is missing, or the 5-second subprocess timeout
    fired on a wedged object store); ``"unknown"`` means git ran but
    had nothing to say (not a checkout, empty output).
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    except subprocess.SubprocessError:
        return "unavailable"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def config_fingerprint(point_keys: list[str]) -> str:
    """SHA-256 over the ordered cache keys of the points a run executed.

    The point keys already hash everything outcome-relevant (schema,
    shape, strategy + options, message size, seed, machine parameters,
    network config, fault plan), so this one digest pins the entire
    sweep configuration.
    """
    h = hashlib.sha256()
    for k in point_keys:
        h.update(k.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def provenance_record(
    *,
    schema_version: int,
    seed: int,
    scale: str | None,
    point_keys: list[str],
    wall_s: float,
    simulated_cycles: float,
    simulated_events: int,
    points_simulated: int,
    points_cached: int,
    retries: int = 0,
    timeouts: int = 0,
    points_failed: int = 0,
) -> dict:
    """Build the provenance dict attached to an experiment result.

    The supervision counters (``retries``/``timeouts``/
    ``points_failed``) record how bumpy the road to this result was: a
    record with nonzero ``points_failed`` describes a *partial* result,
    and nonzero retries mean the numbers were reproduced only after
    rescheduling (still bit-identical — retried points re-execute the
    same deterministic simulation).
    """
    return {
        "provenance_version": PROVENANCE_VERSION,
        "schema_version": schema_version,
        "seed": seed,
        "scale": scale,
        "git": git_describe(),
        "python": platform.python_version(),
        "config_fingerprint": config_fingerprint(point_keys),
        "points": len(point_keys),
        "points_simulated": points_simulated,
        "points_cached": points_cached,
        "points_failed": points_failed,
        "retries": retries,
        "timeouts": timeouts,
        "wall_s": round(wall_s, 4),
        "simulated_cycles": simulated_cycles,
        "simulated_events": simulated_events,
    }
