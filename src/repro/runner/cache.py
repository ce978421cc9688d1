"""Content-addressed on-disk cache of simulation results.

Layout: ``<root>/<v{SCHEMA_VERSION}>/<key[:2]>/<key>.json`` where ``key``
is :func:`repro.runner.codec.point_key` — a SHA-256 over everything that
determines the outcome.  The simulator is fully deterministic per
(inputs, seed), so a hit can stand in for a run verbatim; schema bumps
change every key, which orphans (never corrupts) old entries.

Resolution of the root directory:

* ``REPRO_CACHE_DIR`` if set;
* otherwise ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``.

``REPRO_CACHE=0`` (or ``off``/``false``/``no``) disables the cache
entirely — nothing is read or written.  Writes are atomic (temp file +
``os.replace``) so concurrent sweep processes can share one cache; a
corrupt or truncated entry is treated as a miss and rewritten.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.runner.codec import SCHEMA_VERSION

_DISABLE_VALUES = {"0", "off", "false", "no"}

_log = logging.getLogger("repro.runner.cache")

#: Corrupt entries seen since the last :func:`pop_corrupt_count` call.
_corrupt_count = 0


def pop_corrupt_count() -> int:
    """Return and reset the number of corrupt entries seen recently.

    The runner drains this after each cache scan to fold the count into
    its :class:`~repro.runner.pool.RunnerCounters`.
    """
    global _corrupt_count
    n = _corrupt_count
    _corrupt_count = 0
    return n


def cache_enabled() -> bool:
    """Whether the on-disk cache is active (``REPRO_CACHE`` gate)."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in _DISABLE_VALUES


def cache_root() -> Path:
    """Resolve the cache directory (without creating it)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _entry_path(key: str) -> Path:
    return cache_root() / f"v{SCHEMA_VERSION}" / key[:2] / f"{key}.json"


def cache_get(key: str) -> Optional[dict]:
    """Load the payload cached under *key*, or ``None`` on a miss.

    A *corrupt* entry (the file exists but is not valid JSON, e.g. a
    truncated write from a killed process) also counts as a miss — the
    result is recomputed and the entry rewritten — but unlike a plain
    miss it logs a warning naming the offending file, is counted
    separately (so silent cache rot is visible in ``--cache-stats``),
    and the file is *quarantined*: renamed to ``<key>.corrupt`` so the
    same rotten bytes are never re-parsed on every subsequent run and
    the evidence survives for inspection.  A second corrupt file under
    the same key overwrites the first quarantine (the newest evidence
    wins).
    """
    global _corrupt_count
    if not cache_enabled():
        return None
    path = _entry_path(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        _corrupt_count += 1
        quarantine = path.with_name(f"{key}.corrupt")
        try:
            os.replace(path, quarantine)
            where = f"quarantined to {quarantine}"
        except OSError as rename_exc:  # pragma: no cover - exotic fs
            where = f"could not quarantine: {rename_exc}"
        _log.warning(
            "corrupt cache entry %s (%s); treating as a miss, %s",
            path,
            exc,
            where,
        )
        return None
    except OSError:
        return None


def cache_put(key: str, payload: dict) -> bool:
    """Atomically store *payload* under *key* (no-op when disabled).

    Returns True when the entry actually landed on disk, so the runner
    can count stores honestly (a read-only or full cache directory must
    never fail a sweep, but it shouldn't be reported as a store either).
    """
    if not cache_enabled():
        return False
    path = _entry_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            # One-shot dumps runs the C encoder and makes one write;
            # json.dump would encode in Python, one write per token.
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True
