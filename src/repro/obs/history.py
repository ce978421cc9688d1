"""Cross-run history store with regression verdicts.

Every sweep this repo runs is forgotten the moment it ends: the cache
remembers *results* (keyed by configuration), but nothing remembers
*runs* — how long they took, what they measured, and whether the numbers
moved between two checkouts.  :class:`RunHistory` closes that gap with
an append-only JSONL store (schema-pinned header, per-line flush,
torn-tail healing — :mod:`repro.util.jsonl`, shared with
:class:`~repro.runner.supervise.SweepJournal`) that records one line per
:class:`~repro.experiments.common.ExperimentResult` or bench summary.

Each record is split in two, deliberately:

* ``payload`` — the *deterministic* identity and outcome of the run:
  experiment id, scale, seed, result-schema version, the provenance
  config fingerprint, the table columns, a digest over the rendered
  rows, and per-column means of every numeric column.  Its canonical
  JSON is hashed into ``payload_digest`` — a ``jobs=4`` sweep produces
  byte-identical payloads (and therefore digests) to a ``jobs=1`` sweep,
  which is how the store proves the run it recorded is the run the
  tables show.
* ``meta`` — everything *non-deterministic*: wall time, git revision,
  machine, timestamp, cache/simulated split.  Excluded from the digest
  so environmental noise never breaks payload identity.

``python -m repro.obs.history`` is the companion CLI::

    python -m repro.obs.history list  runs/history.jsonl
    python -m repro.obs.history show  runs/history.jsonl -1
    python -m repro.obs.history diff  runs/history.jsonl -2 -1
    python -m repro.obs.history append-bench BENCH_history.jsonl BENCH_simcore.json

``diff`` compares two records metric by metric with a tolerance band
(default ±10 %) and emits a single verdict — ``regression``,
``improvement`` or ``neutral`` — exiting non-zero on a regression so CI
can gate on it.  Wall-clock metrics regress upward, throughput metrics
regress downward; a changed ``payload_digest`` between records of the
same configuration is additionally flagged as outcome drift (the
simulation itself changed, not just its speed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import platform
import sys
import time
from pathlib import Path
from typing import Any, Optional

from repro.util.jsonl import open_append, read_records, write_line

_log = logging.getLogger("repro.obs.history")

#: History line-format version (independent of the result payload schema).
HISTORY_VERSION = 1

#: Relative change within which two metric values are "the same run".
DEFAULT_TOLERANCE = 0.10

#: Metric-name direction table: what counts as a *regression*.
#: ``lower`` = lower is better (regression when the value grows),
#: ``higher`` = higher is better (regression when it shrinks).  Names not
#: matched here are reported as informational drift, never a verdict —
#: a column whose "good" direction is unknown must not fail CI.
_LOWER_IS_BETTER = (
    "wall_s", "cpu_s", "time_cycles", "time_us", "time_ms", "latency",
    "cycles", "stall", "overhead",
)
_HIGHER_IS_BETTER = (
    "events_per_sec", "percent_of_peak", "pct", "peak", "speedup",
    "mb_per_s", "bandwidth", "throughput",
)


def metric_direction(name: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` / ``None`` (no verdict) for *name*."""
    low = name.lower()
    for pat in _HIGHER_IS_BETTER:
        if pat in low:
            return "higher"
    for pat in _LOWER_IS_BETTER:
        if pat in low:
            return "lower"
    return None


def _canonical(value: Any) -> str:
    """Canonical JSON text (sorted keys, no whitespace) for digesting."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON of *payload*."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# record construction
# --------------------------------------------------------------------- #


def _numeric_column_means(columns: list, rows: list[dict]) -> dict:
    """Per-column mean of every all-numeric, all-finite column.

    Deterministic by construction (the tables themselves are
    bit-identical across job counts), and the raw material for
    "did the simulated numbers move" comparisons between runs.
    """
    means: dict[str, float] = {}
    for col in columns:
        vals = [r.get(col) for r in rows if col in r]
        if not vals:
            continue
        nums = []
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                break
            if not math.isfinite(v):
                break
            nums.append(float(v))
        else:
            means[col] = sum(nums) / len(nums)
    return means


def experiment_record(result: Any) -> dict:
    """``(payload, meta)`` assembled into one record for *result*.

    *result* is duck-typed (:class:`ExperimentResult`): ``exp_id``,
    ``columns``, ``rows``, ``failures`` and optionally ``provenance``.
    """
    prov = getattr(result, "provenance", None) or {}
    payload = {
        "kind": "experiment",
        "exp_id": result.exp_id,
        "scale": prov.get("scale"),
        "seed": prov.get("seed"),
        "schema": prov.get("schema_version"),
        "config_fingerprint": prov.get("config_fingerprint"),
        "points": prov.get("points"),
        "columns": list(result.columns),
        "rows_digest": hashlib.sha256(
            _canonical([dict(r) for r in result.rows]).encode("utf-8")
        ).hexdigest(),
        "metrics": _numeric_column_means(result.columns, result.rows),
    }
    meta = {
        "git": prov.get("git"),
        "python": prov.get("python"),
        "wall_s": prov.get("wall_s"),
        "points_simulated": prov.get("points_simulated"),
        "points_cached": prov.get("points_cached"),
        "points_failed": len(getattr(result, "failures", []) or []),
        "timestamp_unix": time.time(),
    }
    return _record(payload, meta)


#: Bench report keys copied into the deterministic payload per benchmark
#: (identity of the measured work) vs. the perf meta (the measurement).
_BENCH_PAYLOAD_KEYS = ("shape", "msg_bytes", "seed", "events", "time_cycles")
_BENCH_METRIC_KEYS = (
    "wall_s", "events_per_sec", "cpu_s_default", "cpu_s_core",
    "overhead_frac", "wall_s_jobs1", "wall_s_jobs4", "parallel_speedup",
)


def bench_record(report: dict) -> dict:
    """Record for one ``BENCH_simcore.json``-style report."""
    payload = {
        "kind": "bench",
        "scale": report.get("scale"),
        "schema": report.get("schema"),
        "benchmarks": {
            b["name"]: {
                k: b[k] for k in _BENCH_PAYLOAD_KEYS if k in b
            }
            for b in report.get("benchmarks", [])
        },
    }
    metrics: dict[str, float] = {}
    for b in report.get("benchmarks", []):
        for k in _BENCH_METRIC_KEYS:
            if k in b and isinstance(b[k], (int, float)):
                metrics[f"{b['name']}.{k}"] = float(b[k])
    meta = {
        "git": report.get("provenance", {}).get("git"),
        "python": report.get("python", platform.python_version()),
        "machine": report.get("machine"),
        "cpus": report.get("cpus"),
        "metrics": metrics,
        "timestamp_unix": time.time(),
    }
    return _record(payload, meta)


def _record(payload: dict, meta: dict) -> dict:
    digest = payload_digest(payload)
    return {
        "kind": "run",
        "id": digest[:12],
        "payload": payload,
        "payload_digest": digest,
        "meta": meta,
    }


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #


class RunHistory:
    """Append-only JSONL history of runs (see module docstring).

    *path* may be the ``.jsonl`` file itself or a directory (the store
    then lives at ``<dir>/history.jsonl`` — what ``--history DIR``
    passes).  Loading skips torn/malformed lines with a warning and
    refuses only on a ``history_version`` it does not speak; records
    from older *payload* schemas load fine (each record pins its own
    schema, and :func:`diff_records` warns when they differ).
    """

    FILENAME = "history.jsonl"

    def __init__(self, path) -> None:
        p = Path(path)
        if p.suffix != ".jsonl":
            p = p / self.FILENAME
        self.path = p

    # -- writing ---------------------------------------------------- #

    def append(self, record: dict) -> dict:
        """Append one record (flushed immediately); returns it."""
        header = {"kind": "header", "history_version": HISTORY_VERSION}
        with open_append(self.path, _canonical(header)) as fh:
            write_line(fh, _canonical(record))
        return record

    def append_experiment(self, result: Any) -> dict:
        """Record one finished :class:`ExperimentResult`."""
        return self.append(experiment_record(result))

    def append_bench(self, report: dict) -> dict:
        """Record one bench report (``BENCH_simcore.json`` contents)."""
        return self.append(bench_record(report))

    # -- reading ---------------------------------------------------- #

    def records(self) -> list[dict]:
        """Every well-formed run record, in append order."""
        if not self.path.exists():
            return []

        def check_header(rec: dict) -> None:
            version = rec.get("history_version")
            if version != HISTORY_VERSION:
                raise ValueError(
                    f"history {self.path} is line-format version "
                    f"{version}, this build speaks {HISTORY_VERSION}"
                )

        out: list[dict] = []
        for lineno, rec in read_records(
            self.path, "history", check_header, ("run",)
        ):
            if isinstance(rec.get("payload"), dict):
                out.append(rec)
            else:
                _log.warning(
                    "history %s: skipping bad run line %d", self.path, lineno
                )
        return out

    def resolve(self, ref: str, records: Optional[list[dict]] = None) -> dict:
        """One record by *ref*: an index (``-1`` = latest), ``last`` /
        ``prev``, or an ``id`` / digest prefix."""
        recs = self.records() if records is None else records
        if not recs:
            raise LookupError(f"history {self.path} has no run records")
        ref = str(ref).strip()
        if ref in ("last", "latest"):
            return recs[-1]
        if ref in ("prev", "previous"):
            if len(recs) < 2:
                raise LookupError(
                    f"history {self.path} has no previous record"
                )
            return recs[-2]
        try:
            return recs[int(ref)]
        except ValueError:
            pass
        except IndexError:
            raise LookupError(
                f"history {self.path}: index {ref} out of range "
                f"(have {len(recs)} record(s))"
            ) from None
        matches = [
            r
            for r in recs
            if r.get("id", "").startswith(ref)
            or r.get("payload_digest", "").startswith(ref)
        ]
        if not matches:
            raise LookupError(f"history {self.path}: no record matches {ref!r}")
        # A digest prefix may legitimately recur (identical reruns);
        # the latest is what a human asking by id means.
        return matches[-1]

    def trend(self, exp_id: str, limit: int = 30) -> list[dict]:
        """The last *limit* records for one experiment id (sparkline
        feed for :mod:`repro.obs.report`)."""
        recs = [
            r
            for r in self.records()
            if r["payload"].get("exp_id") == exp_id
        ]
        return recs[-limit:]


# --------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------- #


def _flat_metrics(rec: dict) -> dict[str, float]:
    """Comparable numeric metrics of one record: payload column means,
    bench perf metrics and wall time, flattened to one namespace."""
    out: dict[str, float] = {}
    for name, v in (rec["payload"].get("metrics") or {}).items():
        if isinstance(v, (int, float)) and math.isfinite(v):
            out[name] = float(v)
    meta = rec.get("meta") or {}
    for name, v in (meta.get("metrics") or {}).items():
        if isinstance(v, (int, float)) and math.isfinite(v):
            out[name] = float(v)
    wall = meta.get("wall_s")
    if isinstance(wall, (int, float)) and math.isfinite(wall):
        out["wall_s"] = float(wall)
    return out


def diff_records(
    old: dict, new: dict, tolerance: float = DEFAULT_TOLERANCE
) -> dict:
    """Compare two history records; returns the structured diff.

    Per shared metric: ``ratio = new / old`` and a classification —
    ``neutral`` inside ``[1 - tolerance, 1 + tolerance]``, else
    ``regression`` / ``improvement`` by the metric's direction (or
    ``drift`` for direction-less metrics, which never drives the
    verdict).  The overall ``verdict`` is ``regression`` if any metric
    regressed, else ``improvement`` if any improved, else ``neutral``.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    a, b = _flat_metrics(old), _flat_metrics(new)
    metrics = []
    for name in sorted(set(a) & set(b)):
        va, vb = a[name], b[name]
        ratio = (vb / va) if va else (1.0 if vb == va else math.inf)
        direction = metric_direction(name)
        if 1.0 - tolerance <= ratio <= 1.0 + tolerance:
            cls = "neutral"
        elif direction is None:
            cls = "drift"
        elif (ratio > 1.0) == (direction == "lower"):
            cls = "regression"
        else:
            cls = "improvement"
        metrics.append(
            {
                "name": name,
                "old": va,
                "new": vb,
                "ratio": ratio if math.isfinite(ratio) else None,
                "direction": direction,
                "class": cls,
            }
        )
    classes = {m["class"] for m in metrics}
    if "regression" in classes:
        verdict = "regression"
    elif "improvement" in classes:
        verdict = "improvement"
    else:
        verdict = "neutral"
    warnings = []
    pa, pb = old["payload"], new["payload"]
    if pa.get("kind") != pb.get("kind"):
        warnings.append(
            f"comparing a {pa.get('kind')} record to a {pb.get('kind')} one"
        )
    for key in ("exp_id", "scale", "seed"):
        if pa.get(key) != pb.get(key) and (key in pa or key in pb):
            warnings.append(
                f"{key} differs: {pa.get(key)!r} vs {pb.get(key)!r}"
            )
    if pa.get("schema") != pb.get("schema"):
        warnings.append(
            f"result schema differs: {pa.get('schema')} vs {pb.get('schema')}"
        )
    outcome_changed = (
        old.get("payload_digest") != new.get("payload_digest")
        and pa.get("config_fingerprint") == pb.get("config_fingerprint")
        and pa.get("config_fingerprint") is not None
    )
    if outcome_changed:
        warnings.append(
            "outcome drift: same configuration, different payload digest "
            "(the simulated numbers changed, not just the speed)"
        )
    return {
        "verdict": verdict,
        "tolerance": tolerance,
        "old_id": old.get("id"),
        "new_id": new.get("id"),
        "outcome_changed": outcome_changed,
        "metrics": metrics,
        "warnings": warnings,
    }


def format_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_records` result."""
    lines = [
        f"history diff {diff['old_id']} -> {diff['new_id']} "
        f"(tolerance ±{diff['tolerance'] * 100:.0f}%)"
    ]
    for m in diff["metrics"]:
        ratio = m["ratio"]
        lines.append(
            f"  {m['name']}: {m['old']:g} -> {m['new']:g} "
            f"(x{ratio:.3f}) [{m['class']}]"
            if ratio is not None
            else f"  {m['name']}: {m['old']:g} -> {m['new']:g} [{m['class']}]"
        )
    for w in diff["warnings"]:
        lines.append(f"  warning: {w}")
    lines.append(f"verdict: {diff['verdict']}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Inspect and diff the cross-run history store.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_list = sub.add_parser("list", help="list recorded runs")
    p_list.add_argument("path", help="history file or directory")
    p_show = sub.add_parser("show", help="print one record as JSON")
    p_show.add_argument("path")
    p_show.add_argument("ref", help="index, id prefix, 'last' or 'prev'")
    p_diff = sub.add_parser(
        "diff",
        help="compare two runs; exit 1 on a regression verdict",
    )
    p_diff.add_argument("path")
    p_diff.add_argument("ref_a", nargs="?", default="prev")
    p_diff.add_argument("ref_b", nargs="?", default="last")
    p_diff.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative change treated as neutral (default 0.10)",
    )
    p_bench = sub.add_parser(
        "append-bench",
        help="record a BENCH_simcore.json report into the history",
    )
    p_bench.add_argument("path")
    p_bench.add_argument("report", help="bench report JSON file")
    args = ap.parse_args(argv)

    history = RunHistory(args.path)
    if args.cmd == "list":
        recs = history.records()
        for i, rec in enumerate(recs):
            p, meta = rec["payload"], rec.get("meta", {})
            what = p.get("exp_id") or p.get("kind")
            wall = meta.get("wall_s")
            print(
                f"{i:3d}  {rec['id']}  {what:<24s} "
                f"scale={p.get('scale')} seed={p.get('seed')} "
                f"wall={wall if wall is not None else '-'}s "
                f"git={meta.get('git')}"
            )
        if not recs:
            print(f"(no records in {history.path})")
        return 0
    if args.cmd == "show":
        print(json.dumps(history.resolve(args.ref), indent=2, sort_keys=True))
        return 0
    if args.cmd == "append-bench":
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        rec = history.append_bench(report)
        print(f"recorded {rec['id']} into {history.path}")
        return 0
    # diff
    recs = history.records()
    if len(recs) < 2 and args.ref_a in ("prev", "previous"):
        print(
            f"nothing to compare: {history.path} has "
            f"{len(recs)} record(s)"
        )
        return 0
    old = history.resolve(args.ref_a, recs)
    new = history.resolve(args.ref_b, recs)
    diff = diff_records(old, new, tolerance=args.tolerance)
    print(format_diff(diff))
    return 1 if diff["verdict"] == "regression" else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
