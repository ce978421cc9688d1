"""The append-only JSONL store behind the sweep journal and run history.

``data/journal_v1.jsonl`` and ``data/history_v1.jsonl`` were written by
the journal and history code as it stood before both moved onto
:mod:`repro.util.jsonl`, from the records below.  They pin the on-disk
formats: old files load unchanged, and the same records still produce
the same bytes (the journal in insertion-order compact JSON, the
history in sorted-key canonical JSON).
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.obs.history import RunHistory, _record
from repro.runner.supervise import SweepJournal

DATA = Path(__file__).parent / "data"
JOURNAL = DATA / "journal_v1.jsonl"
HISTORY = DATA / "history_v1.jsonl"

POINTS = [
    (
        "k-alpha",
        {
            "schema": 2,
            "result": {"time_cycles": 1234.5, "events_processed": 77},
            "label": "AR@2x2x2",
        },
    ),
    ("k-beta", {"zeta": [1, 2.5, None], "alpha": {"y": True, "x": "é"}}),
]
HEARTBEAT = {
    "key": "k-beta",
    "label": "AR@2x2x2/64B/seed1",
    "attempt": 1,
    "elapsed_s": 0.5,
    "pid": 4242,
    "sim_cycles": 100.0,
    "delivered": 3,
    "kind": "heartbeat",
}
RUNS = [
    _record(
        {
            "kind": "experiment",
            "exp_id": "fig1",
            "scale": "tiny",
            "seed": 0,
            "metrics": {"pct": 76.5, "m": 64},
        },
        {"wall_s": 1.25, "git": "abc1234", "timestamp_unix": 1700000000.0},
    ),
    _record(
        {
            "kind": "bench",
            "scale": "ci",
            "schema": 2,
            "benchmarks": {
                "single_point_ci": {"events": 10, "shape": "4x4x4"}
            },
        },
        {
            "metrics": {"single_point_ci.wall_s": 0.5},
            "cpus": 2,
            "timestamp_unix": 1700000001.0,
        },
    ),
]


def _write_journal(path: Path) -> None:
    with SweepJournal(path) as journal:
        journal.record(*POINTS[0])
        journal.note(HEARTBEAT)
        journal.record(*POINTS[1])


def _write_history(path: Path) -> None:
    history = RunHistory(path)
    for rec in RUNS:
        history.append(rec)


def _tear(path: Path) -> None:
    """Leave a half-written final line behind, as a SIGKILL would."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"point","key":"k-torn","payl')


class TestOldFilesLoad:
    def test_journal_fixture_loads_unchanged(self):
        assert SweepJournal.load(JOURNAL) == dict(POINTS)

    def test_history_fixture_loads_unchanged(self):
        assert RunHistory(HISTORY).records() == RUNS


class TestTornTail:
    def test_journal_record_after_torn_tail_is_readable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        shutil.copy(JOURNAL, path)
        _tear(path)
        with SweepJournal(path) as journal:
            assert journal.record("k-gamma", {"n": 3})
        loaded = SweepJournal.load(path)
        assert loaded == {**dict(POINTS), "k-gamma": {"n": 3}}
        # The torn line was terminated, not spliced into.
        assert path.read_bytes().endswith(
            b'"payl\n{"kind":"point","key":"k-gamma","payload":{"n":3}}\n'
        )

    def test_history_record_after_torn_tail_is_readable(self, tmp_path):
        path = tmp_path / "history.jsonl"
        shutil.copy(HISTORY, path)
        _tear(path)
        extra = _record({"kind": "experiment", "exp_id": "tab1"}, {})
        RunHistory(path).append(extra)
        assert RunHistory(path).records() == RUNS + [extra]


class TestBytesMatchFixtures:
    def test_journal_bytes(self, tmp_path):
        path = tmp_path / "sub" / "journal.jsonl"
        _write_journal(path)
        assert path.read_bytes() == JOURNAL.read_bytes()

    def test_history_bytes(self, tmp_path):
        path = tmp_path / "sub" / "history.jsonl"
        _write_history(path)
        assert path.read_bytes() == HISTORY.read_bytes()
