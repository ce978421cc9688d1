"""The append-only JSONL store behind the sweep journal and run history.

``data/journal_notes_v1.jsonl`` was written by the journal code as it
stood before the journal stopped holding result payloads, and
``data/history_v1.jsonl`` by the history code as it stood before it
moved onto :mod:`repro.util.jsonl`, both from the records below.  They
pin the on-disk formats: the same records still produce the same bytes
(the journal in insertion-order compact JSON, the history in sorted-key
canonical JSON), and the history file loads unchanged.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.obs.history import RunHistory, _record
from repro.runner.supervise import SweepJournal
from repro.util.jsonl import read_records

DATA = Path(__file__).parent / "data"
JOURNAL = DATA / "journal_notes_v1.jsonl"
HISTORY = DATA / "history_v1.jsonl"

NOTES = [
    {
        "key": "k-alpha",
        "label": "AR@2x2x2/64B/seed1",
        "attempt": 1,
        "elapsed_s": 0.0,
        "pid": 4242,
        "sim_cycles": None,
        "delivered": None,
        "kind": "heartbeat",
    },
    {
        "key": "k-beta",
        "label": "TPS@4x2x2/256B/seed0",
        "attempt": 2,
        "elapsed_s": 5.003,
        "pid": 4243,
        "sim_cycles": 1234.5,
        "delivered": 77,
        "kind": "heartbeat",
    },
]
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
        for note in NOTES:
            journal.note(note)


def _notes(path: Path) -> list:
    records = read_records(path, "journal", lambda header: None, ("heartbeat",))
    return [rec for _, rec in records]


def _write_history(path: Path) -> None:
    history = RunHistory(path)
    for rec in RUNS:
        history.append(rec)


def _tear(path: Path) -> None:
    """Leave a half-written final line behind, as a SIGKILL would."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"point","key":"k-torn","payl')


class TestOldFilesLoad:
    def test_history_fixture_loads_unchanged(self):
        assert RunHistory(HISTORY).records() == RUNS


class TestTornTail:
    def test_journal_record_after_torn_tail_is_readable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        shutil.copy(JOURNAL, path)
        _tear(path)
        extra = {"key": "k-gamma", "kind": "heartbeat"}
        with SweepJournal(path) as journal:
            assert journal.note(extra)
        assert _notes(path) == NOTES + [extra]
        # The torn line was terminated, not spliced into.
        assert path.read_bytes().endswith(
            b'"payl\n{"key":"k-gamma","kind":"heartbeat"}\n'
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
