"""The append-only JSONL store behind the run history.

``data/history_v1.jsonl`` was written by the history code as it stood
before it moved onto :mod:`repro.util.jsonl`, from the records below.
It pins the on-disk format: the same records still produce the same
bytes (sorted-key canonical JSON), and the file loads unchanged.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.obs.history import RunHistory, _record

DATA = Path(__file__).parent / "data"
HISTORY = DATA / "history_v1.jsonl"

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
    def test_history_record_after_torn_tail_is_readable(self, tmp_path):
        path = tmp_path / "history.jsonl"
        shutil.copy(HISTORY, path)
        _tear(path)
        extra = _record({"kind": "experiment", "exp_id": "tab1"}, {})
        RunHistory(path).append(extra)
        assert RunHistory(path).records() == RUNS + [extra]


class TestBytesMatchFixtures:
    def test_history_bytes(self, tmp_path):
        path = tmp_path / "sub" / "history.jsonl"
        _write_history(path)
        assert path.read_bytes() == HISTORY.read_bytes()
