"""Cross-run history store + regression verdicts (DESIGN.md section 15).

The store's load-bearing promises: a schema-pinned header and torn-tail
healing (an interrupted run never corrupts the file for the next one),
payload digests that are identical for identical results regardless of
job count (determinism proof), and a diff CLI whose verdict CI can gate
on — a 2x slowdown must classify as ``regression``, identical runs as
``neutral``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import ExperimentResult
from repro.obs.history import (
    DEFAULT_TOLERANCE,
    HISTORY_VERSION,
    RunHistory,
    bench_record,
    diff_records,
    experiment_record,
    format_diff,
    main,
    metric_direction,
    payload_digest,
)
from repro.runner import counters


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()


def _result(wall_s=1.0, measured=10.5) -> ExperimentResult:
    res = ExperimentResult(
        exp_id="fig1_ar_midplane",
        title="AR direct on a midplane",
        columns=["m bytes", "measured us"],
    )
    res.rows = [
        {"m bytes": 64, "measured us": measured},
        {"m bytes": 256, "measured us": measured * 4},
    ]
    res.provenance = {
        "schema_version": 2,
        "seed": 1,
        "scale": "tiny",
        "config_fingerprint": "cafe" * 8,
        "points": ["k1", "k2"],
        "wall_s": wall_s,
        "points_simulated": 2,
        "points_cached": 0,
        "git": "abc1234",
    }
    return res


BENCH_REPORT = {
    "schema": 2,
    "scale": "ci",
    "python": "3.11.0",
    "machine": "x86_64",
    "cpus": 4,
    "provenance": {"git": "abc1234"},
    "benchmarks": [
        {
            "name": "single_point_ci",
            "shape": "4x4x4",
            "msg_bytes": 64,
            "seed": 1,
            "events": 48960,
            "time_cycles": 53720.67,
            "wall_s": 0.15,
            "events_per_sec": 326400.0,
        }
    ],
}


class TestRecords:
    def test_experiment_payload_is_deterministic(self):
        a = experiment_record(_result())
        b = experiment_record(_result())
        assert a["payload"] == b["payload"]
        assert a["payload_digest"] == b["payload_digest"]
        assert a["id"] == a["payload_digest"][:12]

    def test_meta_is_excluded_from_the_digest(self):
        fast = experiment_record(_result(wall_s=0.1))
        slow = experiment_record(_result(wall_s=99.0))
        assert fast["payload_digest"] == slow["payload_digest"]
        assert fast["meta"]["wall_s"] != slow["meta"]["wall_s"]

    def test_changed_rows_change_the_digest(self):
        a = experiment_record(_result(measured=10.5))
        b = experiment_record(_result(measured=11.5))
        assert a["payload_digest"] != b["payload_digest"]

    def test_column_means_cover_numeric_columns(self):
        rec = experiment_record(_result(measured=10.0))
        assert rec["payload"]["metrics"] == {
            "m bytes": 160.0,
            "measured us": 25.0,
        }

    def test_bench_record_flattens_metrics_into_meta(self):
        rec = bench_record(BENCH_REPORT)
        assert rec["payload"]["kind"] == "bench"
        assert rec["payload"]["benchmarks"]["single_point_ci"]["events"] == 48960
        assert rec["meta"]["metrics"]["single_point_ci.wall_s"] == 0.15
        assert rec["meta"]["git"] == "abc1234"
        # Perf numbers must not leak into the deterministic payload.
        assert "wall_s" not in rec["payload"]["benchmarks"]["single_point_ci"]

    def test_digest_is_canonical_json(self):
        assert payload_digest({"b": 1, "a": 2}) == payload_digest(
            {"a": 2, "b": 1}
        )


class TestStore:
    def test_fresh_store_writes_header_then_records(self, tmp_path):
        store = RunHistory(tmp_path / "runs")
        store.append_experiment(_result())
        lines = store.path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "kind": "header",
            "history_version": HISTORY_VERSION,
        }
        assert len(store.records()) == 1

    def test_directory_path_resolves_to_history_jsonl(self, tmp_path):
        assert RunHistory(tmp_path).path == tmp_path / "history.jsonl"
        direct = tmp_path / "custom.jsonl"
        assert RunHistory(direct).path == direct

    def test_torn_tail_is_healed_on_append(self, tmp_path):
        store = RunHistory(tmp_path / "h.jsonl")
        store.append_experiment(_result())
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"run","payload":{"tru')  # SIGKILL mid-write
        store.append_experiment(_result(measured=11.0))
        recs = store.records()
        assert len(recs) == 2  # torn line skipped, both real records load
        assert recs[0]["payload_digest"] != recs[1]["payload_digest"]

    def test_future_history_version_refuses_to_load(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "history_version": 999}) + "\n"
        )
        with pytest.raises(ValueError, match="line-format version 999"):
            RunHistory(path).records()

    def test_resolve_refs(self, tmp_path):
        store = RunHistory(tmp_path / "h.jsonl")
        first = store.append_experiment(_result(measured=1.0))
        last = store.append_experiment(_result(measured=2.0))
        assert store.resolve("last")["id"] == last["id"]
        assert store.resolve("prev")["id"] == first["id"]
        assert store.resolve("0")["id"] == first["id"]
        assert store.resolve("-1")["id"] == last["id"]
        assert store.resolve(first["id"][:8])["id"] == first["id"]
        with pytest.raises(LookupError):
            store.resolve("feedface")

    def test_trend_filters_by_exp_id(self, tmp_path):
        store = RunHistory(tmp_path / "h.jsonl")
        store.append_experiment(_result())
        store.append_bench(BENCH_REPORT)
        trend = store.trend("fig1_ar_midplane")
        assert len(trend) == 1
        assert store.trend("nope") == []


class TestJobCountIdentity:
    def test_jobs1_and_jobs2_append_identical_digests(self, tmp_path):
        """The acceptance criterion: a pooled sweep records the same
        payload digest as a sequential one."""
        from repro.experiments.registry import run_experiment

        hist = str(tmp_path / "hist")
        run_experiment("fig1_ar_midplane", scale="tiny", jobs=1, history=hist)
        run_experiment("fig1_ar_midplane", scale="tiny", jobs=2, history=hist)
        recs = RunHistory(hist).records()
        assert len(recs) == 2
        assert recs[0]["payload_digest"] == recs[1]["payload_digest"]


class TestDiff:
    def test_identical_runs_are_neutral(self):
        a = experiment_record(_result())
        b = experiment_record(_result())
        diff = diff_records(a, b)
        assert diff["verdict"] == "neutral"
        assert all(m["class"] == "neutral" for m in diff["metrics"])
        assert not diff["outcome_changed"]

    def test_2x_slowdown_is_a_regression(self):
        a = experiment_record(_result(wall_s=1.0))
        b = experiment_record(_result(wall_s=2.0))
        diff = diff_records(a, b)
        assert diff["verdict"] == "regression"
        (wall,) = [m for m in diff["metrics"] if m["name"] == "wall_s"]
        assert wall["class"] == "regression"
        assert wall["ratio"] == pytest.approx(2.0)

    def test_2x_speedup_is_an_improvement(self):
        a = experiment_record(_result(wall_s=2.0))
        b = experiment_record(_result(wall_s=1.0))
        assert diff_records(a, b)["verdict"] == "improvement"

    def test_directionless_metric_is_drift_not_verdict(self):
        # "measured us" contains no direction keyword... but "us" does
        # not match; "m bytes" neither.  Construct an explicitly unknown
        # metric and check it cannot drive the verdict.
        a = experiment_record(_result())
        b = experiment_record(_result())
        a["payload"]["metrics"]["mystery_column"] = 1.0
        b["payload"]["metrics"]["mystery_column"] = 100.0
        diff = diff_records(a, b)
        (m,) = [x for x in diff["metrics"] if x["name"] == "mystery_column"]
        assert m["class"] == "drift"
        assert diff["verdict"] == "neutral"

    def test_outcome_drift_flagged_for_same_config(self):
        a = experiment_record(_result(measured=10.0))
        b = experiment_record(_result(measured=20.0))
        diff = diff_records(a, b, tolerance=10.0)  # silence ratio classes
        assert diff["outcome_changed"]
        assert any("outcome drift" in w for w in diff["warnings"])

    def test_mismatched_context_warns(self):
        a = experiment_record(_result())
        b = experiment_record(_result())
        b["payload"]["scale"] = "paper"
        b["payload"]["seed"] = 7
        warnings = diff_records(a, b)["warnings"]
        assert any("scale differs" in w for w in warnings)
        assert any("seed differs" in w for w in warnings)

    def test_tolerance_bounds(self):
        a = experiment_record(_result(wall_s=1.0))
        b = experiment_record(_result(wall_s=1.0 + DEFAULT_TOLERANCE))
        assert diff_records(a, b)["verdict"] == "neutral"
        with pytest.raises(ValueError):
            diff_records(a, b, tolerance=-0.1)

    def test_format_diff_ends_with_verdict(self):
        a = experiment_record(_result())
        text = format_diff(diff_records(a, a))
        assert text.splitlines()[-1] == "verdict: neutral"


class TestDirections:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("wall_s", "lower"),
            ("single_point_ci.events_per_sec", "higher"),
            ("analytics_off_overhead_ci.overhead_frac", "lower"),
            ("sweep_scaling_ci.parallel_speedup", "higher"),
            ("time_cycles", "lower"),
            ("m bytes", None),
        ],
    )
    def test_direction_table(self, name, expected):
        assert metric_direction(name) == expected


class TestCli:
    def _store(self, tmp_path, *walls):
        store = RunHistory(tmp_path / "h.jsonl")
        for w in walls:
            store.append_experiment(_result(wall_s=w))
        return str(store.path)

    def test_list_and_show(self, tmp_path, capsys):
        path = self._store(tmp_path, 1.0, 2.0)
        assert main(["list", path]) == 0
        out = capsys.readouterr().out
        assert "fig1_ar_midplane" in out and out.count("\n") == 2
        assert main(["show", path, "last"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["meta"]["wall_s"] == 2.0

    def test_diff_regression_exits_nonzero(self, tmp_path, capsys):
        path = self._store(tmp_path, 1.0, 2.5)
        assert main(["diff", path]) == 1
        assert "verdict: regression" in capsys.readouterr().out

    def test_diff_neutral_exits_zero(self, tmp_path, capsys):
        path = self._store(tmp_path, 1.0, 1.0)
        assert main(["diff", path]) == 0
        assert "verdict: neutral" in capsys.readouterr().out

    def test_diff_single_record_has_nothing_to_compare(self, tmp_path, capsys):
        path = self._store(tmp_path, 1.0)
        assert main(["diff", path]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_append_bench_then_diff(self, tmp_path, capsys):
        report_path = tmp_path / "BENCH.json"
        report_path.write_text(json.dumps(BENCH_REPORT))
        hist = str(tmp_path / "bench-hist.jsonl")
        assert main(["append-bench", hist, str(report_path)]) == 0
        assert main(["append-bench", hist, str(report_path)]) == 0
        assert main(["diff", hist]) == 0
        out = capsys.readouterr().out
        assert "single_point_ci.events_per_sec" in out
        assert "verdict: neutral" in out

    def test_append_bench_accepts_skipped_sweep_record(self, tmp_path, capsys):
        # bench_simcore.py records sweep scaling as skipped, with no
        # speedup ratio, on machines with fewer CPUs than workers.
        skipped = {
            "name": "sweep_scaling_ci",
            "shape": "4x4x4",
            "points": 4,
            "workers": 4,
            "cpus": 2,
            "status": "skipped",
            "reason": "2 cpu(s) cannot express 4 workers",
        }
        report = dict(
            BENCH_REPORT, benchmarks=BENCH_REPORT["benchmarks"] + [skipped]
        )
        report_path = tmp_path / "BENCH.json"
        report_path.write_text(json.dumps(report))
        hist = str(tmp_path / "bench-hist.jsonl")
        assert main(["append-bench", hist, str(report_path)]) == 0
        assert main(["append-bench", hist, str(report_path)]) == 0
        rec = RunHistory(hist).records()[-1]
        assert rec["payload"]["benchmarks"]["sweep_scaling_ci"] == {
            "shape": "4x4x4"
        }
        assert not any(
            k.startswith("sweep_scaling_ci.") for k in rec["meta"]["metrics"]
        )
        assert main(["diff", hist]) == 0
        assert "verdict: neutral" in capsys.readouterr().out
