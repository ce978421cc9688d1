"""CLI smoke tests (bgl-alltoall)."""

import json
import os

import pytest

from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    from repro.runner.pool import counters

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    counters.reset()
    yield
    counters.reset()


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "tab3_tps" in out
    assert "[paper]" in out
    assert "[ablation]" in out


def test_run_model_experiment(capsys):
    assert main(["run", "fig5_vmesh_pred", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "[fig5_vmesh_pred]" in out
    assert "VMesh pred us" in out


def test_run_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "'nope'" in err
    assert "'fig1_ar_midplane'" in err and "'all'" in err


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig5_vmesh_pred", "--scale", "huge"])


def test_trace_and_metrics_flags(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert (
        main(
            [
                "run", "fig1_ar_midplane", "--scale", "tiny",
                "--trace", str(trace), "--trace-sample", "8",
                "--metrics", str(metrics),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trace:" in out and "metrics:" in out
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"], "Chrome trace has no events"
    assert {e["ph"] for e in doc["traceEvents"]} <= {"M", "X", "i"}
    mdoc = json.loads(metrics.read_text())
    assert mdoc["points"], "metrics file has no per-point entries"
    first = mdoc["points"][0]["metrics"]
    assert "link_utilization.x" in first
    assert "aggregate" in mdoc


def test_trace_jsonl_extension(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "run", "fig1_ar_midplane", "--scale", "tiny",
                "--trace", str(trace), "--trace-sample", "16",
            ]
        )
        == 0
    )
    lines = trace.read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert "kind" in rec and "t" in rec and "point" in rec


def test_cache_stats_flag(capsys):
    assert (
        main(
            ["run", "fig5_vmesh_pred", "--scale", "tiny", "--cache-stats"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "cache:" in out
    assert "hit(s)" in out and "miss(es)" in out and "store(s)" in out


def test_run_settings_leave_the_environment_as_found(monkeypatch):
    # REPRO_CACHE starts unset (fixture), REPRO_PROGRESS set: after the
    # run, one is unset again and the other reads its old value.
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    argv = ["run", "fig5_vmesh_pred", "--scale", "tiny", "--no-cache"]
    assert main(argv + ["--progress"]) == 0
    assert "REPRO_CACHE" not in os.environ
    assert os.environ["REPRO_PROGRESS"] == "0"


def test_provenance_flag(capsys):
    assert (
        main(
            ["run", "fig5_vmesh_pred", "--scale", "tiny", "--provenance"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert '"config_fingerprint"' in out
    assert '"schema_version"' in out


def _fingerprint(out):
    for block in out.split("\n{"):
        if '"config_fingerprint"' in block:
            doc = json.loads("{" + block.split("\n}")[0] + "\n}")
            return doc["config_fingerprint"]
    raise AssertionError("no provenance record in output")


def test_provenance_fingerprint_stable_across_runs(capsys):
    argv = ["run", "fig1_ar_midplane", "--scale", "tiny", "--provenance"]
    assert main(argv) == 0
    first = _fingerprint(capsys.readouterr().out)
    assert main(argv) == 0
    second = _fingerprint(capsys.readouterr().out)
    assert first == second


def test_cache_stats_warm_run_reports_hits(capsys):
    argv = ["run", "fig1_ar_midplane", "--scale", "tiny", "--cache-stats"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 hit(s)" in cold and "0 corrupt" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 miss(es)" in warm and "0 hit(s)" not in warm
    assert "0 point(s) simulated" in warm


def test_cache_stats_counts_corrupt_entries(capsys):
    from repro.runner import cache_root

    argv = ["run", "fig1_ar_midplane", "--scale", "tiny", "--cache-stats"]
    assert main(argv) == 0
    capsys.readouterr()
    entries = list(cache_root().rglob("*.json"))
    assert entries
    for entry in entries:
        entry.write_text("{truncated")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"{len(entries)} corrupt" in out
    # A corrupt entry is a miss: the point re-simulates and re-stores.
    assert "0 point(s) simulated" not in out
    assert "0 store(s)" not in out


def test_check_flag_bypasses_cache(capsys):
    argv = ["run", "fig1_ar_midplane", "--scale", "tiny", "--cache-stats"]
    assert main(argv) == 0
    capsys.readouterr()
    # Even with a warm cache, --check must re-simulate every point on the
    # oracle-checked network and store nothing.
    assert main(argv + ["--check"]) == 0
    out = capsys.readouterr().out
    assert "0 hit(s)" in out and "0 store(s)" in out
    assert "0 point(s) simulated" not in out


def test_quiet_and_verbose_flags():
    assert main(["-q", "run", "fig5_vmesh_pred", "--scale", "tiny"]) == 0
    assert main(["-v", "run", "fig5_vmesh_pred", "--scale", "tiny"]) == 0


@pytest.mark.parametrize(
    "flags, env, named",
    [
        (["--point-timeout", "nan"], {}, "point_timeout_s"),
        (["--point-timeout", "inf"], {}, "point_timeout_s"),
        (["--retries", "-1"], {}, "max_attempts"),
        (["--trace-sample", "0", "--trace", "t.json"], {}, "trace_sample"),
        ([], {"REPRO_CHAOS": "bogus"}, "REPRO_CHAOS"),
        ([], {"REPRO_POINT_TIMEOUT": "abc"}, "REPRO_POINT_TIMEOUT"),
        ([], {"REPRO_JOBS": "abc"}, "REPRO_JOBS"),
        ([], {"REPRO_SCALE": "huge"}, "'huge'"),
        (["--jobs", "-2"], {}, "jobs must be >= 0"),
        ([], {"REPRO_JOBS": "-2"}, "REPRO_JOBS must be >= 0"),
        (["--trace", "missing/t.json"], {}, "--trace"),
        (["--metrics", "missing/m.json"], {}, "--metrics"),
        (["--profile", "missing/p.json"], {}, "--profile"),
        (["--metrics", "."], {}, "--metrics"),
        (["--report", os.devnull], {}, "--report"),
    ],
    ids=[
        "point-timeout",
        "point-timeout-inf",
        "retries",
        "trace-sample",
        "chaos",
        "env-timeout",
        "env-jobs",
        "env-scale",
        "jobs-negative",
        "env-jobs-negative",
        "trace-dir-missing",
        "metrics-dir-missing",
        "profile-dir-missing",
        "metrics-is-a-dir",
        "report-not-a-dir",
    ],
)
def test_bad_run_setting_is_a_usage_error(
    flags, env, named, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig5_vmesh_pred", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and named in err
    assert not (tmp_path / "t.json").exists()
