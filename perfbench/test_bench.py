"""Tests of the benchmark harness.  Run with ``python -m pytest perfbench -q``.

The workloads run on small stand-ins swapped into the workload table, so
the whole suite takes seconds.
"""

from __future__ import annotations

import cProfile
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.runner import SCHEMA_VERSION  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

STAND_INS = {
    "ar_8x4x4": lambda: wl.ar_core("2x2x2"),
    "paper_tiny_cold": lambda: wl.paper_cold(
        ("fig5_vmesh_pred", "tab1_symmetric"), name="paper_stand_in"
    ),
    "faulty_observed_8x4x4": lambda: wl.faulty_observed("2x2x2"),
    "sweep_small_points": lambda: wl.sweep_small(
        ("2x2x2",), seeds=1, name="sweep_stand_in"
    ),
}

FIDELITY = {"paper_gap_pp": 22.0, "digest": "f" * 16}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """Run one workload's stand-in through the harness, one round."""
    monkeypatch.setattr(run, "GOLDEN", tmp_path / "golden.json")

    def go(name, trace=False, seed=3):
        monkeypatch.setitem(wl.WORKLOADS, name, STAND_INS[name]())
        scratch = tmp_path / "scratch"
        scratch.mkdir(exist_ok=True)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(scratch))
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        return run.measure(name, seed, 0.0, trace, [0.5, 0.4], FIDELITY, scratch)

    return go


def pin_golden(path: Path, entries: dict) -> None:
    path.write_text(json.dumps({str(SCHEMA_VERSION): entries}))


def test_workload_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert set(STAND_INS) == set(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(STAND_INS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_end_to_end(bench, name, trace):
    result = bench(name, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        shares = [m[k] for k in layers.SHARES]
        assert sum(shares) == pytest.approx(1.0)
        assert abs(m["trace.residual_frac"]) < 0.25
    else:
        assert all(v > 0 for v in values)


def test_fault_and_check_layers_read_zero_only_without_them(bench):
    off = {k: v["value"] for k, v in bench("ar_8x4x4", True)["metrics"].items()}
    on = {
        k: v["value"]
        for k, v in bench("faulty_observed_8x4x4", True)["metrics"].items()
    }
    for share in ("prof.net.faultsim", "prof.net.instrumented", "prof.check", "prof.obs"):
        assert off[share] == 0.0
        assert on[share] > 0.0
    assert off["runner.points"] == 0 and on["runner.points"] == 1


def test_golden_digest_decides_failures(bench, tmp_path):
    stand_in = STAND_INS["ar_8x4x4"]()
    seed = 3
    truth = run.timed_call(
        stand_in, stand_in.make_inputs(seed % wl.VARIANTS), 1, tmp_path
    ).outcome.digest
    digests = [truth] * wl.VARIANTS
    pin_golden(run.GOLDEN, {stand_in.name: digests, "fidelity": FIDELITY["digest"]})
    good = bench("ar_8x4x4", seed=seed)
    assert good["correct"] and good["failed"] == 0

    pin_golden(run.GOLDEN, {stand_in.name: ["0" * 16] * wl.VARIANTS})
    bad = bench("ar_8x4x4", seed=seed)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0

    pin_golden(run.GOLDEN, {stand_in.name: digests, "fidelity": "0" * 16})
    assert not bench("ar_8x4x4", seed=seed)["correct"]


SIM = ("/x/src/repro/net/simulator.py", 10, "run")
SWEEP = ("/x/src/repro/runner/pool.py", 20, "run_sweep")
HELPER = ("/usr/lib/python3/json/encoder.py", 30, "encode")
LEN = ("~", 0, "<built-in method builtins.len>")


def synthetic_stats() -> dict:
    # run_sweep (0.5 s self) calls run (1.0 s self); len is called from
    # both and from a stdlib helper.
    return {
        SWEEP: (1, 1, 0.5, 3.0, {}),
        SIM: (1, 1, 1.0, 2.1, {SWEEP: (1, 1, 1.0, 2.1)}),
        HELPER: (1, 1, 0.1, 0.2, {SWEEP: (1, 1, 0.1, 0.2)}),
        LEN: (4, 4, 0.7, 0.7, {
            SIM: (2, 2, 0.4, 0.4),
            SWEEP: (1, 1, 0.2, 0.2),
            HELPER: (1, 1, 0.1, 0.1),
        }),
    }


def test_builtins_are_charged_to_their_caller():
    shares = layers.self_shares(synthetic_stats())
    total = 2.3
    assert shares["prof.net.simulator"] == pytest.approx(1.4 / total)
    assert shares["prof.runner"] == pytest.approx(0.7 / total)
    assert shares["prof.other"] == pytest.approx(0.2 / total)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_entry_time_counts_nested_entries_once():
    stats = synthetic_stats()
    assert layers.entry_time(stats, lambda f: f in (SWEEP, SIM)) == pytest.approx(3.0)
    assert layers.entry_time(stats, lambda f: f == SIM) == pytest.approx(2.1)


def test_real_profile_shares_sum_to_one():
    stand_in = wl.ar_core("2x2x2")
    profiler = cProfile.Profile()
    profiler.enable()
    stand_in.call(stand_in.make_inputs(0), 1, "")
    profiler.disable()
    profiler.create_stats()
    shares = layers.self_shares(profiler.stats)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["prof.net.simulator"] > 0.5


def test_compare_verdicts():
    def runs(*values):
        return {"values": list(values), **run.summarize(list(values))}

    base = runs(1.0, 1.01, 0.99)
    assert run.verdict(base, runs(1.02, 1.03, 1.01), "lower", 0.1) == "within-bound"
    assert run.verdict(base, runs(1.3, 1.31, 1.29), "lower", 0.1) == "worse"
    assert run.verdict(base, runs(1.3, 1.31, 1.29), "higher", 0.1) == "better"
    assert run.verdict(base, runs(1.0, 2.0, 0.5, 3.0), "lower", 0.1) == "unresolved"
    assert run.verdict(base, runs(0.5, 0.2, 0.8, 0.1), "lower", 0.1) == "better"


def test_compare_exits_1_on_worse_or_more_failures(tmp_path):
    def doc(wall, failed=0):
        vals = [wall, wall * 1.001, wall * 0.999]
        return {"workloads": {"ar_8x4x4": {
            "attempted": 30, "failed": failed, "correct": failed == 0,
            "metrics": {"wall_s": {"values": vals, **run.summarize(vals)}},
        }}}

    paths = {}
    for label, d in {"a": doc(1.0), "same": doc(1.01), "slow": doc(1.5),
                     "failing": doc(1.0, failed=1)}.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(d))
    assert run.compare(paths["a"], paths["same"]) == 0
    assert run.compare(paths["a"], paths["slow"]) == 1
    assert run.compare(paths["a"], paths["failing"]) == 1


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ar_8x4x4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
