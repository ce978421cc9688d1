"""Instrumented network: bit-identity with plain runs, golden trace,
and trace determinism across job counts."""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import simulate_alltoall
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan
from repro.net.faultsim import build_network
from repro.net.simulator import TorusNetwork
from repro.obs import ObsConfig, observe
from repro.obs.tracer import write_jsonl
from repro.runner import SimPoint, counters, run_points
from repro.strategies import ARDirect, TwoPhaseSchedule

GOLDEN = Path(__file__).parent / "data" / "golden_trace_4x4x2.jsonl"

SHAPE = TorusShape.parse("4x4x2")
OBS_ALL = ObsConfig(trace=True, metrics=True)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()


def _golden_jsonl(run) -> str:
    buf = io.StringIO()
    write_jsonl(run.result.extras["obs"]["trace"], buf)
    return buf.getvalue()


class TestBuildNetwork:
    def test_default_is_uninstrumented(self):
        assert type(build_network(SHAPE)) is TorusNetwork

    def test_disabled_config_is_uninstrumented(self):
        assert type(build_network(SHAPE, obs=ObsConfig())) is TorusNetwork


class TestBitIdentity:
    @pytest.mark.parametrize("strategy_cls", [ARDirect, TwoPhaseSchedule])
    def test_traced_run_matches_untraced(self, strategy_cls):
        plain = simulate_alltoall(strategy_cls(), SHAPE, 256, seed=1)
        traced = simulate_alltoall(
            strategy_cls(), SHAPE, 256, seed=1, obs=OBS_ALL
        )
        assert traced.time_cycles == plain.time_cycles
        assert (
            traced.result.events_processed == plain.result.events_processed
        )
        assert (
            traced.result.delivered_packets == plain.result.delivered_packets
        )
        assert np.array_equal(
            traced.result.link_busy_cycles, plain.result.link_busy_cycles
        )

    def test_traced_faulty_run_matches_untraced(self):
        plan = FaultPlan(
            loss_prob=0.05, dead_nodes=frozenset({3}), seed=7
        )
        plain = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan
        )
        traced = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan, obs=OBS_ALL
        )
        assert traced.time_cycles == plain.time_cycles
        assert (
            traced.result.events_processed == plain.result.events_processed
        )
        assert traced.result.lost_packets == plain.result.lost_packets
        assert (
            traced.result.retransmitted_packets
            == plain.result.retransmitted_packets
        )
        counts = traced.result.extras["obs"]["trace"]["counts"]
        assert counts["drop"] == plain.result.lost_packets
        assert counts["retx"] == plain.result.retransmitted_packets

    def test_trace_counts_match_sim_stats(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=OBS_ALL)
        counts = run.result.extras["obs"]["trace"]["counts"]
        assert counts["inject"] == run.result.injected_packets
        assert counts["deliver"] == run.result.delivered_packets

    def test_metrics_utilization_is_sane(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=OBS_ALL)
        m = run.result.extras["obs"]["metrics"]
        for axis in ("x", "y", "z"):
            series = m[f"link_utilization.{axis}"]["utilization"]
            assert series, f"axis {axis} series is empty"
            assert all(0.0 <= u <= 1.0 + 1e-9 for u in series)
        # Busy-cycle mass in the series equals the simulator's own
        # accounting, axis by axis.
        busy = run.result.link_busy_cycles
        for a, axis in enumerate(("x", "y", "z")):
            assert sum(m[f"link_busy_cycles.{axis}"]["buckets"]) == (
                pytest.approx(float(busy[:, [2 * a, 2 * a + 1]].sum()))
            )

    def test_sampling_reduces_events_deterministically(self):
        full = simulate_alltoall(ARDirect(), SHAPE, 64, seed=1, obs=OBS_ALL)
        sampled = simulate_alltoall(
            ARDirect(), SHAPE, 64, seed=1,
            obs=ObsConfig(trace=True, trace_sample=4),
        )
        f = full.result.extras["obs"]["trace"]
        s = sampled.result.extras["obs"]["trace"]
        assert 0 < s["counts"]["inject"] < f["counts"]["inject"]
        pids = {
            row[4] for row in s["events"] if row[2] == "inject"
        }
        assert all(pid % 4 == 0 for pid in pids)


#: The committed golden trace uses sampling so the file stays small
#: while still covering every exporter code path.
GOLDEN_OBS = ObsConfig(trace=True, trace_sample=8)


class TestGoldenTrace:
    def test_golden_trace_is_reproduced(self):
        run = simulate_alltoall(
            ARDirect(), SHAPE, 64, seed=1, obs=GOLDEN_OBS
        )
        assert _golden_jsonl(run) == GOLDEN.read_text()


class TestRunnerDeterminism:
    def test_jobs1_and_jobs4_collect_identical_traces(self):
        pts = [
            SimPoint(ARDirect(), SHAPE, m, seed=1) for m in (64, 128, 192)
        ]
        with observe(OBS_ALL) as seq:
            run_points(pts, jobs=1)
        with observe(OBS_ALL) as par:
            run_points(pts, jobs=4)
        assert len(seq) == len(par) == 3
        assert json.dumps(seq, sort_keys=True) == json.dumps(
            par, sort_keys=True
        )

    def test_observed_runs_bypass_cache(self):
        pts = [SimPoint(ARDirect(), SHAPE, 64, seed=1)]
        run_points(pts)  # populate the cache
        assert counters.cache_stores == 1
        counters.reset()
        with observe(OBS_ALL):
            run_points(pts)
        assert counters.simulated == 1  # not served from cache
        assert counters.cache_hits == 0
        assert counters.cache_stores == 0  # and not stored either
        counters.reset()
        plain = run_points(pts)[0]  # cached entry still clean
        assert counters.cache_hits == 1
        assert plain.result.extras.get("obs") is None

    def test_explicit_obs_arg_works_without_context(self):
        pts = [SimPoint(ARDirect(), SHAPE, 64, seed=1)]
        runs = run_points(pts, obs=OBS_ALL)
        assert "obs" in runs[0].result.extras
        assert runs[0].result.extras["obs"]["trace"]["total"] > 0
