"""Phase-level time profiler (DESIGN.md section 15).

Two contracts matter: profiling must not perturb the simulation (a
profiled run is bit-identical to a plain one — time, events, exact
per-link busy cycles), and the attribution itself must be exact in
simulated cycles (host wall/CPU time is a labeled estimate).
"""

from __future__ import annotations

import json

import pytest

from repro.api import simulate_alltoall
from repro.net.topology import TorusShape
from repro.obs.config import ObsConfig
from repro.obs.profile import (
    PROFILE_SCHEMA,
    PhaseProfiler,
    merge_profiles,
    profile_chrome_events,
)
from repro.runner import counters
from repro.runner.codec import decode_run, encode_run
from repro.strategies import ARDirect, TwoPhaseSchedule

SHAPE = TorusShape.parse("4x4x4")
MSG = 64


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    counters.reset()


def _run(strategy, obs=None):
    return simulate_alltoall(strategy, SHAPE, MSG, seed=1, obs=obs)


class TestUnit:
    def test_launches_and_deliveries_aggregate(self):
        prof = PhaseProfiler(ndim=3)
        prof.on_launch("tps1", 0, 10.0, 4.0)
        prof.on_launch("tps1", 2, 20.0, 6.0)
        prof.on_launch("tps2", 1, 30.0, 2.0)
        prof.on_delivery("tps1", 40.0, final=False)
        prof.on_delivery("tps2", 50.0, final=True)
        payload = prof.to_payload(
            time_cycles=50.0, events_processed=5, wall_s=1.0, cpu_s=0.5
        )
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["total_busy_cycles"] == 12.0
        t1 = payload["phases"]["tps1"]
        assert t1["launches"] == 2 and t1["deliveries"] == 1
        assert t1["final_deliveries"] == 0
        assert t1["busy_by_axis"] == {"x": 4.0, "y": 0.0, "z": 6.0}
        assert t1["first_cycle"] == 10.0 and t1["last_cycle"] == 40.0
        assert t1["span_cycles"] == 30.0
        assert t1["busy_share"] == pytest.approx(10.0 / 12.0)
        # Host time splits by busy share and is labeled an estimate.
        assert t1["wall_s_est"] == pytest.approx(10.0 / 12.0)
        t2 = payload["phases"]["tps2"]
        assert t2["final_deliveries"] == 1
        assert t1["wall_s_est"] + t2["wall_s_est"] == pytest.approx(1.0)

    def test_empty_profiler_payload(self):
        payload = PhaseProfiler(ndim=3).to_payload(0.0, 0)
        assert payload["phases"] == {}
        assert payload["total_busy_cycles"] == 0.0
        assert "wall_s" not in payload


class TestBitIdentity:
    @pytest.mark.parametrize(
        "strategy_cls", [ARDirect, TwoPhaseSchedule]
    )
    def test_profiled_run_is_bit_identical(self, strategy_cls):
        """The acceptance criterion: profiling-on simulates the exact
        same event stream as the plain un-instrumented path."""
        plain = _run(strategy_cls())
        prof = _run(strategy_cls(), obs=ObsConfig(profile=True))
        assert prof.result.time_cycles == plain.result.time_cycles
        assert (
            prof.result.events_processed == plain.result.events_processed
        )
        assert (
            prof.result.link_busy_cycles.tolist()
            == plain.result.link_busy_cycles.tolist()
        )
        assert (
            prof.result.delivered_packets == plain.result.delivered_packets
        )

    def test_plain_run_carries_no_profile(self):
        run = _run(TwoPhaseSchedule())
        assert "obs" not in run.result.extras


class TestSimulatedAttribution:
    @pytest.fixture(scope="class")
    def payload(self):
        run = _run(TwoPhaseSchedule(), obs=ObsConfig(profile=True))
        return run.result.extras["obs"]["profile"]

    def test_tps_phases_present_and_busy(self, payload):
        assert sorted(payload["phases"]) == ["tps1", "tps2"]
        for e in payload["phases"].values():
            assert e["launches"] > 0
            assert e["busy_cycles"] > 0
            assert 0.0 < e["busy_share"] < 1.0
            assert e["first_cycle"] <= e["last_cycle"]
        shares = [e["busy_share"] for e in payload["phases"].values()]
        assert sum(shares) == pytest.approx(1.0)

    def test_busy_cycles_sum_matches_link_stats(self, payload):
        """The profiler's per-phase busy cycles are exact: they sum to
        the simulator's own total link-busy time."""
        run = _run(TwoPhaseSchedule())
        total = float(run.result.link_busy_cycles.sum())
        assert payload["total_busy_cycles"] == pytest.approx(total)

    def test_deliveries_match_packet_count(self, payload):
        run = _run(TwoPhaseSchedule())
        delivered = run.result.delivered_packets
        assert (
            sum(e["deliveries"] for e in payload["phases"].values())
            == delivered
        )

    def test_host_time_attached(self, payload):
        assert payload["wall_s"] > 0.0
        assert payload["cpu_s"] > 0.0

    def test_payload_survives_the_codec(self):
        run = _run(TwoPhaseSchedule(), obs=ObsConfig(profile=True))
        # Through JSON text, as the cache stores it; encode_run's
        # canonical-extras check must accept the payload.
        again = decode_run(json.loads(json.dumps(encode_run(run))))
        assert (
            again.result.extras["obs"]["profile"]
            == run.result.extras["obs"]["profile"]
        )

    def test_metrics_fold_in_exact_cycle_counters(self):
        run = _run(
            TwoPhaseSchedule(), obs=ObsConfig(profile=True, metrics=True)
        )
        obs = run.result.extras["obs"]
        metrics = obs["metrics"]
        prof = obs["profile"]
        for name in ("tps1", "tps2"):
            assert metrics[f"profile.busy_cycles.{name}"]["value"] == (
                prof["phases"][name]["busy_cycles"]
            )
            assert metrics[f"profile.launches.{name}"]["value"] == (
                prof["phases"][name]["launches"]
            )


class TestExporters:
    def _payload(self):
        prof = PhaseProfiler(ndim=3)
        prof.on_launch("tps1", 0, 0.0, 10.0)
        prof.on_launch("tps2", 1, 5.0, 10.0)
        return prof.to_payload(20.0, 4, wall_s=2.0)

    def test_chrome_events_span_track(self):
        events = list(profile_chrome_events(self._payload(), label="pt"))
        (proc,) = [e for e in events if e["name"] == "process_name"]
        assert proc["args"]["name"] == "pt:phase profile"
        spans = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"tps1", "tps2"}
        for s in spans:
            assert s["dur"] >= 0 and "busy_share" in s["args"]
        json.dumps(events)  # must be JSON-native

    def test_merge_profiles_sums_counts(self):
        a, b = self._payload(), self._payload()
        merged = merge_profiles([a, b])
        assert merged["points"] == 2
        assert merged["total_busy_cycles"] == 40.0
        assert merged["phases"]["tps1"]["launches"] == 2
        assert merged["phases"]["tps1"]["busy_share"] == pytest.approx(0.5)
        assert merged["wall_s"] == pytest.approx(4.0)
        # Spans are meaningless across points and must not be merged.
        assert "first_cycle" not in merged["phases"]["tps1"]

    def test_merge_profiles_empty(self):
        merged = merge_profiles([])
        assert merged["points"] == 0 and merged["phases"] == {}
