"""Link-level analytics: per-link counters, stall accounting, hot-spot
detection and the measured-vs-analytic model diff (DESIGN.md section 14).

Three contracts are pinned here:

* the always-on core ``link_packets`` counter exists on *every* run and
  agrees with the event log (sum == total hops), and a run with
  ``ObsConfig(link_stats=True)`` is bit-identical to a plain run;
* the instrumented counters are exact — a golden per-link packet
  snapshot on the 4x4x2 torus, drop/retransmit attribution on faulty
  networks, and pooled (jobs=4) collection identical to sequential;
* the analytics layer recovers the paper's quantities — per-axis
  percent-of-peak, measured loads matching ``model/linkload.py`` within
  the packetization-overhead band, and a hot-spot ranking that lists
  the busiest links first.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import simulate_alltoall
from repro.net.faults import FaultPlan
from repro.net.topology import TorusShape
from repro.obs import LinkAnalytics, parse_point_label
from repro.obs.config import ObsConfig
from repro.runner import SimPoint, counters, decode_run, encode_run, run_points
from repro.runner.pool import point_label
from repro.obs.context import observe
from repro.strategies import ARDirect

SHAPE = TorusShape.parse("4x4x2")
LS = ObsConfig(link_stats=True)

#: Pinned plain-run identity on 4x4x2 / ARDirect / m=256 / seed=1.  These
#: change only when simulator semantics change (bump the codec
#: SCHEMA_VERSION when they do).
GOLDEN_TIME_CYCLES = 42883.72000000001
GOLDEN_EVENTS = 21312
GOLDEN_TOTAL_HOPS = 5120

#: Golden per-link packet counts for the same run: 32 nodes x 6 directed
#: links (x+, x-, y+, y-, z+, z-), node = x + 4y + 16z.  The z extent is
#: 2, so each node uses exactly one z direction (mesh-degenerate axis).
GOLDEN_PACKETS = [
    30, 36, 32, 33, 29, 0, 28, 38, 32, 31, 34, 0, 36, 35, 29, 32, 30, 0,
    34, 33, 37, 32, 34, 0, 33, 34, 35, 29, 33, 0, 33, 31, 35, 35, 29, 0,
    30, 32, 30, 34, 31, 0, 31, 33, 34, 31, 37, 0, 33, 32, 30, 34, 34, 0,
    32, 32, 29, 34, 35, 0, 31, 28, 28, 33, 33, 0, 29, 32, 37, 31, 31, 0,
    33, 31, 31, 31, 27, 0, 34, 28, 30, 31, 31, 0, 34, 29, 34, 33, 31, 0,
    29, 30, 37, 31, 33, 0, 34, 27, 32, 29, 0, 28, 36, 31, 31, 32, 0, 33,
    35, 27, 37, 30, 0, 33, 37, 29, 25, 35, 0, 30, 31, 33, 30, 27, 0, 36,
    32, 28, 30, 35, 0, 32, 38, 35, 30, 34, 0, 29, 32, 29, 34, 32, 0, 34,
    31, 31, 33, 32, 0, 36, 30, 28, 34, 31, 0, 35, 32, 32, 33, 37, 0, 26,
    36, 35, 31, 28, 0, 32, 32, 30, 26, 35, 0, 33, 33, 30, 33, 30, 0, 32,
    30, 29, 33, 32, 0, 37, 37, 34, 28, 34, 0, 26,
]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()


def _payload(run):
    return run.result.extras["obs"]["link_stats"]


class TestCoreCounter:
    def test_plain_run_carries_link_packets(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1)
        pk = run.result.link_packets
        assert pk is not None and pk.shape == (32, 6)
        assert pk.dtype == np.int64
        assert int(pk.sum()) == run.result.total_hops == GOLDEN_TOTAL_HOPS

    def test_plain_run_identity_is_pinned(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1)
        assert run.time_cycles == GOLDEN_TIME_CYCLES
        assert run.result.events_processed == GOLDEN_EVENTS

    def test_link_stats_run_is_bit_identical_to_plain(self):
        plain = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1)
        observed = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        assert observed.time_cycles == plain.time_cycles
        assert (
            observed.result.events_processed == plain.result.events_processed
        )
        np.testing.assert_array_equal(
            observed.result.link_busy_cycles, plain.result.link_busy_cycles
        )
        np.testing.assert_array_equal(
            observed.result.link_packets, plain.result.link_packets
        )

    def test_link_packets_survive_codec_round_trip(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1)
        back = decode_run(json.loads(json.dumps(encode_run(run))))
        np.testing.assert_array_equal(
            back.result.link_packets, run.result.link_packets
        )
        assert back.result.link_packets.dtype == np.int64


class TestGoldenCounters:
    def test_golden_per_link_packet_snapshot(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        p = _payload(run)
        assert p["packets"] == GOLDEN_PACKETS
        # The instrumented count is the core count, just re-surfaced.
        assert p["packets"] == run.result.link_packets.reshape(-1).tolist()

    def test_payload_totals_are_consistent(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        p = _payload(run)
        assert p["dims"] == [4, 4, 2]
        assert p["links_per_axis"] == [64, 64, 32]
        assert sum(p["packets"]) == run.result.total_hops
        assert sum(p["vc_packets"]) == sum(p["packets"])
        np.testing.assert_allclose(
            np.asarray(p["busy_cycles"]).reshape(32, 6),
            run.result.link_busy_cycles,
        )
        # Each hop moves the full wire image of its packet exactly once.
        assert sum(p["wire_bytes"]) > 0
        assert p["injected_wire_bytes"] == run.result.injected_wire_bytes
        assert p["time_cycles"] == run.result.time_cycles
        assert p["phase_busy"] and list(p["phase_busy"]) == ["direct"]

    def test_jobs1_and_jobs4_collect_identical_link_stats(self):
        pts = [
            SimPoint(ARDirect(), SHAPE, m, seed=1) for m in (64, 128, 256)
        ]
        with observe(LS) as seq:
            run_points(pts, jobs=1)
        with observe(LS) as par:
            run_points(pts, jobs=4)
        assert len(seq) == len(par) == 3
        assert json.dumps(seq, sort_keys=True) == json.dumps(
            par, sort_keys=True
        )

    def test_stalls_are_counted_under_contention(self):
        # m=4096 saturates the injection FIFOs/credits on 4x4x2, so the
        # idle-link-with-waiter condition actually occurs.
        run = simulate_alltoall(ARDirect(), SHAPE, 4096, seed=1, obs=LS)
        p = _payload(run)
        stall = np.asarray(p["stall_cycles"]).reshape(32, 6)
        pk = np.asarray(p["packets"]).reshape(32, 6)
        assert stall.sum() > 0.0
        assert (stall >= 0.0).all()
        # A stall interval always closes with a launch on that link.
        assert (pk[stall > 0] > 0).all()


class TestFaultAttribution:
    def test_drops_and_retx_land_on_the_right_links(self):
        plan = FaultPlan(loss_prob=0.05, seed=7)
        run = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan, obs=LS
        )
        p = _payload(run)
        drops = np.asarray(p["drops"]).reshape(32, 6)
        pk = np.asarray(p["packets"]).reshape(32, 6)
        assert run.result.lost_packets > 0
        assert int(drops.sum()) == run.result.lost_packets
        assert sum(p["retx_by_node"]) == run.result.retransmitted_packets
        # A drop happens on a launched transmission: every link with a
        # drop also counted the launch itself.
        assert (pk[drops > 0] > 0).all()

    def test_faulty_link_stats_run_matches_plain_faulty_run(self):
        plan = FaultPlan(
            loss_prob=0.05, dead_links=frozenset({(3, 0)}), seed=7
        )
        plain = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan
        )
        observed = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan, obs=LS
        )
        assert observed.time_cycles == plain.time_cycles
        assert (
            observed.result.events_processed == plain.result.events_processed
        )
        assert observed.result.lost_packets == plain.result.lost_packets
        # The dead wire (3, x+) removes both of its directed links from
        # the live x count.
        p = _payload(observed)
        assert p["links_per_axis"][0] == 62


class TestAnalytics:
    def test_percent_of_peak_is_finite_and_bounded(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        la = LinkAnalytics.from_payload(_payload(run))
        axes = la.axis_percent_of_peak()
        assert len(axes) == 3
        for pct in axes:
            assert 0.0 < pct <= 100.0
        assert la.percent_of_peak() == max(axes)

    def test_from_result_works_without_payload(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1)
        la = LinkAnalytics.from_result(
            run.result, SHAPE, run.params.beta_cycles_per_byte
        )
        assert int(la.packets.sum()) == GOLDEN_TOTAL_HOPS
        assert la.percent_of_peak() > 0.0

    def test_measured_loads_match_linkload_model(self):
        # On a pristine direct-strategy run the measured wire bytes per
        # link exceed the analytic payload prediction by exactly the
        # packetization overhead message_wire_bytes(m)/m, identically on
        # every axis.
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        la = LinkAnalytics.from_payload(_payload(run))
        cmp = la.model_comparison(256)
        assert cmp["agrees"] is True
        expected = run.params.message_wire_bytes(256) / 256
        for row in cmp["per_axis"]:
            assert row["ratio"] == pytest.approx(expected)
        assert cmp["axis_spread"] == pytest.approx(0.0, abs=1e-12)

    def test_summary_is_json_ready_and_finite(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        la = LinkAnalytics.from_payload(_payload(run))
        s = la.summary(msg_bytes=256)
        json.dumps(s, allow_nan=False)  # raises on NaN/inf
        assert s["percent_of_peak"] > 0.0
        assert s["model"]["agrees"] is True

    def test_hotspots_rank_links_by_utilization(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        la = LinkAnalytics.from_payload(_payload(run))
        util = la.utilization()
        top = la.hotspots(top=5)
        assert len(top) == 5
        got = [h["utilization"] for h in top]
        assert got == sorted(util.ravel().tolist(), reverse=True)[:5]
        node = top[0]["node"]
        assert util[node].max() == got[0]

    def test_phase_table_accounts_all_busy_cycles(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        la = LinkAnalytics.from_payload(_payload(run))
        rows = la.phase_table()
        assert [r["phase"] for r in rows] == ["direct"]
        assert rows[0]["busy_cycles"] == pytest.approx(
            float(run.result.link_busy_cycles.sum())
        )

    def test_axis_node_utilization_raster(self):
        run = simulate_alltoall(ARDirect(), SHAPE, 256, seed=1, obs=LS)
        la = LinkAnalytics.from_payload(_payload(run))
        for axis in range(3):
            raster = la.axis_node_utilization(axis)
            assert raster.shape == (32,)
            assert np.isfinite(raster).all()
            assert (raster >= 0.0).all()

    def test_parse_point_label_round_trips(self):
        pt = SimPoint(ARDirect(), SHAPE, 256, seed=3)
        meta = parse_point_label(point_label(pt))
        assert meta["dims"] == (4, 4, 2)
        assert meta["msg_bytes"] == 256
        assert meta["seed"] == 3
        assert meta["faulty"] is False
        faulty = SimPoint(
            ARDirect(), SHAPE, 256, seed=3,
            faults=FaultPlan(loss_prob=0.1, seed=1),
        )
        assert parse_point_label(point_label(faulty))["faulty"] is True
