"""HTML run report + JSON sidecar generation (DESIGN.md section 14).

The report is the user-facing end of the link-analytics pipeline: every
collected point must land in the sidecar with a finite percent-of-peak
(the CI gate greps for exactly that), the HTML must be self-contained,
and NaN anywhere in the sidecar must fail loudly instead of serializing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.api import simulate_alltoall
from repro.experiments.common import ExperimentResult
from repro.net.topology import TorusShape
from repro.obs.config import ObsConfig
from repro.obs.context import observe
from repro.obs.report import (
    REPORT_HTML,
    REPORT_JSON,
    REPORT_SCHEMA,
    build_sidecar,
    render_html,
    write_report,
)
from repro.runner import SimPoint, counters, run_points
from repro.strategies import ARDirect

SHAPE = TorusShape.parse("4x4x2")
OBS = ObsConfig(metrics=True, link_stats=True)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()


@pytest.fixture(scope="module")
def entries():
    """Two collected observation entries (64 B and 256 B points)."""
    pts = [SimPoint(ARDirect(), SHAPE, m, seed=1) for m in (64, 256)]
    with observe(OBS) as collected:
        run_points(pts)
    return collected


def _experiment() -> ExperimentResult:
    res = ExperimentResult(
        exp_id="fig1_ar_midplane",
        title="AR direct on a midplane",
        columns=["m bytes", "measured us"],
    )
    res.rows = [
        {"m bytes": 64, "measured us": 10.5},
        {"m bytes": 256, "measured us": 42.0},
    ]
    res.notes.append("partition simulated: 4x4x2 (test)")
    res.provenance = {"seed": 1, "wall_s": 0.5, "points_simulated": 2}
    return res


class TestSidecar:
    def test_every_point_has_finite_percent_of_peak(self, entries):
        side = build_sidecar(entries, title="t")
        assert len(side["points"]) == 2
        for pt in side["points"]:
            pct = pt["summary"]["percent_of_peak"]
            assert isinstance(pct, float) and math.isfinite(pct)
            assert 0.0 < pct <= 100.0
            for axis_pct in pt["summary"]["axis_percent_of_peak"].values():
                assert math.isfinite(axis_pct)

    def test_points_carry_model_diff_and_heatmaps(self, entries):
        side = build_sidecar(entries, title="t")
        for pt in side["points"]:
            assert pt["summary"]["model"]["agrees"] is True
            assert sorted(pt["heatmaps"]) == ["x", "y", "z"]
            for values in pt["heatmaps"].values():
                assert len(values) == 32  # one cell per node

    def test_experiments_are_recorded(self, entries):
        side = build_sidecar(entries, [_experiment()], title="t")
        assert len(side["experiments"]) == 1
        exp = side["experiments"][0]
        assert exp["exp_id"] == "fig1_ar_midplane"
        assert exp["rows"] == _experiment().rows
        assert exp["provenance"]["points_simulated"] == 2

    def test_sidecar_layout_matches_its_schema(self, entries):
        # A change to these keys must bump REPORT_SCHEMA.
        side = build_sidecar(entries, [_experiment()], title="t")
        assert side["schema"] == REPORT_SCHEMA == 3
        assert sorted(side) == [
            "experiments", "generated_unix", "git", "points", "schema", "title"
        ]

    def test_sidecar_is_json_clean(self, entries):
        side = build_sidecar(entries, [_experiment()], title="t")
        json.dumps(side, allow_nan=False)  # raises on NaN/inf


class TestHtml:
    def test_html_is_self_contained_and_complete(self, entries):
        side = build_sidecar(entries, [_experiment()], title="My report")
        html = render_html(side)
        assert html.startswith("<!DOCTYPE html>")
        assert "My report" in html
        assert "Percent of peak" in html
        assert "<svg" in html  # heatmaps inlined
        assert "AR direct on a midplane" in html
        # No external fetches: the report must open offline.  (The SVG
        # xmlns namespace URI is an identifier, not a fetch.)
        assert 'src="http' not in html and 'href="http' not in html

    def test_comparative_table_lists_every_point(self, entries):
        side = build_sidecar(entries, title="t")
        html = render_html(side)
        for pt in side["points"]:
            assert pt["point"] in html

    def test_markup_is_escaped(self, entries):
        exp = _experiment()
        exp.title = "<script>alert(1)</script>"
        side = build_sidecar(entries, [exp], title="t")
        html = render_html(side)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html


class TestWriteReport:
    def test_write_report_emits_both_files(self, entries, tmp_path):
        out = tmp_path / "report"
        html_path, json_path = map(
            Path, write_report(out, entries, [_experiment()], title="t")
        )
        assert html_path.name == REPORT_HTML and html_path.exists()
        assert json_path.name == REPORT_JSON and json_path.exists()
        side = json.loads(json_path.read_text())
        assert side["title"] == "t"
        assert len(side["points"]) == 2
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_nan_in_payload_fails_loudly(self, entries, tmp_path):
        bad = [json.loads(json.dumps(e)) for e in entries]
        bad[0]["link_stats"]["time_cycles"] = float("nan")
        with pytest.raises(ValueError):
            write_report(tmp_path / "bad", bad, title="t")


class TestDegenerateInputs:
    """An empty or fully-failed sweep must still produce valid files —
    the report is exactly what a human reaches for when a run went
    sideways, so it may never crash on a degenerate input."""

    def test_empty_sweep_renders_valid_report(self, tmp_path):
        html_path, json_path = map(
            Path, write_report(tmp_path / "empty", [], [], title="empty")
        )
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>") and html.endswith(
            "</body></html>"
        )
        side = json.loads(json_path.read_text())
        assert side["points"] == [] and side["experiments"] == []
        json.dumps(side, allow_nan=False)

    def test_all_failed_experiment_renders_valid_report(self, tmp_path):
        res = ExperimentResult(
            exp_id="fig1_ar_midplane",
            title="AR direct on a midplane",
            columns=["m bytes", "measured us"],
        )
        res.rows = []  # every point failed; nothing measured
        res.failures = [
            {"kind": "timeout", "key": "k1", "label": "8x8x8/m64"},
            {"kind": "crash", "key": "k2", "label": "8x8x8/m256"},
        ]
        res.notes.append("INCOMPLETE: 2 point(s) failed")
        html_path, json_path = map(
            Path, write_report(tmp_path / "failed", [], [res], title="t")
        )
        html = html_path.read_text()
        assert "INCOMPLETE: 2 point(s)" in html
        assert "timeout" in html
        side = json.loads(json_path.read_text())
        assert side["experiments"][0]["rows"] == []
        assert len(side["experiments"][0]["failures"]) == 2

    def test_entry_without_link_stats_is_listed(self, tmp_path):
        entries = [{"point": "ARDirect/4x4x2/m64/s1"}]  # no analytics
        html_path, json_path = map(
            Path, write_report(tmp_path / "bare", entries, title="t")
        )
        html = html_path.read_text()
        assert "ARDirect/4x4x2/m64/s1" in html
        assert "No link-stats payload" in html
        side = json.loads(json_path.read_text())
        assert "summary" not in side["points"][0]


class TestCliIntegration:
    def test_cli_report_flag_writes_report(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "rep"
        rc = main(
            [
                "run",
                "fig1_ar_midplane",
                "--scale",
                "tiny",
                "--report",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / REPORT_HTML).exists()
        side = json.loads((out / REPORT_JSON).read_text())
        assert side["points"], "report collected no points"
        for pt in side["points"]:
            assert math.isfinite(pt["summary"]["percent_of_peak"])
        assert len(side["experiments"]) == 1
        assert "report:" in capsys.readouterr().out
