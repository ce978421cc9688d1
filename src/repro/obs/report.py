"""Self-contained HTML run reports with a machine-readable JSON sidecar.

:func:`write_report` turns the observability payloads a sweep collected
(one ``link_stats``/``metrics`` payload per simulation point, from
:func:`repro.obs.context.observe`) plus any finished
:class:`~repro.experiments.common.ExperimentResult` tables into two
files under one directory:

* ``report.html`` — a dependency-free single file: a comparative
  percent-of-peak summary across every point, then per-point sections
  with per-axis utilization heatmaps (inline SVG, one cell per node),
  the phase bandwidth table, the congestion hot-spot list, the analytic
  model diff, and a provenance block;
* ``report.json`` — the same numbers as plain JSON (the sidecar CI and
  downstream tooling consume; written with ``allow_nan=False`` so a
  NaN/infinite statistic fails the generation loudly rather than
  producing an unparseable artifact).

The generator is pure post-processing: it never runs simulations and
accepts any mix of points (pristine, faulty, different shapes); points
without ``link_stats`` counters fall back to the always-collected
busy-cycle/packet matrices when given full runs, and are listed without
analytics otherwise.
"""

from __future__ import annotations

import html
import json
import os
import time
from typing import Any, Iterable

from repro.obs.linkstats import (
    AXIS_NAMES,
    LinkAnalytics,
    parse_point_label,
)
from repro.obs.provenance import git_describe

#: Version of the JSON sidecar layout; bump it on any layout change.
REPORT_SCHEMA = 3

REPORT_HTML = "report.html"
REPORT_JSON = "report.json"


# --------------------------------------------------------------------- #
# sidecar assembly
# --------------------------------------------------------------------- #


def _point_record(entry: dict, params: Any = None) -> dict:
    """Sidecar record for one collected observability payload."""
    label = entry.get("point", "unknown")
    rec: dict[str, Any] = {"point": label}
    try:
        rec.update(parse_point_label(label))
    except ValueError:
        pass
    ls = entry.get("link_stats")
    if ls is not None:
        la = LinkAnalytics.from_payload(ls)
        rec["summary"] = la.summary(rec.get("msg_bytes"), params=params)
        rec["heatmaps"] = {
            AXIS_NAMES[a]: [
                float(x) for x in la.axis_node_utilization(a)
            ]
            for a in range(la.shape.ndim)
        }
        rec["dims"] = list(la.shape.dims)
    metrics = entry.get("metrics")
    if metrics is not None:
        # Keep only the derived utilization timeseries (the bandwidth-
        # over-time view); raw series stay in --metrics output.
        rec["utilization_timeseries"] = {
            name.split(".", 1)[1]: series
            for name, series in metrics.items()
            if name.startswith("link_utilization.")
        }
    return rec


def _experiment_record(res: Any) -> dict:
    """Sidecar record for one ExperimentResult (duck-typed)."""
    return {
        "exp_id": res.exp_id,
        "title": res.title,
        "columns": list(res.columns),
        "rows": [dict(r) for r in res.rows],
        "notes": list(res.notes),
        "provenance": res.provenance,
        "failures": [dict(f) for f in res.failures],
    }


def build_sidecar(
    entries: Iterable[dict],
    experiments: Iterable[Any] = (),
    title: str = "Run report",
    params: Any = None,
) -> dict:
    """The machine-readable report: everything the HTML renders."""
    return {
        "schema": REPORT_SCHEMA,
        "title": title,
        "generated_unix": time.time(),
        "git": git_describe(),
        "points": [_point_record(e, params=params) for e in entries],
        "experiments": [_experiment_record(r) for r in experiments],
    }


# --------------------------------------------------------------------- #
# HTML rendering
# --------------------------------------------------------------------- #

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #1a1a2e; max-width: 72em; }
h1 { border-bottom: 2px solid #16213e; padding-bottom: .3em; }
h2 { margin-top: 2em; color: #16213e; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #cbd5e1; padding: .35em .7em;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #eef2f7; }
td.l, th.l { text-align: left; }
.prov { background: #f6f8fa; border: 1px solid #d0d7de; padding: 1em;
        font-family: monospace; font-size: .85em; white-space: pre-wrap; }
.warn { color: #b91c1c; font-weight: 600; }
.ok { color: #15803d; font-weight: 600; }
svg { margin: .4em 1em .4em 0; }
.axislabel { font-size: .8em; fill: #475569; }
"""


def _esc(v: Any) -> str:
    return html.escape(str(v))


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:,.2f}"
    if isinstance(v, int):
        return f"{v:,}"
    return _esc(v)


def _table(columns: list[str], rows: list[list], left: int = 1) -> str:
    """Render an HTML table; the first *left* columns left-align."""
    cls = lambda i: ' class="l"' if i < left else ""
    head = "".join(
        f"<th{cls(i)}>{_esc(c)}</th>" for i, c in enumerate(columns)
    )
    body = "".join(
        "<tr>"
        + "".join(f"<td{cls(i)}>{_fmt(v)}</td>" for i, v in enumerate(row))
        + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _heat_color(u: float) -> str:
    """White (idle) -> red (fully busy) ramp."""
    u = min(max(u, 0.0), 1.0)
    c = int(round(255 * (1.0 - u)))
    return f"rgb(255,{c},{c})"


def _heatmap_svg(axis: str, dims: list[int], values: list[float]) -> str:
    """One cell per node: x = first dimension, remaining dimensions
    stacked as rows (row-major node order, axis 0 fastest)."""
    nx = dims[0] if dims else 1
    rows = max(1, len(values) // max(nx, 1))
    cell, pad, top = 18, 2, 16
    w = nx * cell + pad * 2
    h = rows * cell + pad * 2 + top
    cells = []
    for i, u in enumerate(values):
        cx, cy = i % nx, i // nx
        cells.append(
            f'<rect x="{pad + cx * cell}" y="{top + pad + cy * cell}" '
            f'width="{cell - 1}" height="{cell - 1}" '
            f'fill="{_heat_color(u)}" stroke="#94a3b8" stroke-width="0.5">'
            f"<title>node {i}: {u * 100:.1f}%</title></rect>"
        )
    return (
        f'<svg width="{w}" height="{h}" xmlns="http://www.w3.org/2000/svg">'
        f'<text x="{pad}" y="12" class="axislabel">axis {_esc(axis)}'
        f"</text>{''.join(cells)}</svg>"
    )


def _point_section(rec: dict) -> str:
    out = [f"<h2>{_esc(rec['point'])}</h2>"]
    summary = rec.get("summary")
    if summary is None:
        out.append("<p>No link-stats payload collected for this point.</p>")
        return "".join(out)
    axes = list(summary["axis_percent_of_peak"].keys())
    out.append(
        _table(
            ["metric"] + axes + ["overall"],
            [
                ["percent of peak"]
                + [summary["axis_percent_of_peak"][a] for a in axes]
                + [summary["percent_of_peak"]],
                ["directed links"]
                + [summary["links_per_axis"][a] for a in axes]
                + [sum(summary["links_per_axis"].values())],
            ],
        )
    )
    heat = rec.get("heatmaps")
    if heat and rec.get("dims"):
        out.append("<div>")
        for axis, values in heat.items():
            out.append(_heatmap_svg(axis, rec["dims"], values))
        out.append("</div>")
    phases = summary.get("phases") or []
    if phases:
        out.append("<h3>Phase bandwidth</h3>")
        out.append(
            _table(
                ["phase"]
                + [f"% peak {a}" for a in axes]
                + ["busy cycles"],
                [
                    [p["phase"]]
                    + [p.get(f"pct_peak_{a}", 0.0) for a in axes]
                    + [p["busy_cycles"]]
                    for p in phases
                ],
            )
        )
    hot = summary.get("hotspots") or []
    if hot:
        out.append("<h3>Hottest links</h3>")
        out.append(
            _table(
                ["link", "utilization", "packets", "stall cycles", "drops"],
                [
                    [
                        f"{tuple(e['coords'])} {e['direction']}",
                        f"{e['utilization'] * 100:.1f}%",
                        e["packets"],
                        e.get("stall_cycles", 0.0),
                        e.get("drops", 0),
                    ]
                    for e in hot
                ],
            )
        )
    model = summary.get("model")
    if model is not None:
        verdict = (
            '<span class="ok">agrees</span>'
            if model["agrees"]
            else '<span class="warn">DISAGREES</span>'
        )
        out.append(
            f"<h3>Analytic model diff ({verdict} — measured/predicted "
            f"within [{model['ratio_bounds'][0]:.3f}, "
            f"{model['ratio_bounds'][1]:.3f}], axis spread "
            f"{model['axis_spread']:.4f} &le; "
            f"{model['axis_spread_tolerance']})</h3>"
        )
        out.append(
            _table(
                [
                    "axis",
                    "measured B/link",
                    "predicted B/link",
                    "ratio",
                ],
                [
                    [
                        r["axis"],
                        r["measured_bytes_per_link"],
                        r["predicted_bytes_per_link"],
                        r["ratio"] if r["ratio"] is not None else "-",
                    ]
                    for r in model["per_axis"]
                ],
            )
        )
    return "".join(out)


def _experiment_section(rec: dict) -> str:
    out = [f"<h2>[{_esc(rec['exp_id'])}] {_esc(rec['title'])}</h2>"]
    cols = rec["columns"]
    out.append(
        _table(cols, [[r.get(c, "") for c in cols] for r in rec["rows"]])
    )
    for note in rec["notes"]:
        out.append(f"<p><em>{_esc(note)}</em></p>")
    if rec["failures"]:
        out.append(
            f'<p class="warn">INCOMPLETE: {len(rec["failures"])} point(s) '
            f"failed.</p>"
        )
        out.append(
            f'<div class="prov">{_esc(json.dumps(rec["failures"], indent=2))}'
            f"</div>"
        )
    if rec.get("provenance"):
        out.append("<h3>Provenance</h3>")
        out.append(
            f'<div class="prov">'
            f'{_esc(json.dumps(rec["provenance"], indent=2, sort_keys=True))}'
            f"</div>"
        )
    return "".join(out)


def render_html(sidecar: dict) -> str:
    """The self-contained HTML report for *sidecar*."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(sidecar['title'])}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(sidecar['title'])}</h1>",
        f'<div class="prov">git: {_esc(sidecar["git"])}\n'
        f'generated: {time.strftime("%Y-%m-%d %H:%M:%S %Z", time.localtime(sidecar["generated_unix"]))}\n'
        f"points: {len(sidecar['points'])}    "
        f"experiments: {len(sidecar['experiments'])}</div>",
    ]
    summarized = [p for p in sidecar["points"] if p.get("summary")]
    if summarized:
        parts.append("<h2>Percent of peak, all points</h2>")
        axes = sorted(
            {
                a
                for p in summarized
                for a in p["summary"]["axis_percent_of_peak"]
            }
        )
        parts.append(
            _table(
                ["point", "time (cycles)"]
                + [f"% peak {a}" for a in axes]
                + ["% peak (bottleneck)", "model"],
                [
                    [
                        p["point"],
                        p["summary"]["time_cycles"],
                        *[
                            p["summary"]["axis_percent_of_peak"].get(a, "-")
                            for a in axes
                        ],
                        p["summary"]["percent_of_peak"],
                        (
                            "-"
                            if p["summary"].get("model") is None
                            else (
                                "agrees"
                                if p["summary"]["model"]["agrees"]
                                else "DISAGREES"
                            )
                        ),
                    ]
                    for p in summarized
                ],
            )
        )
    for p in sidecar["points"]:
        parts.append(_point_section(p))
    for e in sidecar["experiments"]:
        parts.append(_experiment_section(e))
    parts.append("</body></html>")
    return "".join(parts)


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def write_report(
    out_dir: str,
    entries: Iterable[dict],
    experiments: Iterable[Any] = (),
    title: str = "Run report",
    params: Any = None,
) -> tuple[str, str]:
    """Write ``report.html`` + ``report.json`` under *out_dir*.

    *entries* are collected observability payloads (each a dict with a
    ``point`` label and optional ``link_stats``/``metrics`` keys — what
    :func:`repro.obs.context.observe` yields); *experiments* are
    finished :class:`ExperimentResult` objects rendered as comparative
    tables.  Returns ``(html_path, json_path)``.
    """
    sidecar = build_sidecar(entries, experiments, title=title, params=params)
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, REPORT_JSON)
    html_path = os.path.join(out_dir, REPORT_HTML)
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    with open(html_path, "w", encoding="utf-8") as f:
        f.write(render_html(sidecar))
    return html_path, json_path
