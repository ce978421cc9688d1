"""The benchmark's workloads: inputs made from a seed, the timed call, and
the checks on what the call returned.

Importing this module imports the simulator, so :mod:`run` imports it only
after putting the checkout's ``src`` on ``sys.path``.  Each workload is
plain data in :data:`WORKLOADS`, built by a factory; the tests swap in
small stand-ins built by the same factories.  Why each workload was
chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from statistics import fmean
from typing import Any, Callable

from repro import TorusShape, simulate_alltoall
from repro.check.config import CheckConfig
from repro.experiments.registry import run_experiment
from repro.net import FaultPlan
from repro.obs.config import ObsConfig
from repro.obs.context import observe
from repro.obs.linkstats import LinkAnalytics
from repro.obs.report import write_report
from repro.runner import (
    SCHEMA_VERSION,
    SimPoint,
    counters,
    decode_run,
    encode_run,
    run_sweep,
)
from repro.runner.cache import cache_get
from repro.strategies import ARDirect, DRDirect, TwoPhaseSchedule, VirtualMesh2D

#: Inputs repeat with this period in the seed, so that ``golden.json`` can
#: pin the expected output of every input a run may get.
VARIANTS = 16

#: Simulated statistics of one run that a host-speed change must leave
#: bit-identical; their digest is what determinism and golden checks compare.
STAT_FIELDS = (
    "time_cycles",
    "events_processed",
    "injected_packets",
    "delivered_packets",
    "final_deliveries",
    "forwarded_packets",
    "injected_wire_bytes",
    "total_hops",
    "mean_final_latency",
    "max_final_latency",
    "peak_forward_backlog",
    "lost_packets",
    "retransmitted_packets",
    "duplicate_packets",
    "rerouted_hops",
)

#: Strategies whose every packet is a final delivery, so the expected count
#: is p(p-1) times the packets of one message, independent of the program.
DIRECT = ("AR", "DR")


@dataclass
class Outcome:
    """What one timed call did, checked."""

    #: Operations attempted: simulation points requested.
    points: int
    #: Points the runner could not complete.
    failed: int
    #: Events of the freshly simulated points.
    events: int
    #: Digest of the simulated statistics (or table rows).
    digest: str
    #: Failed correctness checks, one line each.
    problems: list
    #: Distinct simulated runs, for the per-layer counts.
    runs: list


@dataclass(frozen=True)
class Workload:
    name: str
    #: variant -> inputs.  Runs in set-up, so it is part of ``setup_s``.
    make_inputs: Callable[[int], Any]
    #: (inputs, jobs, scratch dir) -> raw result.  The only timed code.
    call: Callable[[Any, int, str], Any]
    #: (inputs, raw result, runner counter delta) -> Outcome.  Untimed.
    check: Callable[[Any, Any, dict], Outcome]
    #: Worker processes of the untraced call; traced calls use 1.
    jobs: int = 1


def digest(obj: Any) -> str:
    """Stable short digest of JSON-able data (floats by exact repr)."""
    text = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_plain
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(obj: Any) -> Any:
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON-able")


def run_stats(run) -> list:
    r = run.result
    return [run.strategy, list(run.shape.dims), run.msg_bytes] + [
        getattr(r, f) for f in STAT_FIELDS
    ]


def delivery_problems(runs) -> list:
    """Direct runs must deliver p(p-1) messages' worth of packets."""
    out = []
    for run in runs:
        if run.strategy not in DIRECT:
            continue
        p = run.shape.nnodes
        want = p * (p - 1) * len(run.params.packetize_message(run.msg_bytes))
        got = run.result.final_deliveries
        if got != want:
            out.append(
                f"{run.strategy}@{run.shape.label}/{run.msg_bytes}B: "
                f"{got} final deliveries, expected {want}"
            )
    return out


def _outcome(points, failed, events, digest_of, problems, runs) -> Outcome:
    return Outcome(points, failed, events, digest(digest_of), problems, runs)


_COUNTERS = ("simulated", "cache_hits", "cache_stores", "retries", "sim_events")


def counter_mark() -> tuple:
    """The runner's process-wide counters, to diff around one call."""
    return tuple(getattr(counters, c) for c in _COUNTERS) + (
        len(counters.point_keys),
        len(counters.failures),
    )


def counter_delta(mark: tuple) -> dict:
    now = counter_mark()
    delta = dict(zip(_COUNTERS, (b - a for a, b in zip(mark, now))))
    delta["points"] = now[-2] - mark[-2]
    delta["failures"] = now[-1] - mark[-1]
    delta["keys"] = counters.point_keys[mark[-2]:]
    return delta


# --------------------------------------------------------------------- #
# ar: the pristine simulator core
# --------------------------------------------------------------------- #


def ar_core(spec: str = "8x4x4", msg: int = 64) -> Workload:
    shape = TorusShape.parse(spec)

    def make_inputs(variant: int):
        return ARDirect(), variant

    def call(inputs, jobs, scratch):
        strategy, seed = inputs
        return simulate_alltoall(strategy, shape, msg, seed=seed)

    def check(inputs, run, delta):
        events = run.result.events_processed
        return _outcome(
            1, 0, events, run_stats(run), delivery_problems([run]), [run]
        )

    return Workload(
        name=f"ar_{spec}",
        make_inputs=make_inputs,
        call=call,
        check=check,
    )


# --------------------------------------------------------------------- #
# paper: experiment drivers on the plain sequential runner path
# --------------------------------------------------------------------- #

#: The paper experiments that regenerate in under ~2 s each at tiny scale.
#: They cover AR, TPS and VMesh, short and long messages and the
#: model-only Figure 5; Tables 2-3 and Figures 3-4 take 5-20 s each and
#: are left to the fidelity pass.
PAPER_IDS = (
    "fig1_ar_midplane",
    "fig2_ar_4096",
    "tab1_symmetric",
    "fig5_vmesh_pred",
    "fig6_compare_512",
    "fig7_compare_4096",
)


def paper_cold(ids: tuple = PAPER_IDS, name: str = "paper_tiny_cold") -> Workload:
    def make_inputs(variant: int):
        return variant

    def call(seed, jobs, scratch):
        return [
            run_experiment(i, scale="tiny", seed=seed, jobs=jobs) for i in ids
        ]

    def check(seed, results, delta):
        problems = [
            f"{r.exp_id}: no rows" for r in results if not r.rows
        ]
        runs = []
        for key in dict.fromkeys(delta["keys"]):
            payload = cache_get(key)
            if payload is None:
                problems.append(f"point {key[:12]} missing from the cache")
            else:
                runs.append(decode_run(payload))
        problems += delivery_problems(runs)
        return _outcome(
            delta["points"],
            sum(len(r.failures) for r in results),
            delta["sim_events"],
            [[r.exp_id, r.rows] for r in results],
            problems,
            runs,
        )

    return Workload(
        name=name,
        make_inputs=make_inputs,
        call=call,
        check=check,
    )


# --------------------------------------------------------------------- #
# faulty + observed + checked
# --------------------------------------------------------------------- #


def faulty_observed(spec: str = "8x4x4", msg: int = 64) -> Workload:
    shape = TorusShape.parse(spec)

    def make_inputs(variant: int):
        plan = FaultPlan.random(
            shape, seed=variant, dead_link_fraction=0.05, loss_prob=0.01
        )
        point = SimPoint(ARDirect(), shape, msg, seed=variant, faults=plan)
        obs = ObsConfig(metrics=True, link_stats=True, profile=True)
        return point, obs, CheckConfig()

    def call(inputs, jobs, scratch):
        point, obs, check_cfg = inputs
        with observe(obs) as entries:
            sweep = run_sweep([point], jobs=jobs, obs=obs, check=check_cfg)
        _, sidecar = write_report(scratch, entries, title=f"faulty {spec}")
        return sweep, sidecar

    def check(inputs, raw, delta):
        sweep, sidecar = raw
        runs = [r for r in sweep.runs if r is not None]
        problems = delivery_problems(runs)
        with open(sidecar, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        pct = [p.get("summary", {}).get("percent_of_peak") for p in points]
        if len(pct) != 1 or not isinstance(pct[0], float) or not math.isfinite(pct[0]):
            problems.append(f"report percent_of_peak is {pct!r}")
        return _outcome(
            1,
            len(sweep.failures),
            sum(r.result.events_processed for r in runs),
            [run_stats(r) for r in runs],
            problems,
            runs,
        )

    return Workload(
        name=f"faulty_observed_{spec}",
        make_inputs=make_inputs,
        call=call,
        check=check,
    )


# --------------------------------------------------------------------- #
# many small points: fixed per-point costs on the pooled path
# --------------------------------------------------------------------- #

SWEEP_SHAPES = ("2x2x2", "4x2x2", "4x4x2")
SWEEP_SIZES = (1, 8, 64, 256)
SWEEP_SEEDS = 5


def sweep_small(
    shapes: tuple = SWEEP_SHAPES,
    seeds: int = SWEEP_SEEDS,
    name: str = "sweep_small_points",
) -> Workload:
    def make_inputs(variant: int):
        strategies = (ARDirect(), DRDirect(), TwoPhaseSchedule(), VirtualMesh2D())
        return [
            SimPoint(s, TorusShape.parse(spec), m, seed=variant * seeds + k)
            for spec in shapes
            for s in strategies
            for m in SWEEP_SIZES
            for k in range(seeds)
        ]

    def call(points, jobs, scratch):
        cold = run_sweep(points, jobs=jobs)
        before_warm = counters.simulated
        warm = run_sweep(points, jobs=jobs)
        return cold, warm, counters.simulated - before_warm

    def check(points, raw, delta):
        cold, warm, warm_simulated = raw
        runs = [r for r in cold.runs if r is not None]
        problems = delivery_problems(runs)
        if warm_simulated:
            problems.append(f"warm pass simulated {warm_simulated} point(s)")
        if [encode_run(r) for r in warm.runs if r is not None] != [
            encode_run(r) for r in runs
        ]:
            problems.append("warm pass payloads differ from the cold pass")
        return _outcome(
            2 * len(points),
            len(cold.failures) + len(warm.failures),
            sum(r.result.events_processed for r in runs),
            [run_stats(r) for r in runs],
            problems,
            runs,
        )

    return Workload(
        name=name,
        make_inputs=make_inputs,
        call=call,
        check=check,
        jobs=min(2, os.cpu_count() or 1),
    )


WORKLOADS = {
    w.name: w
    for w in (ar_core(), paper_cold(), faulty_observed(), sweep_small())
}


# --------------------------------------------------------------------- #
# simulated statistics for the traced run's per-layer counts
# --------------------------------------------------------------------- #


def sim_counts(runs: list) -> dict:
    """Totals and means of the simulated statistics over *runs*."""
    axis = {a: [] for a in "xyz"}
    for run in runs:
        la = LinkAnalytics.from_result(
            run.result, run.shape, run.params.beta_cycles_per_byte
        )
        for a, pct in zip("xyz", la.axis_percent_of_peak()):
            axis[a].append(pct)

    def total(field):
        return sum(getattr(r.result, field) for r in runs)

    out = {
        "sim.events": total("events_processed"),
        "sim.cycles": total("time_cycles"),
        "sim.pct_of_peak": fmean(r.percent_of_peak for r in runs) if runs else 0.0,
    }
    for a in "xyz":
        out[f"sim.link.axis_pct_of_peak.{a}"] = fmean(axis[a]) if axis[a] else 0.0
    out["sim.forwarded_packets"] = total("forwarded_packets")
    out["sim.peak_forward_backlog"] = max(
        (r.result.peak_forward_backlog for r in runs), default=0
    )
    out["sim.mean_final_latency_cycles"] = (
        fmean(r.result.mean_final_latency for r in runs) if runs else 0.0
    )
    out["sim.lost_packets"] = total("lost_packets")
    out["sim.retransmitted_packets"] = total("retransmitted_packets")
    out["sim.duplicate_packets"] = total("duplicate_packets")
    out["sim.rerouted_hops"] = total("rerouted_hops")
    return out


# --------------------------------------------------------------------- #
# fidelity: the paper's percent-of-peak tables
# --------------------------------------------------------------------- #

#: Table id -> (simulated column, paper column) of its percent-of-peak rows.
FIDELITY_TABLES = {
    "tab1_symmetric": ("AR % of peak", "paper %"),
    "tab2_asymmetric": ("AR % of peak", "paper %"),
    "tab3_tps": ("TPS % of peak", "paper TPS %"),
}


def fidelity(jobs: int) -> dict:
    """Mean |simulated - paper| percent of peak over the Table 1-3 rows, at
    tiny scale and seed 0, the configuration the CLI runs by default."""
    rows = []
    for exp_id, (sim_col, paper_col) in FIDELITY_TABLES.items():
        result = run_experiment(exp_id, scale="tiny", seed=0, jobs=jobs)
        if result.failures:
            raise RuntimeError(f"{exp_id}: {len(result.failures)} point(s) failed")
        for row in result.rows:
            rows.append([exp_id, row["partition"], row[sim_col], row[paper_col]])
    return {
        "schema_version": SCHEMA_VERSION,
        "paper_gap_pp": fmean(abs(sim - paper) for _, _, sim, paper in rows),
        "digest": digest(rows),
        "rows": rows,
    }
