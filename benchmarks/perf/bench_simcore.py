#!/usr/bin/env python
"""Simulator-core microbenchmark and timing-regression gate.

Measures three things and writes them to ``BENCH_simcore.json`` at the
repo root.  That file is git-ignored: CI uploads it as an artifact, and
the ``perf-history`` job appends it to a cached ``BENCH_history.jsonl``
(``python -m repro.obs.history append-bench``) to track the trajectory:

* **single-point throughput** — wall time and events/second for one
  all-to-all simulation (the acceptance point is the 512-node ``8x8x8``
  adaptive-routing run at ``--scale paper``; ``--scale ci`` uses a
  ``4x4x4`` point small enough for a smoke job);
* **analytics-off overhead** — the default path against the bare core
  (see ``--check`` below);
* **sweep scaling** — wall time for a cold message-size sweep at
  ``jobs=1`` vs ``jobs=4`` through :mod:`repro.runner`, with the cache
  disabled so every point actually simulates.  On a machine with fewer
  CPUs than workers the record says ``"status": "skipped"`` and carries
  no speedup: such a ratio measures only multiprocessing overhead.

``--check`` compares the measured single-point throughput against the
committed ``baseline.json`` for the same scale and exits non-zero on a
>2x slowdown (events/second is used rather than raw wall time so the
gate tracks simulator work, not machine speed differences in the sweep
fan-out), and additionally gates the **analytics-off overhead**: the
default ``simulate_alltoall`` path (observability disabled) must stay
within 5 % of the bare ``TorusNetwork`` core on the same program — the
zero-overhead-when-disabled contract, measured rather than assumed.
Refresh the baseline with ``--write-baseline`` after an intentional
perf-relevant change, on a quiet machine.

Usage::

    python benchmarks/perf/bench_simcore.py --scale ci --check
    python benchmarks/perf/bench_simcore.py --scale paper
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import simulate_alltoall  # noqa: E402
from repro.model.torus import TorusShape  # noqa: E402
from repro.net.faultsim import build_network  # noqa: E402
from repro.net.simulator import TorusNetwork  # noqa: E402
from repro.obs.provenance import git_describe  # noqa: E402
from repro.runner import SimPoint, run_points  # noqa: E402
from repro.strategies import ARDirect  # noqa: E402

#: Layout version of the bench report / committed baseline (bumped when
#: fields change meaning; ``--check`` warns on a mismatched baseline).
BENCH_SCHEMA = 2


def bench_provenance() -> dict:
    """Where/when a bench report was measured — rides into the report,
    the merged baseline, and the run-history store's bench records."""
    return {
        "schema": BENCH_SCHEMA,
        "git": git_describe(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def assert_observability_disabled() -> None:
    """The benchmark must exercise the un-instrumented hot path.

    Both guards would trip if someone made instrumentation the default:
    the default-constructed network must be the plain class, and no
    observer (instrumentation or oracles) may be attached to it.
    """
    net = build_network(TorusShape.parse("2x2x2"))
    if type(net) is not TorusNetwork:
        raise SystemExit(
            f"bench precondition failed: build_network() returned "
            f"{type(net).__name__}, expected plain TorusNetwork"
        )
    if net._observers:
        raise SystemExit(
            f"bench precondition failed: plain network has observers "
            f"{[type(ob).__name__ for ob in net._observers]}"
        )

#: Single-point benchmark per scale: (shape, msg_bytes, seed, repeats).
POINTS = {
    "ci": ("4x4x4", 64, 1, 3),
    "paper": ("8x8x8", 64, 1, 1),
}

#: Sweep-scaling benchmark per scale: (shape, msg sizes, seed).
SWEEPS = {
    "ci": ("4x4x4", [256, 320, 384, 448], 1),
    "paper": ("8x8x4", [16, 32, 48, 64], 1),
}

SLOWDOWN_LIMIT = 2.0


def bench_single_point(scale: str) -> dict:
    spec, msg, seed, repeats = POINTS[scale]
    shape = TorusShape.parse(spec)
    best = None
    run = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = simulate_alltoall(ARDirect(), shape, msg, seed=seed)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert run is not None and best is not None
    events = run.result.events_processed
    return {
        "name": f"single_point_{scale}",
        "shape": spec,
        "msg_bytes": msg,
        "seed": seed,
        "repeats": repeats,
        "wall_s": round(best, 4),
        "events": events,
        "events_per_sec": round(events / best, 1),
        "time_cycles": run.result.time_cycles,
    }


#: Max tolerated overhead of the default (analytics-off) path over the
#: bare simulator core, as a fraction of its wall time.
ANALYTICS_OFF_LIMIT = 0.05

#: A/B sample budget per scale: (repeats, runs aggregated per sample).
#: min-of-N CPU time converges on the true floor of each leg, and both
#: legs run identical work.  A single ci-scale run is ~0.1s — short
#: enough that CPU frequency and cache state swing individual samples
#: by several percent, so ci aggregates 3 runs per sample and takes 9
#: samples; a paper-scale run is already seconds long, so 3 plain
#: samples suffice (and keep the bench under a minute).
ANALYTICS_OFF_BUDGET = {
    "ci": (9, 3),
    "paper": (3, 1),
}


def bench_analytics_overhead(scale: str) -> dict:
    """A/B gate for the zero-overhead-when-disabled contract.

    Times the network the default path selects (``build_network`` with
    no obs/check/faults — exactly what ``simulate_alltoall`` runs when
    observability is off) against a bare ``TorusNetwork`` on the *same*
    prebuilt program, interleaved, CPU-time min-of-N.  Link analytics,
    tracing and checking are all opt-in observers attached by
    ``build_network``, so the two must be within noise of each other; a
    default path that runs >5 % slower than the raw core means someone
    leaked instrumentation into the analytics-off configuration.
    """
    from repro.model.machine import MachineParams

    spec, msg, seed, _ = POINTS[scale]
    shape = TorusShape.parse(spec)
    params = MachineParams.bluegene_l()
    strategy = ARDirect()

    # Untimed warmup of both legs: the first simulation of a process
    # pays allocator growth and cold caches, which would otherwise land
    # entirely on the first timed sample.
    build_network(shape, params).run(
        strategy.build_program(shape, msg, params, seed)
    )
    TorusNetwork(shape, params).run(
        strategy.build_program(shape, msg, params, seed)
    )

    repeats, inner = ANALYTICS_OFF_BUDGET[scale]
    best_default = None
    best_core = None
    ratios = []
    events = None
    for _ in range(repeats):
        # Interleaved A/B over the identical prebuilt program, CPU time
        # (process_time is blind to scheduler preemption): only
        # net.run() is inside the timed region, so the comparison
        # measures the network class the default path selected, not
        # program-build or model-prediction noise.  The verdict uses the
        # median of *paired* per-iteration ratios — both legs of a pair
        # see the same machine state, so common-mode noise (frequency
        # scaling, cache pressure from neighbors) divides out.
        runs_default = [
            (strategy.build_program(shape, msg, params, seed),
             build_network(shape, params))
            for _ in range(inner)
        ]
        t0 = time.process_time()
        for program, net in runs_default:
            res_default = net.run(program)
        dt_default = time.process_time() - t0
        best_default = (
            dt_default if best_default is None
            else min(best_default, dt_default)
        )

        runs_core = [
            (strategy.build_program(shape, msg, params, seed),
             TorusNetwork(shape, params))
            for _ in range(inner)
        ]
        t0 = time.process_time()
        for program, net in runs_core:
            res_core = net.run(program)
        dt_core = time.process_time() - t0
        best_core = dt_core if best_core is None else min(best_core, dt_core)
        ratios.append(dt_default / dt_core)
        if res_default.events_processed != res_core.events_processed:
            raise SystemExit(
                "bench precondition failed: default path and bare core "
                "replayed different event streams "
                f"({res_default.events_processed} vs "
                f"{res_core.events_processed})"
            )
        events = res_core.events_processed
    assert best_default is not None and best_core is not None
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    floor_ratio = best_default / best_core
    # Two independent overhead estimators: the ratio of per-leg floors
    # and the median paired ratio.  A real instrumentation leak (a
    # hook in the default path) inflates both consistently; timing
    # noise rarely inflates both at once, so the gate takes the smaller
    # estimate and stays robust on loud machines.
    overhead = min(median_ratio, floor_ratio) - 1.0
    return {
        "name": f"analytics_off_overhead_{scale}",
        "shape": spec,
        "msg_bytes": msg,
        "seed": seed,
        "repeats": repeats,
        "events": events,
        "cpu_s_default": round(best_default, 4),
        "cpu_s_core": round(best_core, 4),
        "median_ratio": round(median_ratio, 4),
        "overhead_frac": round(overhead, 4),
    }


#: Worker count of the parallel leg of the sweep-scaling benchmark.
SWEEP_WORKERS = 4


def bench_sweep_scaling(scale: str) -> dict:
    spec, sizes, seed = SWEEPS[scale]
    # The worker/CPU counts are stamped into the record so a reader (and
    # --check) can tell a real scaling regression from a machine that
    # simply cannot express jobs-level parallelism.
    record = {
        "name": f"sweep_scaling_{scale}",
        "shape": spec,
        "points": len(sizes),
        "workers": SWEEP_WORKERS,
        "cpus": os.cpu_count() or 1,
    }
    if record["cpus"] < SWEEP_WORKERS:
        record["status"] = "skipped"
        record["reason"] = (
            f"{record['cpus']} cpu(s) cannot express "
            f"{SWEEP_WORKERS} workers"
        )
        return record
    shape = TorusShape.parse(spec)
    # Cache off: both runs must execute every simulation for the
    # comparison to measure the pool, not the cache.
    os.environ["REPRO_CACHE"] = "0"
    timings = {}
    for jobs in (1, SWEEP_WORKERS):
        pts = [SimPoint(ARDirect(), shape, m, seed=seed) for m in sizes]
        t0 = time.perf_counter()
        run_points(pts, jobs=jobs)
        timings[jobs] = time.perf_counter() - t0
    os.environ.pop("REPRO_CACHE", None)
    record["wall_s_jobs1"] = round(timings[1], 4)
    record["wall_s_jobs4"] = round(timings[SWEEP_WORKERS], 4)
    record["parallel_speedup"] = round(timings[1] / timings[SWEEP_WORKERS], 2)
    return record


def check(report: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    # Provenance sanity (warn-only: the numeric gates below still run —
    # a stale-layout baseline usually still has comparable numbers, but
    # the reader deserves to know the comparison crosses schema versions).
    base_schema = baseline.get("schema")
    if base_schema != report["schema"]:
        print(
            f"  WARNING: baseline schema {base_schema} != report schema "
            f"{report['schema']}; refresh with --write-baseline"
        )
    if "provenance" not in baseline:
        print(
            "  WARNING: baseline has no provenance record (predates "
            "schema 2); refresh with --write-baseline"
        )
    failures = []
    for bench in report["benchmarks"]:
        if bench.get("status") == "skipped":
            print(f"  {bench['name']}: skipped ({bench['reason']})")
            continue
        if "overhead_frac" in bench:
            # Self-contained gate (no baseline needed): the default
            # analytics-off path may not exceed the bare core by more
            # than ANALYTICS_OFF_LIMIT.
            frac = bench["overhead_frac"]
            verdict = "FAIL" if frac > ANALYTICS_OFF_LIMIT else "ok"
            print(
                f"  {bench['name']}: default path "
                f"{bench['cpu_s_default']}s vs core "
                f"{bench['cpu_s_core']}s (overhead {frac * 100:+.1f}%, "
                f"limit +{ANALYTICS_OFF_LIMIT * 100:.0f}%) [{verdict}]"
            )
            if frac > ANALYTICS_OFF_LIMIT:
                failures.append(bench["name"])
            continue
        base = base_by_name.get(bench["name"])
        if base is None:
            continue
        if "events_per_sec" in bench:
            ratio = base["events_per_sec"] / bench["events_per_sec"]
            verdict = "FAIL" if ratio > SLOWDOWN_LIMIT else "ok"
            print(
                f"  {bench['name']}: {bench['events_per_sec']:.0f} ev/s "
                f"(baseline {base['events_per_sec']:.0f}, "
                f"slowdown x{ratio:.2f}, limit x{SLOWDOWN_LIMIT}) [{verdict}]"
            )
            if ratio > SLOWDOWN_LIMIT:
                failures.append(bench["name"])
            # Sanity: the optimized core must still replay the exact same
            # event stream as when the baseline was recorded.
            if base.get("events") != bench.get("events"):
                print(
                    f"  {bench['name']}: event count changed "
                    f"{base.get('events')} -> {bench.get('events')} [FAIL]"
                )
                failures.append(bench["name"] + ":events")
        elif "parallel_speedup" in bench:
            base_sp = base.get("parallel_speedup")
            if not base_sp or base.get("cpus", 0) < base.get(
                "workers", SWEEP_WORKERS
            ):
                print(
                    f"  {bench['name']}: skipped "
                    f"(baseline recorded without usable parallelism)"
                )
                continue
            ratio = base_sp / bench["parallel_speedup"]
            verdict = "FAIL" if ratio > SLOWDOWN_LIMIT else "ok"
            print(
                f"  {bench['name']}: speedup x{bench['parallel_speedup']:.2f} "
                f"(baseline x{base_sp:.2f}, ratio x{ratio:.2f}, "
                f"limit x{SLOWDOWN_LIMIT}) [{verdict}]"
            )
            if ratio > SLOWDOWN_LIMIT:
                failures.append(bench["name"])
    if failures:
        print(f"timing regression: {', '.join(failures)}")
        return 1
    print("timing check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(POINTS), default="ci")
    ap.add_argument(
        "--output", type=Path, default=REPO / "BENCH_simcore.json"
    )
    ap.add_argument("--baseline", type=Path, default=HERE / "baseline.json")
    ap.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="PSTATS",
        help="also run the single point under cProfile and dump the raw "
        "pstats data here (CI uploads the ci-point dump as a perf-smoke "
        "artifact for hot-spot hunts)",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help=f"fail on >{SLOWDOWN_LIMIT}x slowdown vs the committed baseline",
    )
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the new committed baseline",
    )
    args = ap.parse_args(argv)

    assert_observability_disabled()
    prov = bench_provenance()
    report = {
        "schema": BENCH_SCHEMA,
        "scale": args.scale,
        "python": prov["python"],
        "machine": prov["machine"],
        "cpus": prov["cpus"],
        "provenance": prov,
        "benchmarks": [
            bench_single_point(args.scale),
            bench_analytics_overhead(args.scale),
            bench_sweep_scaling(args.scale),
        ],
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for b in report["benchmarks"]:
        print(json.dumps(b))
    print(f"wrote {args.output}")

    if args.profile is not None:
        # A separate profiled run, after the timed ones, so profiler
        # overhead never contaminates the recorded numbers.
        spec, msg, seed, _ = POINTS[args.scale]
        shape = TorusShape.parse(spec)
        pr = cProfile.Profile()
        pr.enable()
        simulate_alltoall(ARDirect(), shape, msg, seed=seed)
        pr.disable()
        pr.dump_stats(args.profile)
        print(f"wrote {args.profile}")

    if args.write_baseline:
        # Merge by benchmark name so ci- and paper-scale baselines can
        # coexist in one committed file.
        merged = dict(report)
        if args.baseline.exists():
            old = json.loads(args.baseline.read_text())
            fresh = {b["name"] for b in report["benchmarks"]}
            merged["benchmarks"] = [
                b for b in old.get("benchmarks", []) if b["name"] not in fresh
            ] + report["benchmarks"]
        args.baseline.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"wrote {args.baseline}")
    if args.check:
        return check(report, args.baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
