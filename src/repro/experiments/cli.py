"""Command-line entry point: ``bgl-alltoall`` / ``repro-experiments``.

Run paper experiments and ablations from the shell::

    bgl-alltoall list
    bgl-alltoall run tab3_tps --scale small
    bgl-alltoall run all --scale tiny --jobs 4
    bgl-alltoall run fig1_ar_midplane --scale tiny \\
        --trace trace.json --metrics metrics.json

``--jobs N`` fans independent simulation points over N worker processes
(default: the ``REPRO_JOBS`` env var, else 1); the rendered tables are
byte-identical for any job count.  Results are cached on disk under
``REPRO_CACHE_DIR`` (default ``~/.cache/repro``); ``--no-cache`` or
``REPRO_CACHE=0`` disables the cache.

Observability (DESIGN.md section 10): ``--trace PATH`` records packet
lifecycle events for every simulated point — a ``.json`` path gets a
Chrome trace-event file you can drop into https://ui.perfetto.dev, any
other extension gets JSONL.  ``--metrics PATH`` writes the per-point
metrics (per-axis link-utilization time series, latency histograms,
queue/FIFO gauges) plus a cross-point aggregate as JSON.  ``--report
DIR`` writes a self-contained HTML run report + JSON sidecar (per-axis
percent-of-peak utilization with heatmaps, phase bandwidth, congestion
hot-spots, analytic-model diff, provenance) covering every point of the
invocation — see DESIGN.md section 14.  Observed runs bypass the result
cache so they always simulate.  ``--cache-stats`` prints runner cache
counters; ``-v``/``-q`` control log verbosity.

Verification (DESIGN.md section 11): ``--check`` reruns every simulation
on the invariant-checked network — packet conservation, exactly-once
delivery, credit non-negativity, stuck-queue audits and per-strategy
phase invariants raise immediately on violation.  Checked runs bypass
the result cache in both directions (a cached result was never checked).

Resilience (DESIGN.md section 12): every completed point lands in the
result cache as it finishes, so after a crash or Ctrl-C re-running the
same command simulates only the missing points — the merged results are
bit-identical to an uninterrupted run (a private ``REPRO_CACHE_DIR``
makes a self-contained checkpoint).  SIGTERM is handled like Ctrl-C
for the whole ``run``: the sweep unwinds through its cleanup, prints
how to resume and exits 130.  ``--point-timeout S`` (or
``REPRO_POINT_TIMEOUT``) bounds each point's wall clock; ``--retries
N`` bounds reschedules of timed-out/crashed points.
``REPRO_CHAOS=kill:0.1,hang:0.05,seed=0`` injects deterministic worker
deaths and stalls to exercise the supervision layer.  A point timeout
or ``REPRO_CHAOS`` runs the points on worker processes even with
``--jobs 1`` (on one worker then), so the parent can kill a point that
overruns its limit.

Telemetry (DESIGN.md section 15): a live sweep status line (TTY) or
periodic progress log lines (elsewhere) render by default, built from
the supervisor's own events — ``--no-progress`` or ``REPRO_PROGRESS=0``
disables, ``--quiet`` implies off.  ``--profile PATH`` runs the
phase-level time profiler and writes per-point + aggregate phase
attributions as JSON (with ``--trace *.json`` the phase spans also land
in the Chrome trace).

A bad run setting — an unknown experiment id, a flag value, an output
file that is a directory or sits in a missing one, or ``REPRO_SCALE``,
``REPRO_JOBS``, ``REPRO_POINT_TIMEOUT`` or ``REPRO_CHAOS`` — exits 2
with a usage error before any point runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time

from repro.experiments.registry import ALL, EXPERIMENTS, run_experiment


def _write_obs_outputs(
    collected, trace_path, metrics_path, profile_path=None
) -> None:
    """Write trace/metrics/profile files from the per-point payloads."""
    from repro.obs.metrics import aggregate_metrics
    from repro.obs.tracer import write_chrome_trace, write_jsonl

    if trace_path:
        traces = [c for c in collected if "trace" in c]
        if trace_path.endswith(".json"):
            # Phase-profile span tracks ride in the same Perfetto view
            # as the packet tracks when both layers are on.
            extra = []
            if profile_path:
                from repro.obs.profile import profile_chrome_events

                for i, c in enumerate(collected):
                    if "profile" in c:
                        extra.extend(
                            profile_chrome_events(
                                c["profile"],
                                pid=10_000_000 + i,
                                label=c["point"],
                            )
                        )
            write_chrome_trace(
                [c["trace"] for c in traces],
                trace_path,
                labels=[c["point"] for c in traces],
                extra_records=extra or None,
            )
        else:
            with open(trace_path, "w", encoding="utf-8") as fh:
                for c in traces:
                    write_jsonl(c["trace"], fh, point=c["point"])
        print(f"trace: {len(traces)} point(s) -> {trace_path}")
    if profile_path:
        from repro.obs.profile import merge_profiles

        per_point = [c for c in collected if "profile" in c]
        doc = {
            "points": [
                {"point": c["point"], "profile": c["profile"]}
                for c in per_point
            ],
            "aggregate": merge_profiles([c["profile"] for c in per_point]),
        }
        with open(profile_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"profile: {len(per_point)} point(s) -> {profile_path}")
    if metrics_path:
        per_point = [c for c in collected if "metrics" in c]
        doc = {
            "points": [
                {"point": c["point"], "metrics": c["metrics"]}
                for c in per_point
            ],
            "aggregate": aggregate_metrics(
                [c["metrics"] for c in per_point]
            ),
        }
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"metrics: {len(per_point)} point(s) -> {metrics_path}")


def _print_cache_stats() -> None:
    from repro.runner.pool import counters

    print(
        "cache: "
        f"{counters.cache_hits} hit(s), "
        f"{counters.cache_misses} miss(es), "
        f"{counters.cache_stores} store(s), "
        f"{counters.cache_corrupt} corrupt; "
        f"{counters.simulated} point(s) simulated"
    )
    if counters.retries or counters.timeouts or counters.crashes:
        print(
            "supervision: "
            f"{counters.retries} retr{'y' if counters.retries == 1 else 'ies'}, "
            f"{counters.timeouts} timeout(s), "
            f"{counters.crashes} crash(es)"
        )


@contextlib.contextmanager
def _sigterm_interrupts():
    """Raise ``KeyboardInterrupt`` on SIGTERM inside the block.

    A killed run then unwinds through ``run_sweep``'s cleanup (pool
    workers killed) and prints the resume message, like Ctrl-C, instead
    of dying mid-state.  The previous handler is restored on exit, so an
    in-process caller keeps its own.
    """

    def _raise(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    prev = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, prev)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bgl-alltoall",
        description="Reproduce the BG/L all-to-all paper's tables/figures.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="errors only",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="list experiment ids")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument(
        "exp_id",
        choices=[*ALL, "all"],
        metavar="EXP_ID",
        help="experiment id (see 'list'), or 'all'",
    )
    runp.add_argument("--scale", default=None, choices=["tiny", "small", "full"])
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent simulation points "
        "(default: REPRO_JOBS env var, else 1; 0 = all cores)",
    )
    runp.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    runp.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record packet lifecycle events; .json = Chrome trace "
        "(Perfetto-loadable), anything else = JSONL",
    )
    runp.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="trace every Nth packet (deterministic, by packet id)",
    )
    runp.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write per-point + aggregate metrics JSON "
        "(per-axis utilization time series, latency histograms, gauges)",
    )
    runp.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="write a self-contained HTML run report + JSON sidecar to "
        "DIR (per-axis percent-of-peak utilization heatmaps, phase "
        "bandwidth, congestion hot-spots, analytic-model diff; one "
        "comparative report across every experiment of this "
        "invocation); implies link-stats collection",
    )
    runp.add_argument(
        "--check",
        action="store_true",
        help="run every simulation on the invariant-checked network "
        "(repro.check oracles; bypasses the result cache)",
    )
    runp.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit per simulation point (default: "
        "REPRO_POINT_TIMEOUT env var, else derived from shape/message "
        "size under REPRO_CHAOS); the points then run on worker "
        "processes, one worker with --jobs 1",
    )
    runp.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="max reschedules of a timed-out or crashed point "
        "(default 4); deterministic exponential backoff, no jitter",
    )
    runp.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="run the phase-level time profiler and write per-point + "
        "aggregate phase attributions (busy cycles per phase/axis, "
        "spans, wall/CPU estimates) as JSON; with --trace *.json the "
        "phase spans also land in the Chrome trace",
    )
    runp.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="force the live sweep progress renderer on "
        "(default: on unless --quiet or REPRO_PROGRESS=0)",
    )
    runp.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="disable the live sweep progress renderer",
    )
    runp.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss/store/corrupt counters after the run",
    )
    runp.add_argument(
        "--provenance",
        action="store_true",
        help="print each experiment's provenance record",
    )
    args = parser.parse_args(argv)

    from repro.obs.logconf import setup_logging

    setup_logging(-1 if args.quiet else args.verbose)

    if args.cmd == "list":
        for eid in ALL:
            kind = "paper" if eid in EXPERIMENTS else "ablation"
            print(f"{eid:24s} [{kind}]")
        return 0

    from repro.experiments.common import resolve_scale
    from repro.obs.config import ObsConfig
    from repro.runner.pool import counters, resolve_jobs
    from repro.runner.supervise import SuperviseConfig, supervising

    sup_overrides: dict = {}
    if args.point_timeout is not None:
        sup_overrides["point_timeout_s"] = args.point_timeout
    if args.retries is not None:
        sup_overrides["max_attempts"] = args.retries + 1
    # Every run setting is checked here, before any point runs: a bad
    # flag value or env knob gets the same usage error as an unparsable
    # flag.
    try:
        scale = resolve_scale(args.scale)
        jobs = resolve_jobs(args.jobs)
        obs_cfg = ObsConfig(
            trace=bool(args.trace),
            trace_sample=args.trace_sample,
            # The report needs the utilization timeseries + link stats.
            metrics=bool(args.metrics or args.report),
            link_stats=bool(args.report),
            profile=bool(args.profile),
        )
        sup_cfg = SuperviseConfig.from_env(**sup_overrides)
        # Observed runs bypass the cache: an output that cannot be
        # written would lose every simulated point.
        for flag, path in (
            ("--trace", args.trace),
            ("--metrics", args.metrics),
            ("--profile", args.profile),
        ):
            parent = os.path.dirname(path or "") or "."
            if path and (os.path.isdir(path) or not os.path.isdir(parent)):
                raise ValueError(f"{flag}: cannot write a file at {path!r}")
        report = args.report
        if report and os.path.exists(report) and not os.path.isdir(report):
            raise ValueError(f"--report: {report!r} is not a directory")
    except (TypeError, ValueError) as exc:
        runp.error(str(exc))

    env: dict[str, str] = {}
    if args.no_cache:
        env["REPRO_CACHE"] = "0"
    if args.progress is not None:
        env["REPRO_PROGRESS"] = "1" if args.progress else "0"

    ids = list(ALL) if args.exp_id == "all" else [args.exp_id]

    # Counters are process-global; reset so --cache-stats reflects this
    # invocation only (matters when main() is called in-process, as the
    # tests do — a shell invocation is always a fresh process anyway).
    counters.reset()

    if obs_cfg.enabled:
        from repro.obs.context import observe

        ctx = observe(obs_cfg)
    else:
        ctx = contextlib.nullcontext([])

    if args.check:
        from repro.check.config import CheckConfig
        from repro.check.context import checking

        chk_ctx = checking(CheckConfig())
    else:
        chk_ctx = contextlib.nullcontext()

    sup_ctx = supervising(sup_cfg)

    # Pool workers inherit the settings; the caller gets its own values
    # back, so its later in-process sweeps are not left uncached or silent.
    prev_env = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        with _sigterm_interrupts(), ctx as collected, chk_ctx, sup_ctx:
            results = []
            for eid in ids:
                t0 = time.time()
                result = run_experiment(
                    eid, scale=scale, seed=args.seed, jobs=jobs
                )
                results.append(result)
                print(result.render())
                print(f"  ({time.time() - t0:.1f}s)\n")
                if args.provenance and result.provenance is not None:
                    print(
                        json.dumps(result.provenance, indent=2, sort_keys=True)
                    )
                    print()
            if obs_cfg.enabled:
                _write_obs_outputs(
                    collected, args.trace, args.metrics, args.profile
                )
            if args.report:
                from repro.obs.report import write_report

                title = (
                    f"Run report: {', '.join(ids)} "
                    f"(scale={scale}, seed={args.seed})"
                )
                html_path, json_path = write_report(
                    args.report, collected, results, title=title
                )
                print(f"report: {html_path} + {json_path}")
    except KeyboardInterrupt:
        from repro.runner.cache import cache_enabled, cache_root

        if cache_enabled():
            print(
                "\ninterrupted — completed points are cached under "
                f"{cache_root()}; re-run the same command to resume",
                file=sys.stderr,
            )
        else:
            print("\ninterrupted", file=sys.stderr)
        return 130
    finally:
        for k, v in prev_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    if args.cache_stats:
        _print_cache_stats()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
