#!/usr/bin/env python3
"""Benchmark of the BG/L all-to-all simulator.

A run measures one workload for ``--seconds`` and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a cProfile run.  README.md describes the
workloads and metrics.  Run it from anywhere; it measures the ``src/`` of
the checkout it sits in::

    python3 perfbench/run.py --workload ar_8x4x4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --suite seed_a --repeat 3
    python3 perfbench/run.py --compare perfbench/results/seed_a.json perfbench/results/seed_b.json
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run temp dirs and the fidelity
#: table, which depends only on the source tree.
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paper_gap_pp": "pp",
}

PER_LAYER = {
    "api.simulate_s": "s",
    "strategies.build_program_s": "s",
    "net.build_network_s": "s",
    "net.run_s": "s",
    "net.ns_per_event": "ns",
    "runner.sweep_s": "s",
    "runner.overhead_ms_per_point": "ms",
    "runner.codec_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.point_key_s": "s",
    "experiments.driver_s": "s",
    "experiments.other_s": "s",
    "model.s": "s",
    "obs.report_s": "s",
    **{name: "fraction" for name in (
        "prof.net.simulator",
        "prof.net.faultsim",
        "prof.net.instrumented",
        "prof.net.packet",
        "prof.net.other",
        "prof.check",
        "prof.obs",
        "prof.strategies",
        "prof.runner",
        "prof.model",
        "prof.experiments",
        "prof.other",
        "trace.overhead_frac",
        "trace.residual_frac",
    )},
    **{name: "count" for name in (
        "runner.points",
        "runner.simulated",
        "runner.cache_hits",
        "runner.cache_stores",
        "runner.points_failed",
        "runner.retries",
        "sim.events",
    )},
    "sim.cycles": "cycles",
    "sim.pct_of_peak": "%",
    "sim.link.axis_pct_of_peak.x": "%",
    "sim.link.axis_pct_of_peak.y": "%",
    "sim.link.axis_pct_of_peak.z": "%",
    "sim.forwarded_packets": "count",
    "sim.peak_forward_backlog": "count",
    "sim.mean_final_latency_cycles": "cycles",
    "sim.lost_packets": "count",
    "sim.retransmitted_packets": "count",
    "sim.duplicate_packets": "count",
    "sim.rerouted_hops": "count",
}


def use_env(tmp: Path) -> None:
    """Set this process's environment, which its children inherit: no
    inherited ``REPRO_*`` knobs, no progress telemetry, temp files in
    *tmp*."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_PROGRESS"] = "0"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def cpu_seconds() -> float:
    """CPU of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# set-up and fidelity, in fresh interpreters
# --------------------------------------------------------------------- #


def probe_setup(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the simulator and make
    the workload's inputs."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return last_json(out.stdout)["setup_s"]


def fidelity_record() -> dict:
    """The Table 1-3 fidelity of this source tree, computed by the first
    run in a checkout (in a child, so its memory stays out of
    ``peak_rss_mb``) and read back by every later run."""
    path = WORK / "build" / f"fidelity-{source_digest()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--build-fidelity", str(path)],
            stdout=subprocess.DEVNULL,
        )
        try:
            code = child.wait(timeout=850)
        finally:
            # SIGTERM, not SIGKILL, so the child stops its pool workers.
            if child.poll() is None:
                child.terminate()
                child.wait()
        if code != 0:
            raise RuntimeError(f"fidelity build exited with {code}")
    return json.loads(path.read_text())


def build_fidelity(path: Path) -> None:
    import workloads as wl

    with tempfile.TemporaryDirectory(dir=WORK) as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        record = wl.fidelity(jobs=min(2, os.cpu_count() or 1))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    os.replace(tmp, path)


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #


@dataclass
class Call:
    wall: float
    cpu: float
    outcome: object
    delta: dict


def timed_call(w, inputs, jobs: int, scratch: Path, profiler=None) -> Call:
    """One call of the workload on an empty result cache, then its checks."""
    import workloads as wl

    op_dir = Path(tempfile.mkdtemp(dir=scratch))
    os.environ["REPRO_CACHE_DIR"] = str(op_dir / "cache")
    mark = wl.counter_mark()
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    raw = w.call(inputs, jobs, str(op_dir))
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    delta = wl.counter_delta(mark)
    outcome = w.check(inputs, raw, delta)
    shutil.rmtree(op_dir)
    return Call(wall, cpu, outcome, delta)


def expected_digests() -> dict:
    """Golden digests for the running codec schema (empty when a schema
    bump has made them stale: outputs are then checked for determinism
    and invariants only)."""
    from repro.runner import SCHEMA_VERSION

    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text()).get(str(SCHEMA_VERSION), {})


def single_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    use_env(scratch)
    try:
        setup = [] if trace else [
            probe_setup(name, seed) for _ in range(SETUP_SAMPLES)
        ]
        fid = fidelity_record()
        return measure(name, seed, seconds, trace, setup, fid, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(name, seed, seconds, trace, setup, fid, scratch) -> dict:
    import layers
    import workloads as wl

    w = wl.WORKLOADS[name]
    variant = seed % wl.VARIANTS
    inputs = w.make_inputs(variant)
    profiler = cProfile.Profile() if trace else None
    jobs = 1 if trace else w.jobs

    # Whole rounds until the next would overrun: an untraced call, and with
    # --trace a traced one after it.  Only the first call keeps its runs,
    # for the per-layer counts, so peak_rss_mb does not grow with the
    # number of calls that fit.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        call = timed_call(w, inputs, jobs, scratch)
        if plain:
            call.outcome.runs = []
        plain.append(call)
        if profiler is not None:
            traced.append(timed_call(w, inputs, jobs, scratch, profiler))
            traced[-1].outcome.runs = []
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    golden = expected_digests()
    want = golden.get(w.name, [None] * wl.VARIANTS)[variant]
    want = want or plain[0].outcome.digest
    attempted = failed = 0
    for call in plain + traced:
        o = call.outcome
        problems = list(o.problems)
        if o.digest != want:
            problems.append(f"output digest {o.digest}, expected {want}")
        attempted += o.points
        failed += o.points if problems else o.failed
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
    fid_ok = golden.get("fidelity", fid["digest"]) == fid["digest"]
    if not fid_ok:
        print(f"fidelity rows digest {fid['digest']} differs from golden",
              file=sys.stderr)

    med = statistics.median
    if trace:
        first = plain[0]
        profiler.create_stats()
        stats = profiler.stats
        metrics = layers.layer_times(
            stats, len(traced), first.delta["points"], first.outcome.events
        )
        metrics.update(layers.self_shares(stats))
        metrics["trace.overhead_frac"] = (
            med(c.wall for c in traced) / med(c.wall for c in plain) - 1
        )
        metrics["trace.residual_frac"] = 1 - layers.total_self(stats) / sum(
            c.wall for c in traced
        )
        d = first.delta
        metrics.update({
            "runner.points": d["points"],
            "runner.simulated": d["simulated"],
            "runner.cache_hits": d["cache_hits"],
            "runner.cache_stores": d["cache_stores"],
            "runner.points_failed": d["failures"],
            "runner.retries": d["retries"],
        })
        metrics.update(wl.sim_counts(first.outcome.runs))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": med(setup),
            "wall_s": med(c.wall for c in plain),
            "cpu_s": med(c.cpu for c in plain),
            "events_per_s": med(c.outcome.events / c.cpu for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "paper_gap_pp": fid["paper_gap_pp"],
        }
        units = END_TO_END
    return {
        "correct": failed == 0 and fid_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


# --------------------------------------------------------------------- #
# suites of runs and their comparison
# --------------------------------------------------------------------- #


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list) -> dict:
    out = {"min": min(values), "median": statistics.median(values), "max": max(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / out["median"] if out["median"] else 0.0
    return out


def provenance(seed: int, repeat: int, seconds: float, trace: int) -> dict:
    from repro.runner import SCHEMA_VERSION

    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        git = "unknown"
    return {
        "git": git,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "repeat": repeat,
        "seconds": seconds,
        "trace": trace,
    }


def suite(label: str, seed: int, repeat: int, seconds: float, trace: int) -> int:
    """*repeat* rounds over every workload, each run in a fresh interpreter
    with seed ``seed + round``; writes ``results/<label>.json``."""
    names = [w["name"] for w in spec()["workloads"]]
    runs = {n: [] for n in names}
    ok = True
    for r in range(repeat):
        for n in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", n,
                   "--seed", str(seed + r), "--seconds", str(seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            rec = dict(last_json(out.stdout), seed=seed + r)
            ok &= rec["correct"] and rec["failed"] == 0
            runs[n].append(rec)
            print(f"round {r + 1}/{repeat} {n}: correct={rec['correct']}",
                  file=sys.stderr)
    doc = {"provenance": provenance(seed, repeat, seconds, trace), "workloads": {}}
    for n in names:
        metrics = {}
        for m, meta in runs[n][0]["metrics"].items():
            vals = [rec["metrics"][m]["value"] for rec in runs[n]]
            metrics[m] = {"unit": meta["unit"], "values": vals, **summarize(vals)}
            print(f"{n:24s} {m:32s} {metrics[m]['median']:>14.6g} {meta['unit']}")
        doc["workloads"][n] = {
            "attempted": sum(rec["attempted"] for rec in runs[n]),
            "failed": sum(rec["failed"] for rec in runs[n]),
            "correct": all(rec["correct"] for rec in runs[n]),
            "metrics": metrics,
        }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if ok else 1


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """better / worse / within-bound / unresolved for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        # Too noisy to call, unless every run of B beats every run of A.
        if better == "lower":
            beats = max(b["values"]) < min(a["values"])
        else:
            beats = min(b["values"]) > max(a["values"])
        return "better" if beats else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within-bound"


def compare(path_a: str, path_b: str) -> int:
    a_doc = json.loads(Path(path_a).read_text())
    b_doc = json.loads(Path(path_b).read_text())
    worse = False
    for n, b_w in b_doc["workloads"].items():
        a_w = a_doc["workloads"].get(n)
        if a_w is None:
            continue
        for m in spec()["end_to_end"]:
            a, b = a_w["metrics"].get(m["name"]), b_w["metrics"].get(m["name"])
            if a is None or b is None:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            worse |= v == "worse"
            print(f"{n:24s} {m['name']:14s} {a['median']:>12.6g} -> "
                  f"{b['median']:<12.6g} {m['unit']:6s} {v}")
        a_frac = a_w["failed"] / max(a_w["attempted"], 1)
        b_frac = b_w["failed"] / max(b_w["attempted"], 1)
        if b_frac > a_frac or not b_w["correct"]:
            print(f"{n:24s} failed {a_frac:.4g} -> {b_frac:.4g}, correct={b_w['correct']}")
            worse = True
    return 1 if worse else 0


# --------------------------------------------------------------------- #
# golden outputs
# --------------------------------------------------------------------- #


def write_golden() -> int:
    """Pin the output digest of every workload input, and of the fidelity
    rows, under the running codec schema."""
    import workloads as wl
    from repro.runner import SCHEMA_VERSION

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="golden-"))
    use_env(scratch)
    try:
        entry = {}
        for w in wl.WORKLOADS.values():
            entry[w.name] = []
            for variant in range(wl.VARIANTS):
                call = timed_call(w, w.make_inputs(variant), w.jobs, scratch)
                if call.outcome.problems or call.outcome.failed:
                    print(f"{w.name} variant {variant}: {call.outcome.problems}",
                          file=sys.stderr)
                    return 1
                entry[w.name].append(call.outcome.digest)
                print(f"{w.name} {variant} {call.outcome.digest}", file=sys.stderr)
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "fidelity")
        entry["fidelity"] = wl.fidelity(jobs=min(2, os.cpu_count() or 1))["digest"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    doc[str(SCHEMA_VERSION)] = entry
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload (see BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", metavar="LABEL",
                    help="run every workload --repeat times, write results/LABEL.json")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="verdict per workload and metric for results B against A")
    ap.add_argument("--write-golden", action="store_true",
                    help="pin the output digests of the current code")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--build-fidelity", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # Unwind on SIGTERM, so the runner stops its pool workers and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        t0 = time.perf_counter()
        import workloads as wl

        wl.WORKLOADS[args.workload].make_inputs(args.seed % wl.VARIANTS)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.build_fidelity:
        build_fidelity(Path(args.build_fidelity))
        return 0
    if args.write_golden:
        return write_golden()
    seconds = args.seconds or spec()["run_seconds"]
    if args.suite:
        return suite(args.suite, args.seed, args.repeat, seconds, args.trace)
    if args.workload not in {w["name"] for w in spec()["workloads"]}:
        ap.error("--workload must be one of BENCHMARK.json's workloads")
    result = single_run(args.workload, args.seed, seconds, bool(args.trace))
    for k, v in result["metrics"].items():
        print(f"{k:32s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
