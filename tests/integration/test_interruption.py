"""End-to-end interruption drills: SIGINT mid-sweep, chaos worker kills,
torn cache entries — resumed runs must be bit-identical to uninterrupted
ones.  Resuming is re-running the same command: completed points are
served from the result cache.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Stall harness: runs the real CLI but wedges the sweep after the first
#: two points have completed, so the parent can SIGINT a mid-sweep run
#: at a deterministic spot.  Patching ``_simulate_encoded`` on the pool
#: module is visible to the sequential supervised path (workers import
#: it by attribute at call time).
_STALL_HARNESS = """
import sys, time
import repro.runner.pool as pool_mod
from repro.experiments.cli import main

orig = pool_mod._simulate_encoded
completed = 0

def gated(point, obs, check):
    global completed
    if completed >= 2:
        print("STALLED", flush=True)
        time.sleep(300)
    completed += 1
    return orig(point, obs, check)

pool_mod._simulate_encoded = gated
sys.exit(main(sys.argv[1:]))
"""

_TIMING_RE = re.compile(r"^\s*\(\d+(\.\d+)?s\)$")


def _env(tmp_path, **extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE"] = "0"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_POINT_TIMEOUT", None)
    env.pop("REPRO_JOBS", None)
    env.update(extra)
    return env


def _entries(cache: Path) -> list[Path]:
    """The result-cache entries under *cache*."""
    return sorted(cache.rglob("*.json"))


def _table_lines(stdout: str) -> list[str]:
    """CLI output minus the wall-time line (the only nondeterminism)."""
    return [
        ln
        for ln in stdout.splitlines()
        if ln.strip() and not _TIMING_RE.match(ln)
        and not ln.startswith(("cache:", "supervision:"))
    ]


def _run_cli(args, env, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def clean_output(tmp_path_factory):
    """The uninterrupted --jobs 1 reference table for fig1 tiny."""
    tmp = tmp_path_factory.mktemp("clean")
    proc = _run_cli(
        ["run", "fig1_ar_midplane", "--scale", "tiny", "--jobs", "1"],
        _env(tmp),
    )
    assert proc.returncode == 0, proc.stderr
    return _table_lines(proc.stdout)


class TestSigintResume:
    def test_sigint_mid_sweep_then_resume_is_bit_identical(
        self, tmp_path, clean_output
    ):
        cache = tmp_path / "cache"
        env = _env(tmp_path, REPRO_CACHE="1")
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _STALL_HARNESS,
                "run",
                "fig1_ar_midplane",
                "--scale",
                "tiny",
            ],
            cwd=REPO,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait for the harness to report it is wedged mid-sweep.
            deadline = time.monotonic() + 120
            for line in child.stdout:
                if "STALLED" in line:
                    break
                assert time.monotonic() < deadline, "harness never stalled"
            child.send_signal(signal.SIGINT)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        _, err = child.communicate()
        assert child.returncode == 130
        assert f"cached under {cache}" in err
        assert "re-run the same command to resume" in err
        # Two completed points were cached before the interrupt.
        assert len(_entries(cache)) == 2

        resumed = _run_cli(
            ["run", "fig1_ar_midplane", "--scale", "tiny", "--cache-stats"],
            env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert _table_lines(resumed.stdout) == clean_output
        # Only the two missing points simulated; two came from the cache.
        assert "cache: 2 hit(s)" in resumed.stdout
        assert "2 point(s) simulated" in resumed.stdout
        assert len(_entries(cache)) == 4


class TestChaosWorkerKill:
    @pytest.mark.slow
    def test_pooled_sweep_survives_sigkilled_workers(
        self, tmp_path, clean_output
    ):
        proc = _run_cli(
            [
                "run",
                "fig1_ar_midplane",
                "--scale",
                "tiny",
                "--jobs",
                "2",
                "--retries",
                "9",
                "--cache-stats",
            ],
            # The chaos draw hashes (seed, point key, attempt) and point
            # keys embed the codec SCHEMA_VERSION, so a schema bump
            # re-rolls every draw.  Re-pick a seed that actually kills
            # at least one first attempt whenever the schema changes.
            _env(tmp_path, REPRO_CHAOS="kill:0.3,seed=2"),
        )
        assert proc.returncode == 0, proc.stderr
        assert _table_lines(proc.stdout) == clean_output
        # Chaos actually struck: the supervision summary is present.
        assert "supervision:" in proc.stdout


class TestTornCacheEntry:
    def test_truncated_cache_entry_resumes_cleanly(
        self, tmp_path, clean_output
    ):
        cache = tmp_path / "cache"
        env = _env(tmp_path, REPRO_CACHE="1")
        first = _run_cli(["run", "fig1_ar_midplane", "--scale", "tiny"], env)
        assert first.returncode == 0, first.stderr
        entries = _entries(cache)
        assert len(entries) == 4
        # Cut one entry in half, as a host crash before its bytes reached
        # the disk would.
        torn = entries[-1]
        whole = torn.read_bytes()
        torn.write_bytes(whole[: len(whole) // 2])

        resumed = _run_cli(
            ["run", "fig1_ar_midplane", "--scale", "tiny", "--cache-stats"],
            env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert _table_lines(resumed.stdout) == clean_output
        assert "1 corrupt" in resumed.stdout
        assert "1 point(s) simulated" in resumed.stdout
        # The entry was stored again, byte for byte.
        assert torn.read_bytes() == whole
