"""Every experiment driver is deterministic under the parallel runner.

For each driver at tiny scale: a cold ``jobs=1`` run on cache A and a
cold ``jobs=4`` run on cache B must simulate the same number of points
and produce identical rows and rendering.  Because the pooled leg has a
cache of its own, the pool really simulates rather than replaying what
the sequential leg stored.  A warm rerun on cache A must then simulate
nothing and hit the cache once per point the cold leg simulated.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import ALL, run_experiment
from repro.runner import counters


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()


def _run(exp_id: str, jobs: int, cache, monkeypatch):
    """Run *exp_id* at tiny scale on *cache* with fresh counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    counters.reset()
    return run_experiment(exp_id, scale="tiny", jobs=jobs)


@pytest.mark.parametrize("exp_id", sorted(ALL))
def test_driver_rows_identical_across_job_counts(
    exp_id: str, tmp_path, monkeypatch
) -> None:
    seq = _run(exp_id, 1, tmp_path / "a", monkeypatch)
    cold_simulated = counters.simulated
    par = _run(exp_id, 4, tmp_path / "b", monkeypatch)
    assert counters.simulated == cold_simulated, (
        f"{exp_id}: pooled cold leg simulated {counters.simulated} "
        f"point(s), sequential {cold_simulated}"
    )
    assert par.columns == seq.columns
    assert par.rows == seq.rows
    assert par.render() == seq.render()
    # The fingerprint hashes the ordered point keys: the pool must
    # request the same points in the same order.
    assert (
        par.provenance["config_fingerprint"]
        == seq.provenance["config_fingerprint"]
    )

    warm = _run(exp_id, 4, tmp_path / "a", monkeypatch)
    assert counters.simulated == 0, (
        f"{exp_id}: warm rerun executed {counters.simulated} simulations"
    )
    # fig5 is a pure closed-form model: zero points either way is fine.
    assert counters.cache_hits == cold_simulated
    assert warm.rows == seq.rows
