"""Registry mapping experiment ids to their drivers.

Each driver is ``run(scale=None, seed=0, jobs=None) -> ExperimentResult``;
the benchmark harness, the CLI and EXPERIMENTS.md all key off these ids.
``jobs`` fans the driver's independent simulation points over a process
pool (see :mod:`repro.runner`); results are identical for any job count.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Optional

from repro.experiments import (
    ablations,
    scaling,
    fig1_ar_midplane,
    fig2_ar_4096,
    fig3_throughput,
    fig4_direct,
    fig5_vmesh_pred,
    fig6_compare_512,
    fig7_compare_4096,
    tab1_symmetric,
    tab2_asymmetric,
    tab3_tps,
    tab4_latency,
)
from repro.experiments.common import ExperimentResult

Driver = Callable[..., ExperimentResult]

#: Paper table/figure reproductions, in paper order.
EXPERIMENTS: dict[str, Driver] = {
    "fig1_ar_midplane": fig1_ar_midplane.run,
    "fig2_ar_4096": fig2_ar_4096.run,
    "tab1_symmetric": tab1_symmetric.run,
    "fig3_throughput": fig3_throughput.run,
    "tab2_asymmetric": tab2_asymmetric.run,
    "fig4_direct": fig4_direct.run,
    "tab3_tps": tab3_tps.run,
    "tab4_latency": tab4_latency.run,
    "fig5_vmesh_pred": fig5_vmesh_pred.run,
    "fig6_compare_512": fig6_compare_512.run,
    "fig7_compare_4096": fig7_compare_4096.run,
}

#: Design-choice ablations and the scaling study (not paper artifacts).
ABLATIONS: dict[str, Driver] = {
    "scaling_study": scaling.run,
    "ablate_tps_axis": ablations.tps_linear_axis,
    "ablate_tps_pipelining": ablations.tps_pipelining,
    "ablate_dr_axis": ablations.dr_longest_axis,
    "ablate_vmesh_factors": ablations.vmesh_factorization,
    "ablate_credit_overhead": ablations.credit_overhead,
}

ALL: dict[str, Driver] = {**EXPERIMENTS, **ABLATIONS}


def get_driver(exp_id: str) -> Driver:
    """Look up a driver by id."""
    try:
        return ALL[exp_id]
    except KeyError:
        known = ", ".join(sorted(ALL))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None


def run_experiment(
    exp_id: str,
    scale: Optional[str] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment by id, attaching a provenance record.

    The record (see :mod:`repro.obs.provenance`) covers exactly the
    simulation points this call executed: runner counters are snapshotted
    before and after the driver, and the delta — point keys, points
    simulated vs. cached, simulated cycles/events, supervision activity
    (retries, timeouts) — plus wall time, seed and git state
    goes into ``result.provenance``.  Point failures recorded by the
    supervision layer during this call land on ``result.failures`` (and
    an ``INCOMPLETE`` note on the rendered table), so a gracefully
    degraded sweep can never masquerade as a complete reproduction.

    A run report is built around the call, not inside it: wrap it in
    :func:`repro.obs.context.observe` with
    ``ObsConfig(metrics=True, link_stats=True)`` and pass the collected
    entries and the result to :func:`repro.obs.report.write_report`, as
    the CLI's ``--report`` does.
    """
    from repro.experiments.common import resolve_scale
    from repro.obs.provenance import provenance_record
    from repro.runner.codec import SCHEMA_VERSION
    from repro.runner.pool import counters

    log = logging.getLogger("repro.experiments")
    driver = get_driver(exp_id)
    before = counters.snapshot()
    log.info("running %s (scale=%s, seed=%d)", exp_id, scale, seed)
    t0 = time.perf_counter()
    result = driver(scale=scale, seed=seed, jobs=jobs)
    wall = time.perf_counter() - t0
    after = counters.snapshot()
    new_keys = after["point_keys"][len(before["point_keys"]):]
    simulated = after["simulated"] - before["simulated"]
    new_failures = after["failures"][len(before["failures"]):]
    result.failures = new_failures
    result.provenance = provenance_record(
        schema_version=SCHEMA_VERSION,
        seed=seed,
        scale=resolve_scale(scale),
        point_keys=new_keys,
        wall_s=wall,
        simulated_cycles=after["sim_cycles"] - before["sim_cycles"],
        simulated_events=after["sim_events"] - before["sim_events"],
        points_simulated=simulated,
        points_cached=len(new_keys) - simulated,
        retries=after["retries"] - before["retries"],
        timeouts=after["timeouts"] - before["timeouts"],
        points_failed=len(new_failures),
    )
    if new_failures:
        kinds: dict[str, int] = {}
        for f in new_failures:
            kinds[f.get("kind", "error")] = kinds.get(f.get("kind", "error"), 0) + 1
        summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        result.notes.append(
            f"INCOMPLETE: {len(new_failures)} point(s) failed ({summary}); "
            "rows derived from missing points are absent or partial"
        )
        log.warning(
            "%s incomplete: %d point(s) failed (%s)",
            exp_id,
            len(new_failures),
            summary,
        )
    log.info(
        "%s done in %.2fs: %d point(s), %d simulated, %d from cache",
        exp_id,
        wall,
        len(new_keys),
        simulated,
        len(new_keys) - simulated,
    )
    return result
