"""Scenario: why all-to-all degrades on asymmetric tori, and how the
Two Phase Schedule fixes it (the paper's Sections 3.2 and 4.1).

Sweeps partition aspect ratio at fixed node count, showing
(a) per-dimension link utilization imbalance under adaptive routing,
(b) the AR efficiency collapse, and (c) TPS recovering near the
symmetric baseline.

Run:  python examples/asymmetric_torus.py
"""

from repro import TorusShape, simulate_alltoall
from repro.analysis import render_table
from repro.model import asymmetry_metrics
from repro.obs import LinkAnalytics
from repro.strategies import ARDirect, TwoPhaseSchedule

# 128 nodes in three aspect ratios (1:1:2 up to 1:2:4).
PARTITIONS = ["4x4x8", "8x4x4", "4x8x4", "2x8x8", "4x4x4"]
MSG_BYTES = 464


def main() -> None:
    rows = []
    for lbl in PARTITIONS:
        shape = TorusShape.parse(lbl)
        metrics = asymmetry_metrics(shape)
        ar = simulate_alltoall(ARDirect(), shape, MSG_BYTES)
        tps = simulate_alltoall(TwoPhaseSchedule(), shape, MSG_BYTES)
        axis_util = [
            pct / 100.0
            for pct in LinkAnalytics.from_result(
                ar.result, shape, ar.params.beta_cycles_per_byte
            ).axis_percent_of_peak()
        ]
        rows.append(
            {
                "partition": lbl,
                "balance": metrics.balance,
                "link util X/Y/Z": "/".join(f"{u:.2f}" for u in axis_util),
                "AR %": ar.percent_of_peak,
                "TPS %": tps.percent_of_peak,
                "TPS speedup": ar.time_cycles / tps.time_cycles,
            }
        )
    print(
        render_table(
            "Asymmetry -> AR congestion -> TPS recovery "
            f"(m={MSG_BYTES} B)",
            ["partition", "balance", "link util X/Y/Z", "AR %", "TPS %",
             "TPS speedup"],
            rows,
            notes=[
                "balance < 1 means some dimensions idle while the longest "
                "saturates (Section 3.2); TPS routes phase 1 along the "
                "long dimension and recovers the loss (Section 4.1).",
            ],
        )
    )


if __name__ == "__main__":
    main()
