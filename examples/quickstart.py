"""Quickstart: simulate one all-to-all and verify that its schedule
delivers every byte exactly once.

Run:  python examples/quickstart.py
"""

from repro import TorusShape, simulate_alltoall
from repro.functional import run_and_verify
from repro.strategies import ARDirect, TwoPhaseSchedule, select_strategy


def main() -> None:
    # --- 1. Time an all-to-all on an asymmetric BG/L partition ---------
    shape = TorusShape.parse("4x4x8")  # a 2n-aspect torus, 128 nodes
    msg_bytes = 464

    ar = simulate_alltoall(ARDirect(), shape, msg_bytes)
    tps = simulate_alltoall(TwoPhaseSchedule(), shape, msg_bytes)
    print(f"partition {shape.label}, {msg_bytes} B per rank pair")
    print(f"  AR  (direct, adaptive): {ar.time_us:8.1f} us"
          f"  = {ar.percent_of_peak:5.1f}% of peak")
    print(f"  TPS (two-phase)       : {tps.time_us:8.1f} us"
          f"  = {tps.percent_of_peak:5.1f}% of peak")
    print(f"  paper's headline: the indirect TPS overtakes direct AR on "
          f"asymmetric tori -> speedup {ar.time_cycles / tps.time_cycles:.2f}x")

    # --- 2. The auto-selector picks the paper's best algorithm ---------
    for m in (8, 1024):
        chosen = select_strategy(shape, m)
        print(f"  select_strategy({shape.label}, m={m}B) -> {chosen.name}")

    # --- 3. Run the chosen schedule over data and verify it ------------
    small, m = TorusShape.parse("4x4"), 16
    strategy = select_strategy(small, m)
    _, report = run_and_verify(strategy, small, m)
    assert report.ok, report.summary()
    run = simulate_alltoall(strategy, small, m)
    print(f"  {strategy.name} on {small.label}, {m} B messages: "
          f"{report.summary()}; {run.time_us:.1f} us simulated")


if __name__ == "__main__":
    main()
