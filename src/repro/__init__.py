"""repro — reproduction of Kumar & Heidelberger, *Optimization of All-to-All
Communication on the Blue Gene/L Supercomputer* (ICPP 2008).

The package provides:

* :mod:`repro.model` — the paper's analytic cost models (Eq. 1-4) and
  exact link-load / contention analysis;
* :mod:`repro.net` — a packet-level discrete-event simulator of the BG/L
  torus router (dynamic + bubble VCs, adaptive JSQ and deterministic
  routing, token flow control, injection-FIFO groups, a 4-link CPU);
* :mod:`repro.strategies` — the paper's all-to-all algorithms: direct
  (MPI-style, AR, DR, throttled AR) and indirect (Two-Phase Schedule,
  2-D Virtual Mesh), plus the auto-selector and credit flow control;
* :mod:`repro.functional` — an untimed engine that runs the same schedules
  and checks that every byte reaches its destination exactly once
  (:func:`~repro.functional.run_and_verify`);
* :mod:`repro.experiments` — drivers regenerating every table and figure
  of the paper's evaluation.

Quickstart::

    from repro import TorusShape, simulate_alltoall
    from repro.strategies import TwoPhaseSchedule

    shape = TorusShape.parse("8x8x16")
    run = simulate_alltoall(TwoPhaseSchedule(), shape, msg_bytes=1024)
    print(run.percent_of_peak)
"""

from repro.model import MachineParams, TorusShape
from repro.api import AllToAllRun, predict_alltoall, simulate_alltoall

__version__ = "1.0.0"

__all__ = [
    "MachineParams",
    "TorusShape",
    "AllToAllRun",
    "simulate_alltoall",
    "predict_alltoall",
    "__version__",
]
