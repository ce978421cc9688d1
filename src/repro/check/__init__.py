"""Differential verification: invariant oracles, cross-checks, fuzzing.

Three independent implementations of the same all-to-all semantics live in
this repository — the packet simulator (:mod:`repro.net`), the analytic
model family (:mod:`repro.model` via each strategy's ``predict_cycles``)
and the functional data engine (:mod:`repro.functional`).  This package
checks them against each other:

* :mod:`repro.check.oracle` — runtime **invariant oracles** attached to
  the simulator as a run observer (the same zero-cost-when-off pattern
  as :mod:`repro.net.instrumented`): packet conservation, exactly-once
  delivery under faults, credit non-negativity, queue/counter consistency
  (the no-stuck-queue audit) and per-strategy phase invariants (TPS
  linear-before-plane, VMesh mesh membership).
* :mod:`repro.check.differential` — one :class:`~repro.runner.SimPoint`
  run through simulator, analytic model (within tolerance bands, see
  DESIGN.md section 11) and functional engine, any divergence reported
  with the full configuration.
* :mod:`repro.check.fuzz` — a seeded, time-boxed fuzz driver
  (``python -m repro.check.fuzz --budget 60s --seed N``) that samples
  shapes, strategies, message sizes and fault plans, and shrinks any
  failing case to a one-line reproducer.
"""

from repro.check.config import CheckConfig
from repro.check.context import active_check, checking
from repro.check.differential import (
    DifferentialReport,
    ToleranceBands,
    default_bands,
    differential_point,
    differential_points,
    functional_leg,
    model_leg,
)
from repro.check.oracle import InvariantError

__all__ = [
    "CheckConfig",
    "DifferentialReport",
    "InvariantError",
    "ToleranceBands",
    "active_check",
    "checking",
    "default_bands",
    "differential_point",
    "differential_points",
    "functional_leg",
    "model_leg",
]
