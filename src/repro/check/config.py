"""Verification configuration: whether a run enforces the invariant oracles.

Mirrors :class:`repro.obs.config.ObsConfig`: one frozen :class:`CheckConfig`
travels from the CLI (``--check``) or the fuzz driver through
:func:`repro.runner.run_points` into :func:`repro.api.simulate_alltoall`
and finally :func:`repro.net.faultsim.build_network`, which attaches the
oracle observer whenever a config is given.  The default (``None``
everywhere) runs the plain simulator — verification disabled is not a
cheap path, it is *the same* path as before this subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckConfig:
    """Run every invariant oracle of :mod:`repro.check.oracle`:
    conservation, exactly-once delivery, credits, progress audits and
    per-strategy phase geometry."""
