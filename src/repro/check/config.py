"""Verification configuration: which invariant oracles a run enforces.

Mirrors :class:`repro.obs.config.ObsConfig`: one frozen :class:`CheckConfig`
travels from the CLI (``--check``) or the fuzz driver through
:func:`repro.runner.run_points` into :func:`repro.api.simulate_alltoall`
and finally :func:`repro.net.faultsim.build_network`, which attaches the
oracle observer only when :attr:`CheckConfig.enabled` is true.  The default
(``None`` everywhere) runs the plain simulator — verification disabled is
not a cheap path, it is *the same* path as before this subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckConfig:
    """Per-run invariant-oracle switches (all on by default).

    Attributes
    ----------
    conservation:
        End-of-run accounting: every credit token, injection-FIFO slot and
        reception slot returned; injected packets fully accounted for as
        delivered + duplicate-discarded + lost-on-wire; link-busy time
        equal to the sum of observed transmissions.
    exactly_once:
        Independent receiver-side ledger of delivered sequence numbers: a
        sequenced packet consumed twice (a broken dedup) raises at the
        moment of the second consumption.
    credits:
        Per-launch credit non-negativity and hop-count bound (a packet
        whose hop count exceeds the routability bound is looping).
    progress:
        Periodic no-stuck-queue audit: the per-node queued-packet counter
        must match the actual queue contents (a non-empty queue with a
        zero counter is never arbitrated again — a silent stall), and
        every credit/slot count must stay within its capacity.
    phases:
        Per-strategy phase invariants at delivery: TPS phase-1 packets
        land on the destination's linear line, in the source's plane;
        TPS phase-2 packets stay inside the hyperplane; VMesh phase-1
        stays in the sender's row and phase-2 in the sender's column;
        direct packets are never forwarded.
    audit_interval:
        Deliveries between two progress audits (the audit is O(state), so
        running it on every event would change the run's complexity).
    """

    conservation: bool = True
    exactly_once: bool = True
    credits: bool = True
    progress: bool = True
    phases: bool = True
    audit_interval: int = 512

    def __post_init__(self) -> None:
        if self.audit_interval < 1:
            raise ValueError("audit_interval must be >= 1")

    @property
    def enabled(self) -> bool:
        """Whether this config selects a checked network at all."""
        return (
            self.conservation
            or self.exactly_once
            or self.credits
            or self.progress
            or self.phases
        )
