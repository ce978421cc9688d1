"""Observability configuration: what a run records, if anything.

One frozen :class:`ObsConfig` of five switches travels from the CLI
(``--trace`` / ``--metrics`` / ``--report`` / ``--profile``) through
:func:`repro.runner.run_points` into :func:`repro.api.simulate_alltoall`
and finally :func:`repro.net.faultsim.build_network`, which attaches the
instrumentation observer only when :attr:`ObsConfig.enabled` is true.  The
default (``None`` everywhere) attaches no observer: the run kernel builds
no hook wrapper, each hook site costs one ``is not None`` test, and
``tests/check/test_oracle.py`` counts frames to show such a run enters no
``repro.obs`` code.  Sizes (trace ring capacity, time-series bucket width
and cap) are the :class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` defaults; a traced run
records every event kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ObsConfig:
    """Per-run observability switches.

    Attributes
    ----------
    trace:
        Record packet-lifecycle events of every kind into a ring buffer
        of :data:`~repro.obs.tracer.DEFAULT_CAPACITY` events (overflow
        keeps the latest events).
    trace_sample:
        Keep every packet whose id is ``0 (mod trace_sample)``; 1 keeps
        everything.  Sampling is by deterministic packet id, so the same
        packets are traced on every run and across job counts.
    metrics:
        Maintain the :class:`~repro.obs.metrics.MetricsRegistry`
        (per-axis utilization time series, FIFO depth, backlog, latency
        histograms) at its default bucket width and bucket cap.
    link_stats:
        Collect per-link analytics (wire bytes, per-VC packet counts,
        stall cycles, per-link drops, per-node retransmissions, per-phase
        busy cycles) and attach them to the result as
        ``extras["obs"]["link_stats"]`` for
        :mod:`repro.obs.linkstats` / :mod:`repro.obs.report`.
    profile:
        Run the phase-level time profiler
        (:mod:`repro.obs.profile`): per-(phase, axis) busy cycles,
        phase spans, and wall/CPU attribution estimates, attached as
        ``extras["obs"]["profile"]``.
    """

    trace: bool = False
    trace_sample: int = 1
    metrics: bool = False
    link_stats: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "trace_sample",
            check_positive_int(self.trace_sample, "trace_sample"),
        )

    @property
    def enabled(self) -> bool:
        """Whether this config instruments the network at all."""
        return (
            self.trace or self.metrics or self.link_stats or self.profile
        )
