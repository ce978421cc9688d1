"""Observability configuration: what a run records, if anything.

One frozen :class:`ObsConfig` travels from the CLI (``--trace`` /
``--metrics``) through :func:`repro.runner.run_points` into
:func:`repro.api.simulate_alltoall` and finally
:func:`repro.net.faultsim.build_network`, which attaches the
instrumentation observer only when :attr:`ObsConfig.enabled` is true.  The
default (``None`` everywhere) means the plain un-instrumented simulator
runs — observability disabled is not a cheap path, it is *the same* path
as before this subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import DEFAULT_BUCKET_CYCLES, DEFAULT_MAX_BUCKETS
from repro.obs.tracer import DEFAULT_CAPACITY, EVENT_KINDS


@dataclass(frozen=True)
class ObsConfig:
    """Per-run observability switches.

    Attributes
    ----------
    trace:
        Record packet-lifecycle events into a bounded ring buffer.
    trace_capacity:
        Ring size in events (overflow keeps the latest events).
    trace_sample:
        Keep every packet whose id is ``0 (mod trace_sample)``; 1 keeps
        everything.  Sampling is by deterministic packet id, so the same
        packets are traced on every run and across job counts.
    trace_kinds:
        Restrict recording to these event kinds (None = all of
        :data:`repro.obs.tracer.EVENT_KINDS`).
    metrics:
        Maintain the :class:`~repro.obs.metrics.MetricsRegistry`
        (per-axis utilization time series, FIFO depth, backlog, latency
        histograms).
    metrics_bucket_cycles:
        Initial time-series bucket width, cycles.
    metrics_max_buckets:
        Bucket cap per series (width doubles beyond it).
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
    trace_capacity: int = DEFAULT_CAPACITY
    trace_sample: int = 1
    trace_kinds: Optional[frozenset] = None
    metrics: bool = False
    metrics_bucket_cycles: float = DEFAULT_BUCKET_CYCLES
    metrics_max_buckets: int = DEFAULT_MAX_BUCKETS
    link_stats: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.trace_sample < 1:
            raise ValueError("trace_sample must be >= 1")
        if self.trace_kinds is not None:
            unknown = frozenset(self.trace_kinds) - frozenset(EVENT_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown trace event kinds: {sorted(unknown)}"
                )
        if self.metrics_bucket_cycles <= 0:
            raise ValueError("metrics_bucket_cycles must be positive")
        if self.metrics_max_buckets < 2:
            raise ValueError("metrics_max_buckets must be >= 2")

    @property
    def enabled(self) -> bool:
        """Whether this config instruments the network at all."""
        return (
            self.trace or self.metrics or self.link_stats or self.profile
        )
