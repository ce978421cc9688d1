"""End-to-end observability: tracing, metrics and run provenance.

The layers below are opt-in and zero-cost when off (the plain simulator
classes carry no instrumentation and no branches):

* **Event tracer** (:mod:`repro.obs.tracer`) — packet lifecycle events
  and link-occupancy intervals in a bounded, sampled ring buffer,
  exportable as JSONL or a Perfetto-loadable Chrome trace.
* **Metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges,
  latency histograms and per-axis link-utilization time series.
* **Provenance** (:mod:`repro.obs.provenance`) — schema/seed/git/config
  fingerprint plus wall-vs-simulated time, attached to every experiment
  result.
* **Link analytics** (:mod:`repro.obs.linkstats`) — per-link/per-VC
  utilization, percent-of-peak, hot-spot and model-diff analysis over
  the counters a ``link_stats`` run collects.
* **Run reports** (:mod:`repro.obs.report`) — self-contained HTML +
  JSON-sidecar reports over a sweep's collected payloads (the CLI's
  ``--report DIR``).  Import it as ``repro.obs.report`` — it pulls in
  no simulator code, but is kept out of this namespace so importing
  :mod:`repro.obs.config` stays featherweight for pool workers.
* **Sweep telemetry** (:mod:`repro.obs.progress`) — the live status
  line and single-writer stderr coordinator, driven by the sweep
  supervisor's own events during a sweep.
* **Phase profiler** (:mod:`repro.obs.profile`) — per-(phase, axis)
  busy-cycle attribution with wall/CPU estimates and a Chrome-trace
  span track (``ObsConfig(profile=True)`` / the CLI's ``--profile``).

Activation: pass an :class:`ObsConfig` to
:func:`repro.api.simulate_alltoall` / :func:`repro.runner.run_points`,
or wrap a whole sweep in :func:`observe` (what the CLI's ``--trace`` /
``--metrics`` flags do).  See DESIGN.md section 10.
"""

from repro.obs.config import ObsConfig
from repro.obs.context import active_config, collect, collected, observe
from repro.obs.linkstats import LinkAnalytics, parse_point_label
from repro.obs.logconf import setup_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    aggregate_metrics,
)
from repro.obs.profile import (
    PhaseProfiler,
    merge_profiles,
    profile_chrome_events,
)
from repro.obs.progress import (
    SweepProgress,
    coordinated_handler,
    coordinator,
    progress_wanted,
    resolve_progress,
)
from repro.obs.provenance import (
    config_fingerprint,
    git_describe,
    provenance_record,
)
from repro.obs.tracer import (
    EVENT_KINDS,
    Tracer,
    chrome_events,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "ObsConfig",
    "active_config",
    "collect",
    "collected",
    "observe",
    "LinkAnalytics",
    "parse_point_label",
    "setup_logging",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "aggregate_metrics",
    "PhaseProfiler",
    "merge_profiles",
    "profile_chrome_events",
    "SweepProgress",
    "coordinated_handler",
    "coordinator",
    "progress_wanted",
    "resolve_progress",
    "config_fingerprint",
    "git_describe",
    "provenance_record",
    "EVENT_KINDS",
    "Tracer",
    "chrome_events",
    "write_chrome_trace",
    "write_jsonl",
]
