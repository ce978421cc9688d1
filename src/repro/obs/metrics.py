"""Metrics registry: counters, gauges and time-bucketed series.

The simulator's end-of-run summary (:class:`repro.net.trace.SimStats`)
grew one ad-hoc field per observable; this module replaces that growth
path with a small registry of named instruments that an instrumented
network (:mod:`repro.net.instrumented`) updates while it runs:

* :class:`Counter` — monotone event counts (packets dropped per axis,
  queue-full stalls, ...);
* :class:`Gauge` — last/peak of an instantaneous quantity (forward
  backlog, injection-FIFO depth);
* :class:`Histogram` — power-of-two bucketed value distribution
  (delivery latencies);
* :class:`TimeSeries` — a value accumulated into fixed-width time
  buckets (per-axis link-busy cycles over time, the paper's "which axis
  saturates when" view).  The bucket width doubles (and the series
  re-bins) whenever the bucket count would exceed a cap, so a series is
  bounded regardless of how long the run gets.

Everything exports to plain JSON types via :meth:`MetricsRegistry.to_dict`
so metrics payloads ride the runner's canonical codec unchanged.

**Zero-overhead contract:** nothing here is ever touched by an
uninstrumented run.  The :class:`~repro.net.simulator.TorusNetwork`
carries no registry, no instrument and no ``if enabled`` branch; the
registry only exists on the instrumentation observer that
:func:`repro.net.faultsim.build_network` attaches when an
:class:`~repro.obs.config.ObsConfig` asks for metrics.
"""

from __future__ import annotations

from math import frexp
from typing import Optional

#: Default cap on buckets per time series (re-bin by doubling beyond it).
DEFAULT_MAX_BUCKETS = 512

#: Default initial time-bucket width, cycles.  Tiny runs stay at this
#: resolution; long runs re-bin upward to honor the bucket cap.
DEFAULT_BUCKET_CYCLES = 1024.0


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value of an instantaneous quantity, plus its peak."""

    __slots__ = ("value", "peak", "samples")

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0
        self.samples = 0

    def set(self, v: float) -> None:
        self.value = v
        self.samples += 1
        if v > self.peak:
            self.peak = v

    def to_dict(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "peak": self.peak,
            "samples": self.samples,
        }


class Histogram:
    """Power-of-two bucketed distribution of a non-negative value.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)`` (bucket 0
    counts values < 1).  Cheap to update, bounded in size, and precise
    enough for latency-shape questions ("is the tail 2x or 20x the
    median?").
    """

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: list[int] = []
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, v: float) -> None:
        self.total += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # The binary exponent: 2**(b-1) <= v < 2**b for v >= 1, exactly.
        b = frexp(v)[1] if v >= 1.0 else 0
        counts = self.counts
        if b >= len(counts):
            counts.extend([0] * (b + 1 - len(counts)))
        counts[b] += 1

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "buckets_pow2": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "min": self.min if self.total else 0.0,
            "max": self.max,
            "mean": (self.sum / self.total) if self.total else 0.0,
        }


class TimeSeries:
    """A quantity accumulated into fixed-width time buckets.

    ``add(t, v)`` adds *v* to the bucket containing time *t*.  When the
    bucket index would exceed ``max_buckets``, the bucket width doubles
    and existing buckets are pairwise re-binned, so memory is bounded for
    arbitrarily long runs while short runs keep fine resolution.  An
    interval that spans buckets is attributed entirely to its start
    bucket (documented approximation; bucket widths are far larger than
    one link service time in practice).
    """

    __slots__ = ("bucket_cycles", "max_buckets", "buckets")

    def __init__(
        self,
        bucket_cycles: float = DEFAULT_BUCKET_CYCLES,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if bucket_cycles <= 0:
            raise ValueError("bucket_cycles must be positive")
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        self.bucket_cycles = float(bucket_cycles)
        self.max_buckets = max_buckets
        self.buckets: list[float] = []

    def add(self, t: float, v: float) -> None:
        i = int(t / self.bucket_cycles)
        while i >= self.max_buckets:
            # Double the bucket width and fold pairs together.
            b = self.buckets
            self.buckets = [
                b[j] + (b[j + 1] if j + 1 < len(b) else 0.0)
                for j in range(0, len(b), 2)
            ]
            self.bucket_cycles *= 2.0
            i = int(t / self.bucket_cycles)
        b = self.buckets
        if i >= len(b):
            b.extend([0.0] * (i + 1 - len(b)))
        b[i] += v

    def to_dict(self) -> dict:
        return {
            "type": "timeseries",
            "bucket_cycles": self.bucket_cycles,
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named instruments for one simulation run.

    ``counter``/``gauge``/``histogram``/``timeseries`` get-or-create by
    name (idempotent, so instrumentation sites need no setup phase).
    """

    __slots__ = ("_instruments", "default_bucket_cycles", "max_buckets")

    def __init__(
        self,
        default_bucket_cycles: float = DEFAULT_BUCKET_CYCLES,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        self._instruments: dict[str, object] = {}
        self.default_bucket_cycles = default_bucket_cycles
        self.max_buckets = max_buckets

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(*args)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timeseries(
        self, name: str, bucket_cycles: Optional[float] = None
    ) -> TimeSeries:
        return self._get(
            name,
            TimeSeries,
            bucket_cycles or self.default_bucket_cycles,
            self.max_buckets,
        )

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def to_dict(self) -> dict:
        """JSON-native snapshot, sorted by instrument name."""
        return {
            name: self._instruments[name].to_dict()  # type: ignore[attr-defined]
            for name in self.names()
        }


def aggregate_metrics(per_point: list[dict]) -> dict:
    """Combine per-point metric snapshots into one summary.

    Counters sum; gauges keep the max peak; histograms merge bucketwise;
    time series are left per-point (summing series with different bucket
    widths would be misleading) but their totals are summed.
    """
    out: dict[str, dict] = {}
    for snap in per_point:
        for name, m in snap.items():
            kind = m.get("type")
            agg = out.get(name)
            if agg is None:
                if kind == "counter":
                    out[name] = {"type": "counter", "value": m["value"]}
                elif kind == "gauge":
                    out[name] = {
                        "type": "gauge",
                        "peak": m["peak"],
                        "samples": m["samples"],
                    }
                elif kind == "histogram":
                    out[name] = {
                        "type": "histogram",
                        "buckets_pow2": list(m["buckets_pow2"]),
                        "count": m["count"],
                        "sum": m["sum"],
                        "min": m["min"],
                        "max": m["max"],
                    }
                elif kind == "timeseries":
                    out[name] = {
                        "type": "timeseries",
                        "total": sum(m["buckets"]),
                        "points": 1,
                    }
                continue
            if kind == "counter":
                agg["value"] += m["value"]
            elif kind == "gauge":
                agg["peak"] = max(agg["peak"], m["peak"])
                agg["samples"] += m["samples"]
            elif kind == "histogram":
                a, b = agg["buckets_pow2"], m["buckets_pow2"]
                if len(b) > len(a):
                    a.extend([0] * (len(b) - len(a)))
                for i, v in enumerate(b):
                    a[i] += v
                agg["count"] += m["count"]
                agg["sum"] += m["sum"]
                agg["min"] = min(agg["min"], m["min"])
                agg["max"] = max(agg["max"], m["max"])
            elif kind == "timeseries":
                agg["total"] += sum(m["buckets"])
                agg["points"] += 1
    for name, agg in out.items():
        if agg.get("type") == "histogram" and agg["count"]:
            agg["mean"] = agg["sum"] / agg["count"]
    return out
