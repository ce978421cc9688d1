"""Per-axis utilization reporting on degenerate and mismatched shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import simulate_alltoall
from repro.model.torus import TorusShape
from repro.net.trace import SimulationResult
from repro.obs import LinkAnalytics
from repro.strategies import ARDirect


def _run_for(shape: TorusShape):
    return simulate_alltoall(ARDirect(), shape, 64, seed=1)


def _analytics(run, shape: TorusShape) -> LinkAnalytics:
    return LinkAnalytics.from_result(
        run.result, shape, run.params.beta_cycles_per_byte
    )


def _zero_result(nnodes: int, ndim: int) -> SimulationResult:
    return SimulationResult(
        time_cycles=0.0,
        link_busy_cycles=np.zeros((nnodes, 2 * ndim)),
        num_links=0,
        injected_packets=0,
        delivered_packets=0,
        final_deliveries=0,
        forwarded_packets=0,
        injected_wire_bytes=0,
        total_hops=0,
        events_processed=0,
        mean_final_latency=0.0,
        max_final_latency=0.0,
    )


#: Shapes covering every degenerate case: extent-2 dims (wrap == mesh
#: link), extent-1 dims (no links at all), mesh flags, and 1-2 dims.
DEGENERATE_SHAPES = [
    "4x4x2",
    "2x2x2",
    "4x2x2",
    "4x1x1",
    "4x4x2M",
    "8x2",
    "4x4",
]


class TestDegenerateShapes:
    @pytest.mark.parametrize("spec", DEGENERATE_SHAPES)
    def test_axis_means_are_consistent_with_global_mean(self, spec):
        shape = TorusShape.parse(spec)
        run = _run_for(shape)
        la = _analytics(run, shape)
        per_axis = la.axis_percent_of_peak()
        assert len(per_axis) == shape.ndim
        # Weighted by per-axis link counts, the axis means reconstruct
        # the mean over every existing link exactly.
        weighted = sum(
            pct / 100.0 * shape.links_in_dim(a)
            for a, pct in enumerate(per_axis)
        )
        mean = float(la.utilization().sum()) / run.result.num_links
        assert weighted / run.result.num_links == pytest.approx(
            mean, rel=1e-12
        )

    def test_extent1_axis_reports_zero(self):
        shape = TorusShape.parse("4x1x1")
        per_axis = _analytics(_run_for(shape), shape).axis_percent_of_peak()
        assert per_axis[1] == 0.0
        assert per_axis[2] == 0.0
        assert per_axis[0] > 0.0

    @pytest.mark.parametrize("spec", DEGENERATE_SHAPES)
    def test_utilization_bounded(self, spec):
        shape = TorusShape.parse(spec)
        la = _analytics(_run_for(shape), shape)
        for pct in la.axis_percent_of_peak():
            assert 0.0 <= pct <= 100.0 + 1e-7
        assert float(la.utilization().max()) <= 1.0 + 1e-9


class TestShapeMismatch:
    def test_wrong_node_count_raises(self):
        run = _run_for(TorusShape.parse("4x4x2"))
        with pytest.raises(ValueError, match="does not match"):
            _analytics(run, TorusShape.parse("4x4x4"))

    def test_wrong_ndim_raises(self):
        run = _run_for(TorusShape.parse("4x4x2"))
        with pytest.raises(ValueError, match="does not match"):
            _analytics(run, TorusShape.parse("8x4"))

    def test_matching_shape_variant_is_accepted(self):
        # Same node count and ndim but different torus flags: cannot be
        # distinguished from the busy matrix alone, so it is accepted.
        run = _run_for(TorusShape.parse("4x4x2"))
        _analytics(run, TorusShape.parse("4x4x2M"))


class TestZeroRuns:
    def test_zero_time_and_zero_links_are_all_zero(self):
        la = LinkAnalytics.from_result(
            _zero_result(8, 3), TorusShape.parse("2x2x2"), 1.0
        )
        assert not la.utilization().any()
        assert la.axis_percent_of_peak() == [0.0, 0.0, 0.0]
        assert la.percent_of_peak() == 0.0
        assert la.hotspots() == []
