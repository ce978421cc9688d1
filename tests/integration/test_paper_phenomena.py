"""Integration tests: the paper's qualitative phenomena at test scale.

These run complete timed simulations on small partitions and assert the
*contrasts* the paper reports — who wins, in which regime — which are the
reproduction targets (absolute percentages differ; see DESIGN.md 5).
"""

import pytest

pytestmark = pytest.mark.slow

from repro.api import simulate_alltoall
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.obs import LinkAnalytics
from repro.strategies import (
    ARDirect,
    DRDirect,
    MPIDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

# Two full packets per destination: enough traffic to reach the
# contention-dominated steady state the tables measure (a single packet
# per destination is still startup-dominated at this scale).
M_LARGE = 464

#: A 1:1:4 torus: strong asymmetry, like the paper's 8x32x16.
ASYM = "4x4x16"


@pytest.fixture(scope="module")
def runs():
    """Shared simulation results (each takes seconds; run once)."""
    out = {}
    sym = TorusShape.parse("4x4x4")
    asym = TorusShape.parse(ASYM)
    out["ar_sym"] = simulate_alltoall(ARDirect(), sym, M_LARGE)
    out["ar_asym"] = simulate_alltoall(ARDirect(), asym, M_LARGE)
    out["dr_sym"] = simulate_alltoall(DRDirect(), sym, M_LARGE)
    out["tps_sym"] = simulate_alltoall(TwoPhaseSchedule(), sym, M_LARGE)
    out["tps_asym"] = simulate_alltoall(TwoPhaseSchedule(), asym, M_LARGE)
    return out


class TestSection32_AsymmetricContention:
    def test_ar_degrades_on_asymmetric_torus(self, runs):
        # Table 2's core finding at 2:1 aspect.
        assert runs["ar_asym"].percent_of_peak < runs["ar_sym"].percent_of_peak

    def test_long_dimension_runs_hotter(self, runs):
        # "in a 2n x n x n torus ... the X links have twice the utilization"
        run = runs["ar_asym"]
        util = LinkAnalytics.from_result(
            run.result, TorusShape.parse(ASYM), run.params.beta_cycles_per_byte
        ).axis_percent_of_peak()
        assert util[2] > 1.5 * util[0]
        assert util[2] > 1.5 * util[1]

    def test_dr_loses_to_ar_on_symmetric(self, runs):
        # Figure 4: head-of-line blocking on the single bubble VC.
        assert runs["dr_sym"].percent_of_peak < runs["ar_sym"].percent_of_peak


class TestSection41_TwoPhaseSchedule:
    def test_tps_beats_ar_on_asymmetric(self, runs):
        # The headline result (Table 3 vs Table 2).
        assert (
            runs["tps_asym"].percent_of_peak
            > runs["ar_asym"].percent_of_peak
        )

    def test_ar_beats_tps_on_small_symmetric(self, runs):
        # Table 3's 512-node case: TPS is CPU-bound on small symmetric
        # partitions (forwarding doubles the processor's byte handling).
        assert runs["tps_sym"].percent_of_peak < runs["ar_sym"].percent_of_peak

    def test_tps_forwards_roughly_all_offline_traffic(self, runs):
        res = runs["tps_asym"].result
        # Every phase-1 packet is forwarded exactly once.
        assert res.forwarded_packets > 0
        assert res.injected_packets == res.delivered_packets

    def test_tps_latency_penalty_small_partition(self):
        # Table 4: 1 B all-to-all is slower under TPS on small partitions.
        shape = TorusShape.parse("4x4x4")
        tps = simulate_alltoall(TwoPhaseSchedule(), shape, 1)
        ar = simulate_alltoall(ARDirect(), shape, 1)
        assert tps.time_cycles > ar.time_cycles


class TestSection42_VirtualMesh:
    def test_vmesh_wins_small_messages(self):
        shape = TorusShape.parse("4x4x4")
        ar = simulate_alltoall(ARDirect(), shape, 8)
        vm = simulate_alltoall(VirtualMesh2D(), shape, 8)
        assert vm.time_cycles < ar.time_cycles / 1.2

    def test_vmesh_loses_large_messages(self):
        shape = TorusShape.parse("4x4x4")
        ar = simulate_alltoall(ARDirect(), shape, 256)
        vm = simulate_alltoall(VirtualMesh2D(), shape, 256)
        assert vm.time_cycles > ar.time_cycles

    def test_crossover_location(self):
        # Paper: between 32 and 64 B (we allow up to 128 B: the smaller
        # partition shifts alpha amortization slightly).
        shape = TorusShape.parse("4x4x4")
        speedup = {}
        for m in (16, 32, 64, 128):
            ar = simulate_alltoall(ARDirect(), shape, m)
            vm = simulate_alltoall(VirtualMesh2D(), shape, m)
            speedup[m] = ar.time_cycles / vm.time_cycles
        assert speedup[16] > 1.0
        assert speedup[128] < 1.0


class TestSection3_DirectVariants:
    def test_mpi_slower_than_ar(self):
        # Section 3: the AR runtime cuts per-destination overhead vs MPI.
        shape = TorusShape.parse("4x4")
        mpi = simulate_alltoall(MPIDirect(), shape, 64)
        ar = simulate_alltoall(ARDirect(), shape, 64)
        assert mpi.time_cycles > ar.time_cycles

    def test_throttling_never_catastrophic(self):
        # Figure 4: the paper saw throttling help AR by only 2-3%.  Our
        # packet-granularity router congests harder than the hardware, so
        # bisection-rate pacing helps *more* here (a documented deviation,
        # see EXPERIMENTS.md); the invariant we pin is that throttling to
        # the Eq. 2 rate never slows the all-to-all down much and never
        # beats the bisection bound.
        shape = TorusShape.parse("4x4x8")
        thr = simulate_alltoall(ThrottledAR(), shape, M_LARGE)
        ar = simulate_alltoall(ARDirect(), shape, M_LARGE)
        ratio = thr.time_cycles / ar.time_cycles
        assert 0.6 < ratio < 1.3
        assert thr.percent_of_peak <= 100.0


class TestModelTracksMeasurement:
    def test_eq3_within_2x_of_des(self):
        # Figures 1-2: the analytic model is "an accurate predictor".
        shape = TorusShape.parse("4x4")
        for m in (64, 208, 464):
            run = simulate_alltoall(ARDirect(), shape, m)
            ratio = run.time_cycles / run.predicted_cycles
            assert 0.5 < ratio < 2.5, (m, ratio)

    def test_cpu_model_binds_small_machines(self):
        # On small partitions the 4-link CPU is the binding resource;
        # doubling CPU speed must help, slowing it must hurt.
        shape = TorusShape.parse("4x4x4")
        base = simulate_alltoall(ARDirect(), shape, M_LARGE)
        fast = simulate_alltoall(
            ARDirect(), shape, M_LARGE,
            MachineParams.bluegene_l().with_updates(cpu_links=8.0),
        )
        slow = simulate_alltoall(
            ARDirect(), shape, M_LARGE,
            MachineParams.bluegene_l().with_updates(cpu_links=2.0),
        )
        assert fast.time_cycles < base.time_cycles < slow.time_cycles
