"""Unit tests for the top-level API."""

import pytest

from repro import (
    AllToAllRun,
    MachineParams,
    TorusShape,
    predict_alltoall,
    simulate_alltoall,
)
from repro.model.alltoall import peak_time_cycles
from repro.strategies import (
    ARDirect,
    DRDirect,
    TwoPhaseSchedule,
    VirtualMesh2D,
)


class TestSimulateAlltoall:
    def test_returns_run(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 64)
        assert isinstance(run, AllToAllRun)
        assert run.strategy == "AR"
        assert run.time_cycles > 0

    def test_percent_of_peak_consistent(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 64)
        peak = peak_time_cycles(run.shape, 64, run.params)
        assert run.percent_of_peak == pytest.approx(
            100 * peak / run.time_cycles
        )

    def test_time_units_consistent(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 64)
        assert run.time_ms == pytest.approx(run.time_us / 1000)

    def test_bandwidth_positive(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 64)
        assert run.per_node_mb_per_s > 0

    def test_tps_sets_fifo_groups(self):
        # TPS requires 2 FIFO groups; the API must configure the network.
        run = simulate_alltoall(TwoPhaseSchedule(), TorusShape.parse("4x4"), 64)
        assert run.result.forwarded_packets > 0

    def test_fifo_groups_are_checked_before_anything_is_built(self):
        class NoBuild(TwoPhaseSchedule):
            def build_program(self, *args, **kwargs):
                raise AssertionError("program built for an unusable machine")

        with pytest.raises(ValueError, match=(
            r"num_injection_fifos=3 .* TPS's fifo_groups=2"
        )):
            simulate_alltoall(
                NoBuild(),
                TorusShape.parse("4x4"),
                64,
                MachineParams(num_injection_fifos=3),
            )

    def test_custom_params(self):
        prm = MachineParams.bluegene_l().with_updates(alpha_packet_cycles=0.0)
        fast = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 16, prm)
        slow = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 16)
        assert fast.time_cycles < slow.time_cycles


class TestIntegerInputs:
    STRATEGIES = [ARDirect(), DRDirect(), TwoPhaseSchedule(), VirtualMesh2D()]

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_fractional_size_names_the_field(self, strategy):
        with pytest.raises(TypeError, match="msg_bytes"):
            simulate_alltoall(strategy, TorusShape.parse("4x4"), 1.5)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_integral_float_runs_as_its_int(self, strategy):
        shape = TorusShape.parse("4x4")
        as_float = simulate_alltoall(strategy, shape, 64.0)
        as_int = simulate_alltoall(strategy, shape, 64)
        assert as_float.time_cycles == as_int.time_cycles
        assert (
            as_float.result.events_processed
            == as_int.result.events_processed
        )

    def test_integral_float_size_is_returned_as_int(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 64.0)
        assert type(run.msg_bytes) is int and run.msg_bytes == 64

    def test_fractional_packets_per_round_names_the_field(self):
        with pytest.raises(TypeError, match="packets_per_round"):
            simulate_alltoall(
                TwoPhaseSchedule(packets_per_round=1.5),
                TorusShape.parse("4x4"),
                64,
            )


class TestPredict:
    def test_prediction_matches_strategy(self):
        shape = TorusShape.parse("8x8")
        assert predict_alltoall(ARDirect(), shape, 100) == ARDirect().predict_cycles(
            shape, 100, MachineParams.bluegene_l()
        )

    def test_run_carries_prediction(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4"), 64)
        assert run.predicted_cycles == pytest.approx(
            predict_alltoall(ARDirect(), run.shape, 64, run.params)
        )
