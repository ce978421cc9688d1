"""The invariant oracles: silent on correct runs, loud on sabotaged ones,
and bit-identical to the unchecked network either way."""

import pickle

import pytest

from repro.api import simulate_alltoall
from repro.check import CheckConfig, InvariantError, oracle
from repro.check.fuzz import broken_dedup
from repro.model.torus import TorusShape
from repro.net.errors import (
    DeadlockError,
    PartitionedNetworkError,
    SimulationError,
    SimulationLimitError,
)
from repro.net.faults import FaultPlan
from repro.net.faultsim import FaultyTorusNetwork, build_network
from repro.net.simulator import TorusNetwork
from repro.obs.config import ObsConfig
from repro.strategies import (
    ARDirect,
    CreditedTPS,
    DRDirect,
    MPIDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

CHECK = CheckConfig()
SHAPE = TorusShape.parse("4x4x2")
STRATEGIES = [
    ARDirect(),
    DRDirect(),
    ThrottledAR(),
    MPIDirect(),
    TwoPhaseSchedule(),
    TwoPhaseSchedule(linear_axis=2),
    CreditedTPS(),
    VirtualMesh2D(),
]
# Fixed case ids, one per entry of STRATEGIES. They used to be derived from
# object addresses, so the case names changed from one interpreter run to
# the next; these keep the names the suite reported before.
STRATEGY_IDS = [
    "AR5",
    "DR5",
    "AR-throttle",
    "MPI6",
    "TPS4",
    "TPS5",
    "TPS-credit",
    "VMesh",
]


@pytest.fixture(autouse=True)
def _frequent_audits(monkeypatch):
    # Audit progress every 64 deliveries, so these small runs audit
    # mid-run and not only at the end.
    monkeypatch.setattr(oracle, "AUDIT_INTERVAL", 64)


def _lossy_plan(shape=SHAPE, **kw):
    kw.setdefault("loss_prob", 0.05)
    kw.setdefault("retx_timeout_cycles", 2000.0)
    return FaultPlan.random(shape, seed=3, **kw)


class TestCleanRunsStaySilent:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    def test_all_oracles_pass_and_run_is_bit_identical(self, strategy):
        plain = simulate_alltoall(strategy, SHAPE, 128, seed=1)
        checked = simulate_alltoall(
            strategy, SHAPE, 128, seed=1, check=CHECK
        )
        assert checked.result.time_cycles == plain.result.time_cycles
        assert (
            checked.result.events_processed == plain.result.events_processed
        )
        assert checked.result.total_hops == plain.result.total_hops

    def test_faulty_lossy_run_passes_with_duplicates_seen(self):
        # The exactly-once ledger must stay silent precisely because the
        # network's dedup works — and the run must produce real duplicate
        # discards for that claim to mean anything.
        plan = _lossy_plan()
        plain = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan
        )
        checked = simulate_alltoall(
            ARDirect(), SHAPE, 256, seed=1, faults=plan, check=CHECK
        )
        assert checked.result.duplicate_packets > 0
        assert checked.result.time_cycles == plain.result.time_cycles
        assert (
            checked.result.events_processed == plain.result.events_processed
        )


class TestSabotageIsCaught:
    def test_broken_dedup_trips_exactly_once_oracle(self):
        plan = _lossy_plan()
        with broken_dedup():
            with pytest.raises(InvariantError) as exc_info:
                simulate_alltoall(
                    ARDirect(), SHAPE, 256, seed=1, faults=plan, check=CHECK
                )
        assert exc_info.value.oracle == "exactly_once"
        assert "seq" in exc_info.value.context

    def test_oracle_beats_the_unchecked_diagnostic(self):
        # Without the oracle the corruption only surfaces at the very end
        # as a generic completion-count mismatch; the oracle instead names
        # the exact packet at the exact cycle the invariant first broke.
        from repro.net.errors import DeadlockError

        plan = _lossy_plan()
        with broken_dedup():
            with pytest.raises(DeadlockError):
                simulate_alltoall(
                    ARDirect(), SHAPE, 256, seed=1, faults=plan
                )
            with pytest.raises(InvariantError) as exc_info:
                simulate_alltoall(
                    ARDirect(), SHAPE, 256, seed=1, faults=plan, check=CHECK
                )
        assert {"cycle", "seq", "pid"} <= exc_info.value.context.keys()

    def test_counter_corruption_trips_progress_audit(self, monkeypatch):
        monkeypatch.setattr(oracle, "AUDIT_INTERVAL", 16)
        shape = TorusShape.parse("4x4")
        strategy = ARDirect()
        net = build_network(shape, check=CHECK)

        original = TorusNetwork._finish_delivery
        state = {"fired": False}

        def corrupt_once(self, u, pkt):
            original(self, u, pkt)
            if not state["fired"]:
                # A lost decrement: the queued counter drifts from the
                # actual queue contents (the classic stuck-queue bug).
                state["fired"] = True
                self._queued[u] += 1

        try:
            TorusNetwork._finish_delivery = corrupt_once
            with pytest.raises(InvariantError) as exc_info:
                net.run(strategy.build_program(shape, 100))
        finally:
            TorusNetwork._finish_delivery = original
        assert exc_info.value.oracle == "progress"

    def test_phase_violation_trips_phase_oracle(self):
        # A TPS program whose phase-1 intermediates sit OFF the
        # destination's linear line: geometry the phase oracle must veto.
        shape = TorusShape.parse("4x4")
        strategy = TwoPhaseSchedule(linear_axis=0)
        program = strategy.build_program(shape, 100)
        axis = program.linear_axis

        class LyingProgram:
            """Proxy that claims the OTHER axis is linear."""

            def __init__(self, inner):
                self._inner = inner
                self.linear_axis = 1 - axis

            def __getattr__(self, name):
                return getattr(self._inner, name)

        net = build_network(shape, check=CHECK)
        net.set_fifo_groups(strategy.fifo_groups)
        with pytest.raises(InvariantError) as exc_info:
            net.run(LyingProgram(program))
        assert exc_info.value.oracle == "phases"


class TestZeroCostStructure:
    def test_plain_classes_carry_no_check_hooks(self):
        # The zero-cost-when-off contract is structural: no check code,
        # no check slots, on the plain classes.
        for cls in (TorusNetwork, FaultyTorusNetwork):
            assert "check" not in cls.__slots__
            assert not any(
                s.startswith("_chk") for s in cls.__slots__
            )

    @pytest.mark.parametrize("faulty", [False, True], ids=["plain", "faulty"])
    def test_unobserved_run_executes_no_obs_or_check_frame(self, faulty):
        # The contract measured directly: with no observer attached, a run
        # never enters observation or checking code.
        import sys

        plan = _lossy_plan() if faulty else None

        def frames(net):
            program = ARDirect().build_program(SHAPE, 64)
            seen = set()

            def profile(frame, event, arg):
                if event == "call":
                    seen.add(frame.f_globals.get("__name__", ""))

            sys.setprofile(profile)
            try:
                net.run(program)
            finally:
                sys.setprofile(None)
            return seen

        layers = ("repro.obs", "repro.check", "repro.net.instrumented")
        plain = frames(build_network(SHAPE, faults=plan))
        assert "repro.net.simulator" in plain
        assert not [m for m in plain if m.startswith(layers)]
        observed = frames(
            build_network(
                SHAPE, faults=plan, obs=ObsConfig(metrics=True), check=CHECK
            )
        )
        assert {"repro.net.instrumented", "repro.check.oracle"} <= observed


class TestErrorsSurvivePickling:
    """Pooled workers send a point's error back through a pipe, so every
    simulation error must rebuild from its pickle."""

    @pytest.mark.parametrize(
        "error",
        [
            SimulationError("boom"),
            DeadlockError("stuck"),
            SimulationLimitError(
                "cycle cap", events_processed=7, pending_by_node={3: 2}
            ),
            PartitionedNetworkError("cut", unreachable=[1, 2]),
            InvariantError("credits", "x", node=3),
            InvariantError("progress", "no context"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip(self, error):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        if isinstance(error, InvariantError):
            assert back.oracle == error.oracle
            assert back.context == error.context
