"""The fuzz driver: spec grammar, sampler, shrinker, self-test, CLI."""

import random

import pytest

from repro.check.fuzz import (
    FuzzCase,
    InvalidCase,
    _run_one,
    broken_dedup,
    main,
    parse_budget,
    run_cases,
    sample_case,
    shrink,
)
from repro.runner.pool import counters


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    counters.reset()
    yield
    counters.reset()


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "spec",
        [
            "AR@4x4x2/m256/s1/fp0.05,s3,t2000",
            "TPS.ax1@2x4x4/m100/s3/fl0.05,p0.02,s7,t2000",
            "VM@8x8M/m8/s0",
            "CTPS@3x3/m1024/s999",
            "THR@1x4/m17/s5",
            "MPI@5/m64/s0",
        ],
    )
    def test_round_trip(self, spec):
        case = FuzzCase.parse(spec)
        again = FuzzCase.parse(case.spec())
        assert case == again
        assert hash(case) == hash(again)
        assert case.spec() == again.spec()

    @pytest.mark.parametrize(
        "bad",
        [
            "AR/m8/s0",  # no @SHAPE
            "AR@4x4/m8",  # missing seed
            "AR@4x4/s0",  # missing msg
            "AR@4x4/m8/s0/fx1",  # unknown fault key
            "AR@4x4/m8/s0/fn0.1",  # dead-node fraction: no longer modelled
            "AR@4x4/m8/s0/fl0.1,",  # empty fault field
            "AR@4x4/m8/s0/q9",  # unknown segment
            "AR@4x4//s0",  # empty segment
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FuzzCase.parse(bad)

    def test_unknown_fault_field_is_named(self):
        with pytest.raises(ValueError, match="'n'.* l, p, s, t"):
            FuzzCase("AR", "4x4", 8, 0, {"n": 0.1})

    def test_unknown_strategy_code_is_invalid_case(self):
        with pytest.raises(InvalidCase):
            run_cases([FuzzCase.parse("XX@4x4/m8/s0")])

    def test_pure_st_fault_fields_normalize_away(self):
        # A "fault plan" with no actual fault fraction is fault-free.
        case = FuzzCase.parse("AR@4x4/m8/s0/fs3,t2000")
        assert case.faults == {}
        assert case.spec() == "AR@4x4/m8/s0"

    def test_strategy_materialization(self):
        case = FuzzCase.parse("TPS.ax1@2x4x4/m100/s3")
        strategy = case.strategy()
        assert strategy.name == "TPS"
        assert strategy.linear_axis == 1
        point = case.to_point()
        assert point.msg_bytes == 100
        assert point.shape.dims == (2, 4, 4)
        assert point.faults is None

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--case", "AR@4x4/m8/s0/fn0.1"], "n0.1"),
            (["--case", "AR@4x4/m8"], "need /m and /s"),
            (["--budget", "xyz"], "xyz"),
            (["--jobs", "-2", "--max-cases", "1"], "jobs must be >= 0"),
        ],
        ids=["old-fault-field", "missing-seed", "budget", "jobs"],
    )
    def test_bad_input_is_a_usage_error(self, argv, named, capsys):
        # Exit 1 means "divergence reproduced"; a typo must not look
        # like one.
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and named in err

    def test_budget_parsing(self):
        assert parse_budget("60s") == 60.0
        assert parse_budget("2m") == 120.0
        assert parse_budget("15") == 15.0
        with pytest.raises(ValueError):
            parse_budget("soon")
        with pytest.raises(ValueError):
            parse_budget("-3s")


class TestSampler:
    def test_deterministic_per_seed(self):
        a = [sample_case(random.Random(11)).spec() for _ in range(1)]
        specs1 = [sample_case(random.Random(42)).spec() for _ in range(25)]
        specs2 = [sample_case(random.Random(42)).spec() for _ in range(25)]
        assert specs1 == specs2
        assert a  # distinct seed stream doesn't interfere

    def test_samples_are_materializable_and_supported(self):
        rng = random.Random(9)
        for _ in range(40):
            case = sample_case(rng)
            strategy = case.strategy()
            shape = case.torus_shape()
            assert strategy.supports(shape)
            assert 2 <= shape.nnodes <= 64
            case.fault_plan()  # must not raise: pre-validated

    def test_domain_coverage(self):
        rng = random.Random(0)
        specs = [sample_case(rng) for _ in range(120)]
        ndims = {len(c.torus_shape().dims) for c in specs}
        assert ndims == {1, 2, 3}
        assert any("M" in c.shape for c in specs), "no mesh axes sampled"
        assert any(
            1 in c.torus_shape().dims for c in specs
        ), "no extent-1 axes sampled"
        assert any(c.faults for c in specs)
        assert any(not c.faults for c in specs)


@pytest.mark.fuzz
class TestFuzzRuns:
    def test_short_clean_run(self, capsys):
        assert main(["--budget", "3s", "--seed", "1", "--max-cases", "6"]) == 0
        out = capsys.readouterr().out
        assert "fuzz clean" in out

    def test_replay_case(self, capsys):
        assert main(["--case", "AR@2x2/m8/s0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_self_test_catches_and_shrinks(self, capsys):
        assert main(["--self-test"]) == 0
        out = capsys.readouterr().out
        assert "self-test OK" in out
        assert "exactly_once" in out
        reproducer_lines = [
            l for l in out.splitlines() if l.startswith("REPRODUCER: ")
        ]
        assert len(reproducer_lines) == 1
        # The reproducer is a single line that replays through --case.
        spec = reproducer_lines[0].split("--case ")[1].strip().strip("'")
        case = FuzzCase.parse(spec)
        with broken_dedup():
            report = _run_one(case)
        assert report is not None and not report.ok


@pytest.mark.fuzz
class TestShrinker:
    def test_shrinks_toward_minimal(self):
        big = FuzzCase.parse("AR@4x4x2/m256/s1/fp0.05,s3,t2000")
        with broken_dedup():
            assert not _run_one(big).ok
            small, evals = shrink(big)
            report = _run_one(small)
        assert report is not None and not report.ok
        assert evals > 0
        # Strictly simpler on every shrunk dimension.
        assert small.msg_bytes <= big.msg_bytes
        assert small.torus_shape().nnodes <= big.torus_shape().nnodes
        # Loss must survive shrinking (it is what produces duplicates).
        assert small.faults.get("p")

    def test_passing_case_shrinks_to_itself(self):
        case = FuzzCase.parse("AR@2x2/m8/s0")
        small, evals = shrink(case, max_evals=4)
        assert evals <= 4


class TestCaseWatchdog:
    def test_hung_batch_is_skipped_with_replay_spec(
        self, capsys, monkeypatch
    ):
        import time as _time

        import repro.check.fuzz as fuzz_mod

        def wedged(cases, bands=None, check=None, jobs=1):
            _time.sleep(60)

        monkeypatch.setattr(fuzz_mod, "run_cases", wedged)
        rc = fuzz_mod.fuzz(
            budget_s=30.0, seed=0, max_cases=1, jobs=1, case_timeout=0.2
        )
        out = capsys.readouterr().out
        # A hung case must not fail the run — it is skipped and reported
        # with its exact replay command.
        assert rc == 0
        assert "TIMEOUT" in out
        assert "REPLAY: python -m repro.check.fuzz --case '" in out
        assert "1 skipped on the watchdog" in out
        # The printed spec round-trips through the grammar.
        replay_line = next(
            l for l in out.splitlines() if l.strip().startswith("REPLAY:")
        )
        spec = replay_line.split("--case ")[1].strip().strip("'")
        FuzzCase.parse(spec)

    def test_hung_shrink_candidate_is_skipped(self, monkeypatch):
        import time as _time

        import repro.check.fuzz as fuzz_mod

        def wedged(case, bands=None, check=None):
            _time.sleep(60)

        monkeypatch.setattr(fuzz_mod, "_run_one", wedged)
        case = FuzzCase.parse("AR@4x4/m64/s1")
        t0 = _time.monotonic()
        small, evals = shrink(case, max_evals=3, case_timeout=0.2)
        # Every candidate hung -> every candidate skipped -> the original
        # case survives, and the walk stays time-bounded.
        assert small == case
        assert evals == 3
        assert _time.monotonic() - t0 < 30

    def test_zero_disables_the_watchdog(self, capsys):
        from repro.check.fuzz import main

        # --case-timeout 0 must parse and run a tiny clean sweep.
        assert main(["--max-cases", "2", "--case-timeout", "0"]) == 0
        assert "fuzz clean" in capsys.readouterr().out
