"""Seeded, time-boxed differential fuzzing of the whole stack.

Samples random configurations — shapes (including degenerate, asymmetric
and extent-1 axes, torus and mesh), strategies, message sizes, seeds and
fault plans — and pushes each through :func:`repro.check.differential
.differential_points`: oracle-checked simulation, model tolerance band,
functional payload-permutation check.  Any divergence is **shrunk** to a
minimal still-failing configuration and printed as a one-line reproducer::

    REPRODUCER: python -m repro.check.fuzz --case 'AR@4x4/m8/s0/fp0.05,t2000'

Run it time-boxed (CI runs a fixed seed for 60 s)::

    python -m repro.check.fuzz --budget 60s --seed 7

Every case is a short spec string — ``STRAT@SHAPE/mBYTES/sSEED[/fFAULTS]``
with strategy codes AR, DR, THR, MPI, TPS[.axN], CTPS[.axN], VM; shapes in
:meth:`~repro.model.torus.TorusShape.parse` grammar; and fault fields
``l`` (dead-link fraction), ``p`` (loss probability), ``s`` (fault seed)
and ``t`` (retransmission timeout, cycles).  ``--case`` replays one spec
exactly; a malformed spec, budget or job count is a usage error (exit 2);
``--self-test`` sabotages the receiver-side dedup in-process and proves
the exactly-once oracle catches it and the shrinker still produces a
one-liner (CI runs this before the clean sweep).
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from repro.check.config import CheckConfig
from repro.check.differential import (
    DifferentialReport,
    ToleranceBands,
    differential_points,
)
from repro.model.torus import TorusShape
from repro.runner.pool import resolve_jobs
from repro.runner.supervise import PointTimeoutError, watchdog
from repro.net.errors import PartitionedNetworkError
from repro.net.faults import FaultPlan
from repro.strategies import (
    ARDirect,
    CreditedTPS,
    DRDirect,
    MPIDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)

#: Fault-spec fields, in canonical spec order.
_FAULT_KEYS = ("l", "p", "s", "t")
_FAULT_DEFAULTS = {"l": 0.0, "p": 0.0, "s": 0, "t": 50000.0}


@dataclass(frozen=True)
class FuzzCase:
    """One fuzzed configuration, round-trippable through its spec string."""

    strat: str  # AR | DR | THR | MPI | TPS[.axN] | CTPS[.axN] | VM
    shape: str  # TorusShape.parse grammar, e.g. "2x4x4" or "8x8M"
    msg_bytes: int
    seed: int = 0
    #: Fault fields (subset of _FAULT_KEYS); empty dict = fault-free.
    faults: dict = field(default_factory=dict, hash=False, compare=False)
    _fault_items: tuple = field(default=(), init=False)

    def __post_init__(self) -> None:
        for k in self.faults:
            if k not in _FAULT_KEYS:
                raise ValueError(
                    f"unknown fault field {k!r}; fault fields are "
                    f"{', '.join(_FAULT_KEYS)}"
                )
        # Frozen-dataclass hashability: mirror the dict as a sorted tuple.
        clean = {
            k: v
            for k, v in self.faults.items()
            if v != _FAULT_DEFAULTS[k] or k in ("s", "t")
        }
        if not any(clean.get(k, 0) for k in ("l", "p")):
            clean = {}
        object.__setattr__(self, "faults", clean)
        object.__setattr__(
            self, "_fault_items", tuple(sorted(clean.items()))
        )

    def __hash__(self) -> int:
        return hash(
            (self.strat, self.shape, self.msg_bytes, self.seed,
             self._fault_items)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuzzCase):
            return NotImplemented
        return (
            self.strat, self.shape, self.msg_bytes, self.seed,
            self._fault_items,
        ) == (
            other.strat, other.shape, other.msg_bytes, other.seed,
            other._fault_items,
        )

    # ---------------------------------------------------------- #
    # spec grammar
    # ---------------------------------------------------------- #

    def spec(self) -> str:
        """The one-line reproducer form of this case."""
        parts = [
            f"{self.strat}@{self.shape}",
            f"m{self.msg_bytes}",
            f"s{self.seed}",
        ]
        if self.faults:
            fields = []
            for key in _FAULT_KEYS:
                if key in self.faults:
                    val = self.faults[key]
                    fields.append(f"{key}{val:g}")
            parts.append("f" + ",".join(fields))
        return "/".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "FuzzCase":
        """Inverse of :meth:`spec`; raises ValueError on a malformed
        string."""
        head, *rest = spec.strip().split("/")
        if "@" not in head:
            raise ValueError(f"bad case spec {spec!r}: missing STRAT@SHAPE")
        strat, shape = head.split("@", 1)
        msg_bytes = seed = None
        faults: dict = {}
        for part in rest:
            if not part:
                raise ValueError(f"bad case spec {spec!r}: empty segment")
            tag, body = part[0], part[1:]
            if tag == "m":
                msg_bytes = int(body)
            elif tag == "s":
                seed = int(body)
            elif tag == "f":
                for item in body.split(","):
                    key, value = item[:1], item[1:]
                    if key not in _FAULT_KEYS:
                        raise ValueError(
                            f"bad fault field {item!r} in {spec!r}"
                        )
                    faults[key] = (
                        int(value) if key == "s" else float(value)
                    )
            else:
                raise ValueError(f"bad segment {part!r} in {spec!r}")
        if msg_bytes is None or seed is None:
            raise ValueError(f"bad case spec {spec!r}: need /m and /s")
        return cls(strat, shape, msg_bytes, seed, faults)

    # ---------------------------------------------------------- #
    # materialization
    # ---------------------------------------------------------- #

    def strategy(self):
        code, _, ax = self.strat.partition(".ax")
        axis = int(ax) if ax else None
        if code == "AR":
            return ARDirect()
        if code == "DR":
            return DRDirect()
        if code == "THR":
            return ThrottledAR()
        if code == "MPI":
            return MPIDirect()
        if code == "TPS":
            return TwoPhaseSchedule(linear_axis=axis)
        if code == "CTPS":
            return CreditedTPS(linear_axis=axis)
        if code == "VM":
            return VirtualMesh2D()
        raise ValueError(f"unknown strategy code {self.strat!r}")

    def torus_shape(self) -> TorusShape:
        return TorusShape.parse(self.shape)

    def fault_plan(self) -> Optional[FaultPlan]:
        if not self.faults:
            return None
        f = dict(_FAULT_DEFAULTS, **self.faults)
        return FaultPlan.random(
            self.torus_shape(),
            seed=int(f["s"]),
            dead_link_fraction=f["l"],
            loss_prob=f["p"],
            retx_timeout_cycles=f["t"],
        )

    def to_point(self):
        from repro.runner.point import SimPoint

        return SimPoint(
            self.strategy(),
            self.torus_shape(),
            self.msg_bytes,
            seed=self.seed,
            faults=self.fault_plan(),
        )


class InvalidCase(Exception):
    """The case cannot be materialized (e.g. the fault fractions
    partition this shape) — not a finding, just an unlucky draw."""


def run_cases(
    cases: list,
    bands: Optional[ToleranceBands] = None,
    check: Optional[CheckConfig] = None,
    jobs: int = 1,
) -> list:
    """Differentially check *cases*; one report per case, in order.

    Materialization errors (ValueError / PartitionedNetworkError from an
    unluckily-drawn config) surface as :class:`InvalidCase`."""
    points = []
    for case in cases:
        try:
            points.append(case.to_point())
        except (ValueError, PartitionedNetworkError) as exc:
            raise InvalidCase(f"{case.spec()}: {exc}") from exc
    return differential_points(points, bands=bands, check=check, jobs=jobs)


def _run_one(
    case: FuzzCase,
    bands: Optional[ToleranceBands] = None,
    check: Optional[CheckConfig] = None,
) -> Optional[DifferentialReport]:
    """One case's report, or None when the case is invalid."""
    try:
        return run_cases([case], bands=bands, check=check)[0]
    except InvalidCase:
        return None


# ------------------------------------------------------------------ #
# sampling
# ------------------------------------------------------------------ #

_EXTENTS = (1, 2, 3, 4, 5, 8)
_MSG_SIZES = (8, 17, 64, 100, 256, 512, 1024, 2048, 4096)
_MAX_NODES = 64


def sample_case(rng: random.Random) -> FuzzCase:
    """Draw one configuration: shape (1–3 dims, extent-1 and mesh axes
    allowed, ≤ 64 nodes), a strategy that supports it, message size,
    seed, and — with probability ~0.4 — a connected fault plan."""
    while True:
        ndim = rng.choice((1, 2, 3))
        dims = []
        for _ in range(ndim):
            dims.append(rng.choice(_EXTENTS))
        nnodes = 1
        for d in dims:
            nnodes *= d
        if nnodes < 2 or nnodes > _MAX_NODES:
            continue
        shape_s = "x".join(
            str(d) + ("M" if rng.random() < 0.25 else "")
            for d in dims
        )
        shape = TorusShape.parse(shape_s)

        codes = ["AR", "DR", "THR", "MPI", "VM"]
        if ndim >= 2:
            codes += ["TPS", "CTPS"]
        strat = rng.choice(codes)
        if strat in ("TPS", "CTPS") and rng.random() < 0.5:
            # Force the linear axis sometimes (only onto a non-degenerate
            # axis; the paper rule would never pick an extent-1 line).
            wide = [a for a, d in enumerate(dims) if d >= 2]
            if wide:
                strat += f".ax{rng.choice(wide)}"

        msg = rng.choice(_MSG_SIZES)
        seed = rng.randrange(1000)

        faults: dict = {}
        if rng.random() < 0.4:
            faults = {
                "s": rng.randrange(100),
                "t": rng.choice((2000.0, 50000.0)),
            }
            if rng.random() < 0.5:
                faults["l"] = rng.choice((0.05, 0.1))
            if rng.random() < 0.5:
                faults["p"] = rng.choice((0.02, 0.05))

        case = FuzzCase(strat, shape_s, msg, seed, faults)
        try:
            strategy = case.strategy()
            if not strategy.supports(shape):
                continue
            case.fault_plan()  # connectivity rejection happens here
        except (ValueError, PartitionedNetworkError):
            continue
        return case


# ------------------------------------------------------------------ #
# shrinking
# ------------------------------------------------------------------ #

def _shrink_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Strictly-simpler variants of *case*, most aggressive first."""
    if case.faults:
        yield replace(case, faults={})
        for key in ("l", "p"):
            if case.faults.get(key):
                f = dict(case.faults)
                f.pop(key)
                yield replace(case, faults=f)
        if case.faults.get("s"):
            yield replace(case, faults=dict(case.faults, s=0))
    if case.msg_bytes > 8:
        yield replace(case, msg_bytes=max(8, case.msg_bytes // 2))
    dims = case.shape.replace("M", " M").split("x")
    parsed = [
        (int(d.split()[0]), d.endswith("M")) for d in [s.strip() for s in dims]
    ]
    for i, (extent, mesh) in enumerate(parsed):
        if extent >= 2:
            smaller = list(parsed)
            smaller[i] = (extent // 2, mesh)
            nnodes = 1
            for e, _ in smaller:
                nnodes *= e
            if nnodes >= 2:  # a 1-node "exchange" is vacuous, not smaller
                shape_s = "x".join(
                    f"{e}{'M' if m else ''}" for e, m in smaller
                )
                yield replace(case, shape=shape_s)
    if case.seed != 0:
        yield replace(case, seed=0)


def shrink(
    case: FuzzCase,
    bands: Optional[ToleranceBands] = None,
    check: Optional[CheckConfig] = None,
    max_evals: int = 48,
    case_timeout: Optional[float] = None,
) -> tuple[FuzzCase, int]:
    """Greedily reduce *case* to a minimal still-failing config.

    Returns ``(smallest failing case, evaluations spent)``.  Candidates
    that become valid-and-passing (or invalid) are skipped; the first
    still-failing candidate restarts the walk from there.  With
    *case_timeout* set, a candidate that hangs past it is skipped like
    a passing one — the shrinker keeps the last *reproducibly* failing
    case rather than stalling the whole budget."""
    evals = 0
    while evals < max_evals:
        for candidate in _shrink_candidates(case):
            if candidate == case:
                continue
            evals += 1
            try:
                with watchdog(case_timeout, f"shrink {candidate.spec()}"):
                    report = _run_one(candidate, bands=bands, check=check)
            except PointTimeoutError:
                report = None
            if report is not None and not report.ok:
                case = candidate
                break
            if evals >= max_evals:
                return case, evals
        else:
            break  # no candidate still fails: minimal
    return case, evals


# ------------------------------------------------------------------ #
# self-test sabotage
# ------------------------------------------------------------------ #

@contextlib.contextmanager
def broken_dedup() -> Iterator[None]:
    """Sabotage the receiver-side dedup for the dynamic extent of the
    block: duplicate sequence numbers reach the program twice, which the
    ``exactly_once`` oracle must catch.  In-process only (the self-test
    runs its points sequentially, never on the pool)."""
    from repro.net.faultsim import FaultyTorusNetwork
    from repro.net.simulator import TorusNetwork

    def sabotaged(self, u, h):
        seq = self._P_seq[h]
        if seq >= 0:
            # The bug under injection: record the seq but never check it.
            self._delivered_seqs.add(seq)
            self._outstanding.pop(seq, None)
        TorusNetwork._finish_delivery(self, u, h)

    original = FaultyTorusNetwork._finish_delivery
    FaultyTorusNetwork._finish_delivery = sabotaged
    try:
        yield
    finally:
        FaultyTorusNetwork._finish_delivery = original


#: A case whose loss rate + tight retransmission timeout reliably races
#: retransmitted twins against slow originals (thousands of duplicates).
_SELF_TEST_CASE = "AR@4x4x2/m256/s1/fp0.05,s3,t2000"


def self_test(verbose: bool = False) -> int:
    """Prove the harness catches an injected invariant violation.

    Sabotages dedup, checks the oracle trips on a duplicate-heavy case,
    then shrinks it to a one-line reproducer.  Returns a process exit
    code (0 = the oracle caught the bug)."""
    case = FuzzCase.parse(_SELF_TEST_CASE)
    with broken_dedup():
        report = _run_one(case)
        if report is None or report.ok:
            print("SELF-TEST FAILED: sabotaged dedup was not detected")
            return 1
        if not any("exactly_once" in f for f in report.failures):
            print(
                "SELF-TEST FAILED: sabotage detected but not by the "
                f"exactly-once oracle: {report.failures}"
            )
            return 1
        if verbose:
            print(f"sabotage detected: {report.failures[0][:120]}")
        small, evals = shrink(case)
        small_report = _run_one(small)
    if small_report is None or small_report.ok:
        print("SELF-TEST FAILED: shrunk case does not reproduce")
        return 1
    print(
        f"self-test OK: injected dedup bug caught by the exactly_once "
        f"oracle and shrunk in {evals} evals"
    )
    print(f"REPRODUCER: python -m repro.check.fuzz --case '{small.spec()}'")
    return 0


# ------------------------------------------------------------------ #
# driver
# ------------------------------------------------------------------ #

def parse_budget(text: str) -> float:
    """'60s', '2m' or plain seconds -> seconds."""
    text = text.strip().lower()
    mult = 1.0
    if text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        text, mult = text[:-1], 60.0
    try:
        value = float(text) * mult
    except ValueError:
        raise ValueError(f"bad budget {text!r}") from None
    if value <= 0:
        raise ValueError("budget must be positive")
    return value


def fuzz(
    budget_s: float,
    seed: int,
    max_cases: Optional[int] = None,
    jobs: int = 1,
    verbose: bool = False,
    case_timeout: Optional[float] = 30.0,
) -> int:
    """Time-boxed random sweep; returns a process exit code.

    *case_timeout* bounds the wall clock each sampled case may consume
    (scaled by batch size when ``jobs > 1`` batches cases together), so
    one pathological draw — e.g. heavy loss against a tight
    retransmission timeout — cannot eat the whole budget.  A case
    skipped on the watchdog is reported with its replay spec and does
    not fail the run; skips are counted in the final summary."""
    rng = random.Random(seed)
    bands = None  # default_bands(), resolved inside the legs
    check = CheckConfig()
    deadline = time.monotonic() + budget_s
    cases_run = 0
    skipped = 0
    batch_size = max(1, jobs)
    while time.monotonic() < deadline:
        if max_cases is not None and cases_run >= max_cases:
            break
        batch = [sample_case(rng) for _ in range(batch_size)]
        if max_cases is not None:
            batch = batch[: max_cases - cases_run]
        batch_timeout = case_timeout * len(batch) if case_timeout else None
        try:
            with watchdog(batch_timeout, "fuzz batch"):
                reports = run_cases(
                    batch, bands=bands, check=check, jobs=jobs
                )
        except InvalidCase as exc:
            if verbose:
                print(f"skip invalid: {exc}")
            continue
        except PointTimeoutError:
            cases_run += len(batch)
            skipped += len(batch)
            print(
                f"TIMEOUT: batch of {len(batch)} case(s) exceeded the "
                f"{batch_timeout:g}s watchdog; skipped"
            )
            for case in batch:
                print(
                    "  REPLAY: python -m repro.check.fuzz "
                    f"--case '{case.spec()}'"
                )
            continue
        for case, report in zip(batch, reports):
            cases_run += 1
            if verbose:
                print(report.summary())
            if report.ok:
                continue
            print(f"FAILURE after {cases_run} case(s): {case.spec()}")
            for failure in report.failures:
                print(f"  - {failure}")
            small, evals = shrink(
                case, bands=bands, check=check, case_timeout=case_timeout
            )
            print(f"shrunk in {evals} evals: {small.spec()}")
            print(
                "REPRODUCER: python -m repro.check.fuzz "
                f"--case '{small.spec()}'"
            )
            return 1
    elapsed = budget_s - max(0.0, deadline - time.monotonic())
    note = f", {skipped} skipped on the watchdog" if skipped else ""
    print(
        f"fuzz clean: {cases_run} case(s) in {elapsed:.1f}s "
        f"(seed {seed}, all three engines agree{note})"
    )
    return 0


def replay(case: FuzzCase, verbose: bool = False) -> int:
    """Re-run one case exactly; returns a process exit code."""
    report = _run_one(case)
    if report is None:
        print(f"invalid case (cannot materialize): {case.spec()}")
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.fuzz",
        description="Differential fuzzing: simulator vs model vs "
        "functional engine, with invariant oracles on.",
    )
    parser.add_argument(
        "--budget", default="60s",
        help="wall-clock budget, e.g. 60s or 2m (default 60s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="sampler seed (default 0)"
    )
    parser.add_argument(
        "--max-cases", type=int, default=None,
        help="stop after this many cases even if budget remains",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="simulator legs per pooled batch (default 1, in-process)",
    )
    parser.add_argument(
        "--case-timeout", type=float, default=30.0, metavar="SECONDS",
        help="wall-clock watchdog per sampled case (default 30; "
        "0 disables) — a hung case is skipped and reported with its "
        "replay spec instead of eating the budget",
    )
    parser.add_argument(
        "--case", default=None, metavar="SPEC",
        help="replay one case spec instead of sampling",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="inject a dedup bug and prove the oracle + shrinker catch it",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every case verdict",
    )
    args = parser.parse_args(argv)
    try:
        budget_s = parse_budget(args.budget)
        resolve_jobs(args.jobs)
        case = None if args.case is None else FuzzCase.parse(args.case)
    except ValueError as exc:
        parser.error(str(exc))
    if args.self_test:
        return self_test(verbose=args.verbose)
    if case is not None:
        return replay(case, verbose=args.verbose)
    return fuzz(
        budget_s,
        args.seed,
        max_cases=args.max_cases,
        jobs=args.jobs,
        verbose=args.verbose,
        case_timeout=args.case_timeout or None,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
