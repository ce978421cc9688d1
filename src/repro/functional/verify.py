"""All-to-all personalized-exchange correctness verification.

Checks the exchange postcondition over a :class:`FunctionalResult`: every
ordered pair (src, dst), src != dst, delivered *exactly* the byte range
[0, m) of src's message for dst — full coverage, no overlap, no stray or
misdelivered chunks.  This is the invariant the property-based tests drive
across strategies, shapes, message sizes and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.functional.engine import FunctionalEngine, FunctionalResult
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faults import FaultPlan


@dataclass
class VerificationReport:
    """Outcome of verifying one functional execution."""

    ok: bool
    missing_pairs: list[tuple[int, int]] = field(default_factory=list)
    bad_coverage: list[tuple[int, int, str]] = field(default_factory=list)
    unexpected_pairs: list[tuple[int, int]] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return "all-to-all exchange verified: every pair covered exactly once"
        return (
            f"FAILED: {len(self.missing_pairs)} missing pairs, "
            f"{len(self.bad_coverage)} mis-covered pairs, "
            f"{len(self.unexpected_pairs)} unexpected pairs"
        )


def verify_exchange(
    result: FunctionalResult,
    nnodes: int,
    msg_bytes: int,
) -> VerificationReport:
    """Verify the all-to-all postcondition on *result*."""
    report = VerificationReport(ok=True)
    seen = set(result.received.keys())
    for (src, dst), chunks in result.received.items():
        if (
            src == dst
            or not (0 <= src < nnodes)
            or not (0 <= dst < nnodes)
        ):
            report.unexpected_pairs.append((src, dst))
            continue
        intervals = sorted((c.offset, c.offset + c.nbytes) for c in chunks)
        pos = 0
        problem = None
        for lo, hi in intervals:
            if lo < pos:
                problem = f"overlap at byte {lo}"
                break
            if lo > pos:
                problem = f"gap at byte {pos}"
                break
            pos = hi
        if problem is None and pos != msg_bytes:
            problem = f"covered {pos} of {msg_bytes} bytes"
        if problem is not None:
            report.bad_coverage.append((src, dst, problem))
    for src in range(nnodes):
        for dst in range(nnodes):
            if src != dst and (src, dst) not in seen:
                report.missing_pairs.append((src, dst))
    report.ok = not (
        report.missing_pairs or report.bad_coverage or report.unexpected_pairs
    )
    return report


def run_and_verify(
    strategy,
    shape: TorusShape,
    msg_bytes: int,
    params: MachineParams | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
) -> tuple[FunctionalResult, VerificationReport]:
    """Build a data-carrying program for *strategy*, execute it functionally
    and verify the exchange.  The one-call correctness check used by tests
    and examples.

    With ``faults``, the engine emulates packet loss + retransmission +
    dedup; the postcondition is the same."""
    params = params or MachineParams.bluegene_l()
    program = strategy.build_program(
        shape, msg_bytes, params, seed, carry_data=True
    )
    result = FunctionalEngine(shape, faults=faults).execute(program)
    return result, verify_exchange(result, shape.nnodes, msg_bytes)
