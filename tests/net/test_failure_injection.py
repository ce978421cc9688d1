"""Failure injection: broken programs must be *detected*, not silently
tolerated.  The simulator's quiescence and delivery accounting, and the
functional engine's exchange verification, are the safety nets these
tests exercise.
"""

import pytest

from repro.functional.engine import FunctionalEngine
from repro.functional.verify import verify_exchange
from repro.model.torus import TorusShape
from repro.net import DeadlockError, PacketSpec, TorusNetwork
from repro.net.program import BaseProgram
from repro.strategies import TwoPhaseSchedule
from repro.strategies.data import ChunkTag, DataChunk


class DroppingTPS(BaseProgram):
    """A TPS-like program whose intermediate drops every 5th forward."""

    def __init__(self, inner):
        self.inner = inner
        self._count = 0

    def injection_plan(self, node):
        return self.inner.injection_plan(node)

    def on_delivery(self, node, src, spec):
        out = list(self.inner.on_delivery(node, src, spec))
        if out:
            self._count += 1
            if self._count % 5 == 0:
                return ()  # drop the forward
        return out

    def expected_final_deliveries(self):
        return self.inner.expected_final_deliveries()

    def pace_cycles(self, node):
        return 0.0


def test_dropped_forwards_detected_by_simulator():
    shape = TorusShape.parse("2x4x4")
    inner = TwoPhaseSchedule().build_program(shape, 100)
    net = TorusNetwork(shape)
    net.set_fifo_groups(2)
    with pytest.raises(DeadlockError, match="final deliveries"):
        net.run(DroppingTPS(inner))


def test_dropped_forwards_detected_functionally():
    shape = TorusShape.parse("2x4x4")
    inner = TwoPhaseSchedule().build_program(shape, 100, carry_data=True)
    res = FunctionalEngine(shape).execute(DroppingTPS(inner))
    report = verify_exchange(res, shape.nnodes, 100)
    assert not report.ok
    assert report.missing_pairs


class MisroutingProgram(BaseProgram):
    """Sends a chunk labeled for rank 2 to rank 3 (a corruption bug)."""

    def injection_plan(self, node):
        if node != 0:
            return iter(())
        bad = PacketSpec(
            dst=3,
            wire_bytes=64,
            tag=ChunkTag("direct", (DataChunk(0, 2, 0, 10),)),
            final_dst=3,
            payload_bytes=10,
        )
        return iter([bad])

    def expected_final_deliveries(self):
        return 1


def test_misrouted_chunk_detected():
    shape = TorusShape.parse("4")
    res = FunctionalEngine(shape).execute(MisroutingProgram())
    # The chunk for rank 2 never reached rank 2.
    report = verify_exchange(res, 1, 10)  # restrict universe: pair (0,2)
    # Simpler check: nothing was recorded for (0, 2).
    assert (0, 2) not in res.received


class DuplicatingProgram(BaseProgram):
    """Delivers the same chunk twice (an at-least-once bug)."""

    def injection_plan(self, node):
        if node != 0:
            return iter(())
        spec = PacketSpec(
            dst=1,
            wire_bytes=64,
            tag=ChunkTag("direct", (DataChunk(0, 1, 0, 10),)),
            final_dst=1,
            payload_bytes=10,
        )
        return iter([spec, spec])

    def expected_final_deliveries(self):
        return 2


def test_duplicate_delivery_detected():
    shape = TorusShape.parse("2")
    res = FunctionalEngine(shape).execute(DuplicatingProgram())
    report = verify_exchange(res, 2, 10)
    assert not report.ok
    assert any("overlap" in p for _, _, p in report.bad_coverage)


class OverpromisingProgram(BaseProgram):
    """Claims more deliveries than it produces."""

    def injection_plan(self, node):
        if node == 0:
            return iter([PacketSpec(dst=1, wire_bytes=64)])
        return iter(())

    def expected_final_deliveries(self):
        return 5


def test_overpromised_deliveries_detected():
    with pytest.raises(DeadlockError):
        TorusNetwork(TorusShape.parse("2")).run(OverpromisingProgram())
