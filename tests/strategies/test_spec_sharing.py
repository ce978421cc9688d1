"""Indirect programs share their packet specs across sources.

Without ``carry_data`` a TPS, credited-TPS or VMesh spec depends on its
network destination, final destination, phase and index in the message
(a forwarded TPS spec on its final destination and sizes), never on the
node that sends it, so every sender must hand the kernel the same object.
With ``carry_data`` the chunks name their source, so specs stay per
source and the exchange must still verify.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.functional import run_and_verify
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.faultsim import build_network
from repro.strategies import CreditedTPS, TwoPhaseSchedule, VirtualMesh2D
from repro.strategies.data import ChunkTag

BGL = MachineParams.bluegene_l()


def _kernel_specs(strategy, spec: str, m: int, seed: int = 0, calls=None):
    """Run *strategy* and return (each node's plan, forwarded spec
    batches) as the kernel received them, with the run's result.  A
    *calls* list collects each delivery hook call as (node, src, spec,
    returned specs)."""
    shape = TorusShape.parse(spec)
    prog = strategy.build_program(shape, m, BGL, seed)
    planned: list = [[] for _ in range(shape.nnodes)]
    forwarded: list = []
    plan, deliver = prog.injection_plan, prog.on_delivery

    def injection_plan(node):
        for s in plan(node):
            planned[node].append(s)
            yield s

    def on_delivery(node, src, spec):
        out = list(deliver(node, src, spec))
        if calls is not None:
            calls.append((node, src, spec, out))
        if out:
            forwarded.append(out)
        return out

    prog.injection_plan = injection_plan
    prog.on_delivery = on_delivery
    net = build_network(shape, BGL, None, None, None)
    net.set_fifo_groups(strategy.fifo_groups)
    return planned, forwarded, net.run(prog)


def _one_object_per_key(keyed) -> int:
    """Assert every key maps to a single object; return the key count."""
    ids: dict = {}
    for key, s in keyed:
        ids.setdefault(key, set()).add(id(s))
    assert all(len(v) == 1 for v in ids.values()), [
        k for k, v in ids.items() if len(v) > 1
    ][:5]
    return len(ids)


def _tps_key(s):
    # At m = 256 a message is two packets that differ in wire bytes,
    # so these fields name the packet's index too.
    return (s.dst, s.final_dst, s.tag, s.new_message, s.wire_bytes,
            s.payload_bytes, s.fifo_group)


class TestSharedWithoutData:
    def test_tps_shares_plan_and_forward_specs(self):
        plans, forwarded, res = _kernel_specs(
            TwoPhaseSchedule(), "4x4x2", 256
        )
        planned = [s for plan in plans for s in plan]
        fwd = [s for batch in forwarded for s in batch]
        assert len(planned) + len(fwd) == 2944
        keys = _one_object_per_key((_tps_key(s), s) for s in planned)
        keys += _one_object_per_key((_tps_key(s), s) for s in fwd)
        # 512 (intermediate, destination) phase-1 messages and 32
        # phase-2-direct ones, two packets each, plus one forwarded spec
        # per (destination, packet size).
        assert keys == (512 + 32) * 2 + 32 * 2 == 1152
        assert len({id(s) for s in planned + fwd}) == 1152
        assert res.final_deliveries == 32 * 31 * 2

    def test_credited_tps_shares_credits_too(self):
        plans, forwarded, _ = _kernel_specs(CreditedTPS(), "4x4x2", 256)
        planned = [s for plan in plans for s in plan]
        fwd = [s for batch in forwarded for s in batch]
        assert len(planned) + len(fwd) == 3040
        keys = _one_object_per_key((_tps_key(s), s) for s in planned)
        keys += _one_object_per_key((_tps_key(s), s) for s in fwd)
        # TPS's 1,152 plus one credit spec per source it returns to.
        assert keys == 1152 + 32
        assert len({id(s) for s in planned + fwd}) == 1184

    def test_vmesh_shares_row_and_column_messages(self):
        strategy = VirtualMesh2D()
        plans, forwarded, _ = _kernel_specs(strategy, "4x4x2", 256)
        prog = strategy.build_program(TorusShape.parse("4x4x2"), 256, BGL)
        rows, cols = len(prog.row_packets), len(prog.col_packets)
        # A plan is whole row messages and each phase-2 batch whole
        # column messages, so a spec's index is its position modulo the
        # message's packet count.
        keyed = [
            ((s.dst, s.tag, i % n), s)
            for seqs, n in ((plans, rows), (forwarded, cols))
            for seq in seqs
            for i, s in enumerate(seq)
        ]
        assert len(keyed) == 1984
        assert _one_object_per_key(keyed) == 32 * (rows + cols) == 448
        assert len({id(s) for _, s in keyed}) == 448


STRATEGIES = [TwoPhaseSchedule(), CreditedTPS(), VirtualMesh2D()]


class TestDeliveryHandsOverTheInjectedSpec:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_hook_gets_the_spec_its_source_emitted(self, strategy):
        # Every delivery hands the hook the very spec object its source
        # planned or forwarded, and that source's rank: nothing is
        # rebuilt between injection and delivery.
        calls: list = []
        plans, _, res = _kernel_specs(strategy, "4x4x2", 256, calls=calls)
        emitted = [Counter(map(id, plan)) for plan in plans]
        for node, _, _, out in calls:
            emitted[node].update(map(id, out))
        non_final = 0
        for node, src, spec, _ in calls:
            assert emitted[src][id(spec)] > 0, (node, src, spec)
            emitted[src][id(spec)] -= 1
            non_final += spec.final_dst != node
        # Each emission is delivered exactly once, and every delivery
        # reached the hook.
        assert not any(+c for c in emitted)
        assert len(calls) == res.delivered_packets
        assert non_final == res.forwarded_packets
        if strategy.name.startswith("TPS"):
            assert non_final > 0


class TestPerSourceWithData:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_chunks_name_their_source(self, strategy):
        shape = TorusShape.parse("4x4x2")
        prog = strategy.build_program(shape, 300, BGL, 3, carry_data=True)
        for node in (0, 13):
            tags = [
                s.tag for s in prog.injection_plan(node)
                if isinstance(s.tag, ChunkTag)
            ]
            assert tags
            assert {c.src for t in tags for c in t.chunks} == {node}

    @pytest.mark.parametrize("spec", ["3x5", "4x4x2"])
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_exchange_verifies(self, strategy, spec):
        _, report = run_and_verify(strategy, TorusShape.parse(spec), 300)
        assert report.ok, report
