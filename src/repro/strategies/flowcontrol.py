"""Credit-based flow control for bounded intermediate memory (Section 5).

The paper's production-readiness note: TPS buffers other nodes' data at
intermediates, and for very large messages that memory must be bounded.
"This can be solved ... by a credit-based flow control algorithm in which
the intermediate nodes send back short 'credit' packets to the sources
after forwarding along some number of (large) packets.  Notice, for
example, if one 32 byte credit packet is sent for every ten 256 byte
all-to-all packets, the bandwidth overhead is only about 1%."

:class:`CreditedTPS` implements exactly that on top of the Two Phase
Schedule: each source may have at most ``window`` un-credited phase-1
packets outstanding per intermediate; the intermediate returns one 32 B
credit packet per ``packets_per_credit`` packets it forwards, and each
credit releases the next deferred packets at the source.  The benchmark
``benchmarks/test_ablations.py`` sweeps the credit period to reproduce the
~1 % overhead claim, and the program reports the peak number of
un-forwarded packets buffered at any intermediate so tests can pin the
memory bound.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Iterator, Optional

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.packet import PacketSpec, RoutingMode
from repro.strategies.data import PHASE_CREDIT, kind_of_tag
from repro.strategies.tps import PHASE2_GROUP, TPSProgram, TwoPhaseSchedule
from repro.util.validation import check_positive_int, require

#: Wire size of a credit packet (paper: one 32 B packet; the runtime's
#: minimum packet is 64 B, which it also supports for credits on real
#: hardware via packet coalescing — we use the paper's 32 B figure).
CREDIT_WIRE_BYTES = 32


class CreditedTPSProgram(TPSProgram):
    """TPS with per-(source, intermediate) windowed phase-1 injection.

    The injection plan emits at most ``window`` packets per intermediate
    up front and defers the rest; credits delivered back to the source
    release deferred packets through the forwarding queue.
    """

    def __init__(
        self,
        *args,
        window: int = 20,
        packets_per_credit: int = 10,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        check_positive_int(window, "window")
        check_positive_int(packets_per_credit, "packets_per_credit")
        require(
            packets_per_credit <= window,
            "packets_per_credit must not exceed the window or the source "
            "stalls forever",
        )
        self.window = window
        self.packets_per_credit = packets_per_credit
        # source -> intermediate -> deferred specs.
        self._deferred: list[dict[int, deque[PacketSpec]]] = [
            defaultdict(deque) for _ in range(self.shape.nnodes)
        ]
        # Credits that arrived while nothing was deferred yet (the plan is
        # consumed lazily, so an early credit must pre-authorize later
        # sends instead of evaporating).
        self._credit_balance: list[dict[int, int]] = [
            defaultdict(int) for _ in range(self.shape.nnodes)
        ]
        # intermediate -> source -> packets forwarded since last credit.
        self._fwd_count: list[dict[int, int]] = [
            defaultdict(int) for _ in range(self.shape.nnodes)
        ]
        #: Credit packets sent (for overhead accounting).
        self.credits_sent = 0
        #: Credit specs, one per source they return to.
        self._credits: dict[int, PacketSpec] = {}

    # -------------------------------------------------------------- #

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        sent_to: dict[int, int] = defaultdict(int)
        for spec in super().injection_plan(node):
            if spec.fifo_group == PHASE2_GROUP or spec.dst == spec.final_dst:
                # Phase-2-direct packets don't buffer at an intermediate.
                yield spec
                continue
            mid = spec.dst
            if sent_to[mid] < self.window:
                sent_to[mid] += 1
                yield spec
            elif self._credit_balance[node][mid] > 0:
                # A credit already arrived for this intermediate: spend it
                # instead of deferring.
                self._credit_balance[node][mid] -= 1
                yield spec
            else:
                self._deferred[node][mid].append(spec)

    def on_delivery(
        self, node: int, src: int, spec: PacketSpec
    ) -> Iterable[PacketSpec]:
        if kind_of_tag(spec.tag) == PHASE_CREDIT:
            # A credit from intermediate `src`: release the next deferred
            # packets toward it; any unused allowance banks as balance
            # for packets the (lazy) plan has not deferred yet.
            out = []
            dq = self._deferred[node].get(src)
            take = 0
            if dq:
                take = min(self.packets_per_credit, len(dq))
                for _ in range(take):
                    out.append(dq.popleft())
            if take < self.packets_per_credit:
                self._credit_balance[node][src] += (
                    self.packets_per_credit - take
                )
            return out
        if spec.final_dst == node:
            return ()
        # Intermediate forwarding (phase 1 -> phase 2), plus credit logic.
        out = list(super().on_delivery(node, src, spec))
        cnt = self._fwd_count[node]
        cnt[src] += 1
        if cnt[src] >= self.packets_per_credit:
            cnt[src] = 0
            self.credits_sent += 1
            credit = self._credits.get(src)
            if credit is None:
                credit = self._credits[src] = PacketSpec(
                    dst=src,
                    wire_bytes=CREDIT_WIRE_BYTES,
                    mode=RoutingMode.ADAPTIVE,
                    fifo_group=PHASE2_GROUP,
                    new_message=False,
                    tag=PHASE_CREDIT,
                    payload_bytes=0,
                )
            out.append(credit)
        return out

    def expected_final_deliveries(self) -> int:
        # Data deliveries plus every credit packet (credits are final at
        # the source).  Credits are emitted deterministically: one per
        # packets_per_credit phase-1 packets forwarded per (mid, src).
        base = super().expected_final_deliveries()
        npk = len(self.packet_sizes)
        total_credits = 0
        p = self.shape.nnodes
        for src in range(p):
            per_mid: dict[int, int] = defaultdict(int)
            for dst in range(p):
                if dst == src:
                    continue
                mid = self.intermediate_for(src, dst)
                if mid != src and mid != dst:
                    per_mid[mid] += npk
            for n in per_mid.values():
                total_credits += n // self.packets_per_credit
        return base + total_credits


class CreditedTPS(TwoPhaseSchedule):
    """Two Phase Schedule with credit-based intermediate flow control."""

    name = "TPS-credit"
    fifo_groups = 2

    def __init__(
        self,
        window: int = 20,
        packets_per_credit: int = 10,
        linear_axis: Optional[int] = None,
    ) -> None:
        super().__init__(linear_axis=linear_axis)
        check_positive_int(window, "window")
        check_positive_int(packets_per_credit, "packets_per_credit")
        require(
            packets_per_credit <= window,
            "packets_per_credit must not exceed the window or the source "
            "stalls forever",
        )
        self.window = window
        self.packets_per_credit = packets_per_credit

    def build_program(
        self,
        shape: TorusShape,
        msg_bytes: int,
        params: Optional[MachineParams] = None,
        seed: int = 0,
        carry_data: bool = False,
    ) -> CreditedTPSProgram:
        params = params or MachineParams.bluegene_l()
        return CreditedTPSProgram(
            shape,
            msg_bytes,
            params,
            seed,
            carry_data,
            linear_axis=self.linear_axis,
            packets_per_round=self.packets_per_round,
            pipelined=self.pipelined,
            window=self.window,
            packets_per_credit=self.packets_per_credit,
        )

    def credit_bandwidth_overhead(self, params: Optional[MachineParams] = None) -> float:
        """Predicted fractional bandwidth overhead of the credit traffic:
        one credit packet per ``packets_per_credit`` full data packets."""
        params = params or MachineParams.bluegene_l()
        return CREDIT_WIRE_BYTES / (
            self.packets_per_credit * params.packet_max_bytes
        )
