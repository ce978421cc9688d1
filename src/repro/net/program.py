"""Node programs: what each node injects and how it reacts to deliveries.

A :class:`NodeProgram` is the contract between an all-to-all *strategy*
(:mod:`repro.strategies`) and the network simulator
(:mod:`repro.net.simulator`).  It supplies each node's (lazily generated)
injection plan, reacts to packet deliveries — possibly returning more
packets to inject, which is how indirect strategies forward — and declares
how many *final* deliveries the run must produce (used as a sanity check on
completion).  A delivery hands the program the very :class:`PacketSpec`
the source injected, plus the source's rank: the spec already names the
packet's final destination, tag and sizes, so nothing is built per
delivery.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.net.packet import PacketSpec


@runtime_checkable
class NodeProgram(Protocol):
    """Behavior of every node during one simulated collective."""

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        """Ordered packets node *node* injects on its own behalf."""
        ...

    def on_delivery(
        self, node: int, src: int, spec: PacketSpec
    ) -> Iterable[PacketSpec]:
        """Called when *node*'s CPU drains the packet node *src* injected
        from *spec*.

        Return packets to forward (empty for final deliveries).  A delivery
        is *final* iff ``spec.final_dst == node``; forwarding programs
        must return the onward specs for non-final deliveries.
        """
        ...

    def expected_final_deliveries(self) -> int:
        """Total final deliveries across all nodes (sanity check)."""
        ...

    def pace_cycles(self, node: int) -> float:
        """Minimum spacing between consecutive *plan* injections at *node*
        (0 = unthrottled).  Used by the throttled-AR strategy."""
        ...


class BaseProgram:
    """Convenience base with no forwarding and no pacing."""

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        raise NotImplementedError

    def on_delivery(
        self, node: int, src: int, spec: PacketSpec
    ) -> Iterable[PacketSpec]:
        if spec.final_dst != node:
            raise RuntimeError(
                f"non-final packet delivered to node {node} under a "
                f"non-forwarding program (final_dst={spec.final_dst})"
            )
        return ()

    def expected_final_deliveries(self) -> int:
        raise NotImplementedError

    def pace_cycles(self, node: int) -> float:
        return 0.0


class ListProgram(BaseProgram):
    """A program from explicit per-node spec lists (tests, ad-hoc traffic).

    ``plans[node]`` is the ordered list of :class:`PacketSpec` that node
    injects.  Every spec must be a final delivery (no forwarding).
    """

    def __init__(self, plans: Sequence[Sequence[PacketSpec]]) -> None:
        self._plans = [list(p) for p in plans]
        self._total = sum(len(p) for p in self._plans)

    def injection_plan(self, node: int) -> Iterator[PacketSpec]:
        return iter(self._plans[node])

    def expected_final_deliveries(self) -> int:
        return self._total
