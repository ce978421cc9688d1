"""Deterministic fault injection for the torus network.

Real torus machines lose hardware: a wire goes dark or a marginal link
drops packets.  The paper's strategies all assume a pristine torus; this
module defines the *fault model* under which the network must keep the
all-to-all complete and correct.  Faults are the network's concern
alone: strategies never see a plan, and every rank takes part.

* :class:`FaultPlan` — a declarative, seedable description of the faults in
  one run: permanently dead links and a uniform per-hop packet-loss
  probability.  A plan is data, not behavior: the same plan drives the
  timed simulator and the functional engine's loss emulation.
* :class:`FaultRoutingTable` — the routing state derived from a plan and a
  :class:`~repro.net.topology.Topology`: masked neighbor tables (a faulty
  link looks exactly like a mesh edge, ``neighbor == -1``), BFS distance
  tables over the surviving graph for adaptive minimal-progress routing,
  and up*/down* escape next-hop tables that keep the escape virtual channel
  provably deadlock-free on the now-irregular topology.

Deadlock-freedom argument (why up*/down* and not dimension-order): the
bubble escape VC's safety on a pristine torus comes from the bubble rule on
dimension-order rings.  Dead links break the rings, so instead the escape
channel routes up*/down* [Autonet/Myrinet style]: nodes are ordered by BFS
discovery from a root; a link toward a lower-ordered node is *up*, toward a
higher-ordered node is *down*, and every escape path climbs zero or more up
links then descends zero or more down links — never up after down.  Up
moves strictly decrease the order index and down moves strictly increase
it, so the escape channel dependency graph is acyclic and one free
downstream slot suffices for progress.  Adaptive packets keep using the
dynamic VCs on any surviving link that reduces BFS distance and fall back
to the escape channel, which preserves the Duato-style safety of the
pristine simulator.

Everything is deterministic: plans are frozen, random generation is seeded,
and packet-loss draws hash the (packet id, hop, link) triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.model.torus import TorusShape
from repro.net.errors import PartitionedNetworkError
from repro.net.topology import Topology
from repro.util.rng import derive_rng, derive_seed
from repro.util.validation import require

#: A directed link is named by (node, direction); direction indices follow
#: :mod:`repro.net.topology` (2*axis + 0 positive, 2*axis + 1 negative).
Link = tuple[int, int]

#: Multiplier applied to the retransmission timeout after each attempt
#: (exponential backoff).
RETX_BACKOFF = 2.0
#: Retransmission attempts after which the run aborts (an undeliverable
#: packet indicates a plan/routing bug, not bad luck: with p=1% loss, 20
#: consecutive losses has probability 1e-40).
MAX_RETX = 20
#: Samples :meth:`FaultPlan.random` draws before it gives up on finding a
#: connected plan.
PLAN_ATTEMPTS = 64


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every hardware fault in one run.

    Attributes
    ----------
    dead_links:
        Directed links that are permanently dead.  A dead wire kills both
        directions: masking treats ``(u, d)`` dead as also killing the
        reverse entry ``(v, d^1)``, so listing one direction suffices.
    loss_prob:
        Per-hop packet-loss probability on every surviving link.
    seed:
        Seed for every stochastic draw the plan induces (loss hashes).
    retx_timeout_cycles:
        Sender-side retransmission timeout for the first attempt; each
        later attempt waits :data:`RETX_BACKOFF` times longer, and the run
        aborts after :data:`MAX_RETX` attempts.
    """

    dead_links: frozenset[Link] = frozenset()
    loss_prob: float = 0.0
    seed: int = 0
    retx_timeout_cycles: float = 50_000.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dead_links", frozenset(self.dead_links))
        require(0.0 <= self.loss_prob < 1.0, "loss_prob must be in [0, 1)")
        require(
            0.0 < self.retx_timeout_cycles < math.inf,
            f"retx_timeout_cycles must be a finite number > 0, got "
            f"{self.retx_timeout_cycles}",
        )

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        """True when the plan configures no fault at all — the zero-fault
        fast path (plain :class:`~repro.net.simulator.TorusNetwork`, no
        per-packet fault checks)."""
        return not self.dead_links and self.loss_prob == 0.0

    @property
    def has_loss(self) -> bool:
        """True when links can drop packets."""
        return self.loss_prob > 0.0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls,
        shape: TorusShape,
        *,
        seed: int = 0,
        dead_link_fraction: float = 0.0,
        loss_prob: float = 0.0,
        **overrides: object,
    ) -> "FaultPlan":
        """Sample a connected fault plan for *shape*.

        Dead wires are drawn uniformly; the sample is rejected and redrawn
        (up to :data:`PLAN_ATTEMPTS` times) until the nodes remain
        connected, so a returned plan is always routable.  Raises
        :class:`PartitionedNetworkError` if no connected sample is found
        (fraction too aggressive for the shape).  *overrides* set the
        plan's other fields.
        """
        require(0.0 <= dead_link_fraction < 1.0, "dead_link_fraction range")
        topo = Topology(shape)
        wires = _physical_wires(topo)
        n_dead_links = round(dead_link_fraction * len(wires))
        for attempt in range(PLAN_ATTEMPTS):
            rng = derive_rng(seed, "faultplan", attempt)
            picks = rng.choice(len(wires), size=n_dead_links, replace=False)
            plan = cls(
                dead_links=frozenset(wires[int(i)] for i in picks),
                loss_prob=loss_prob,
                seed=seed,
                **overrides,  # type: ignore[arg-type]
            )
            if _connected(topo, plan):
                return plan
        raise PartitionedNetworkError(
            f"no connected fault plan found for {shape.label} after "
            f"{PLAN_ATTEMPTS} attempts (dead_link_fraction="
            f"{dead_link_fraction})"
        )


def _physical_wires(topo: Topology) -> list[Link]:
    """Every physical wire of *topo*, once each, as its positive-direction
    (node, direction) representative."""
    wires: list[Link] = []
    nbr = topo.neighbor
    for u in range(topo.nnodes):
        for axis in range(topo.ndim):
            d = 2 * axis  # positive direction covers each wire exactly once
            if nbr[u, d] >= 0:
                wires.append((u, d))
    return wires


def masked_neighbors(topo: Topology, plan: FaultPlan) -> list[list[int]]:
    """Neighbor table of *topo* with the plan's dead wires masked out.

    A dead link (either direction listed) becomes ``-1`` in both
    directions — indistinguishable from a mesh edge, which is exactly the
    invariant the simulator's hot path already enforces (``neighbor ==
    -1`` links never win arbitration).
    """
    base = topo.neighbor.tolist()
    for u, d in plan.dead_links:
        v = base[u][d]
        if v >= 0:
            base[u][d] = -1
            base[v][d ^ 1] = -1
    return base


def _check_names(topo: Topology, plan: FaultPlan) -> None:
    """Reject a dead link that names no link of *topo*.

    A plan is data, checked where it first meets a topology: unchecked,
    a negative index would wrap into another node's slot of the flat
    tables and an out-of-range one would fail deep inside a run."""
    p, ndirs = topo.nnodes, topo.ndirs
    for u, d in plan.dead_links:
        if not (0 <= u < p and 0 <= d < ndirs):
            raise ValueError(
                f"fault plan dead_links entry {(u, d)!r} is not a link of "
                f"{topo.shape.label} (nodes 0..{p - 1}, directions "
                f"0..{ndirs - 1})"
            )


def _connected(topo: Topology, plan: FaultPlan) -> bool:
    """Whether the nodes still form one connected component."""
    nbr = masked_neighbors(topo, plan)
    seen = bytearray(topo.nnodes)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbr[u]:
                if v >= 0 and not seen[v]:
                    seen[v] = 1
                    count += 1
                    nxt.append(v)
        frontier = nxt
    return count == topo.nnodes


class FaultRoutingTable:
    """Fault-aware routing state for one (topology, plan) pair.

    Built once per simulation (guarded setup — the zero-fault path never
    constructs one).  Exposes:

    * ``nbr`` — masked neighbor table (dead links are ``-1``);
    * ``order`` — BFS discovery index per node (up*/down* node ordering);
    * ``dist`` — flat ``[dst * P + u]`` BFS hop distance over live links;
    * ``productive`` — flat ``[dst * P + u]`` tuple of the directions whose
      surviving link shrinks that distance, in direction order (adaptive
      routing's candidates; interned, so at most ``2**ndirs`` tuples);
    * ``nh_up`` / ``nh_down`` — flat ``[dst * P + u]`` escape next-hop
      direction when the packet may still climb (up phase) / once it has
      descended (down phase);
    * ``num_links`` — surviving directed link count.

    Raises :class:`ValueError` when the plan names a link the topology
    does not have, and :class:`PartitionedNetworkError` when it
    disconnects the nodes.
    """

    def __init__(self, topo: Topology, plan: FaultPlan) -> None:
        p = topo.nnodes
        ndirs = topo.ndirs
        _check_names(topo, plan)
        self.nbr = masked_neighbors(topo, plan)
        self.num_links = sum(
            1 for row in self.nbr for v in row if v >= 0
        )

        # --- connectivity + up*/down* node order (one BFS from rank 0) ----
        order = [-1] * p
        order[0] = 0
        frontier = [0]
        idx = 1
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.nbr[u]:
                    if v >= 0 and order[v] < 0:
                        order[v] = idx
                        idx += 1
                        nxt.append(v)
            frontier = nxt
        unreachable = [u for u in range(p) if order[u] < 0]
        if unreachable:
            raise PartitionedNetworkError(
                f"fault plan disconnects {topo.shape.label}: "
                f"{len(unreachable)} of {p} nodes cannot reach rank 0",
                unreachable,
            )
        self.order = order

        # --- per-destination tables ---------------------------------------
        self.dist = [-1] * (p * p)
        self.nh_up = [-1] * (p * p)
        self.nh_down = [-1] * (p * p)
        by_order = sorted(range(p), key=lambda u: order[u])
        for dst in range(p):
            self._build_for_dst(dst, p, ndirs, by_order)
        self.productive = self._productive(p, ndirs)

    def _productive(self, p: int, ndirs: int) -> list[tuple[int, ...]]:
        """The ``productive`` table, in one vectorized pass over ``dist``:
        bit d of a (dst, u) mask is set when u's surviving link d leads
        one hop nearer dst; each mask maps to its interned tuple."""
        dist = np.asarray(self.dist, dtype=np.int32).reshape(p, p)
        masks = np.zeros((p, p), dtype=np.uint8)
        for d in range(ndirs):
            nbr_d = np.asarray([row[d] for row in self.nbr])
            live = nbr_d >= 0
            far = dist[:, np.where(live, nbr_d, 0)]  # [dst, u]
            nearer = live & (far >= 0) & (far < dist)
            masks |= nearer.astype(np.uint8) << d
        subsets = [
            tuple(d for d in range(ndirs) if m >> d & 1)
            for m in range(1 << ndirs)
        ]
        return [subsets[m] for m in masks.ravel().tolist()]

    def _build_for_dst(
        self, dst: int, p: int, ndirs: int, by_order: list[int]
    ) -> None:
        nbr = self.nbr
        order = self.order
        base = dst * p
        dist = self.dist
        nh_down = self.nh_down
        nh_up = self.nh_up

        # BFS hop distances from dst (links are masked symmetrically, so
        # the reverse graph equals the forward graph).
        dist[base + dst] = 0
        frontier = [dst]
        while frontier:
            nxt = []
            for v in frontier:
                dv = dist[base + v] + 1
                for u in nbr[v]:
                    if u >= 0 and dist[base + u] < 0:
                        dist[base + u] = dv
                        nxt.append(u)
            frontier = nxt

        # Down-only reachability: BFS from dst over *reversed* down edges.
        # An edge u -> v (direction d from u) is down iff order[v] >
        # order[u]; we discover u from v through v's reverse link.
        down_ok = bytearray(p)
        down_ok[dst] = 1
        frontier = [dst]
        while frontier:
            nxt = []
            for v in frontier:
                ov = order[v]
                row = nbr[v]
                for d in range(ndirs):
                    u = row[d]
                    # v -> u via d, hence u -> v via d ^ 1.
                    if u >= 0 and not down_ok[u] and ov > order[u]:
                        down_ok[u] = 1
                        nh_down[base + u] = d ^ 1
                        nxt.append(u)
            frontier = nxt

        # Up-phase next hops: processing nodes by ascending order index,
        # u may descend immediately (if down-only reachable) or climb one
        # up edge to a node whose own up-phase hop is already known.
        up_ok = bytearray(p)
        up_ok[dst] = 1
        for u in by_order:
            if u == dst:
                continue
            if down_ok[u]:
                up_ok[u] = 1
                nh_up[base + u] = nh_down[base + u]
                continue
            ou = order[u]
            best_d = -1
            best_key: Optional[tuple[int, int]] = None
            row = nbr[u]
            for d in range(ndirs):
                v = row[d]
                if v >= 0 and order[v] < ou and up_ok[v]:
                    key = (dist[base + v], d)
                    if best_key is None or key < best_key:
                        best_d, best_key = d, key
            # The BFS spanning tree guarantees an up path to the root and
            # a down path from the root to every destination, so every
            # node has an escape hop.
            assert best_d >= 0, (
                f"up*/down* table incomplete for node {u} -> {dst}"
            )
            up_ok[u] = 1
            nh_up[base + u] = best_d


def loss_salt(plan: FaultPlan) -> int:
    """Deterministic 32-bit salt for the plan's loss draws."""
    return derive_seed(plan.seed, "packet-loss") & 0xFFFFFFFF


def loss_draw(salt: int, pid: int, hop: int, link: int) -> float:
    """Deterministic uniform [0, 1) draw for (packet, hop, link).

    A cheap integer hash (xorshift-multiply avalanche) — reproducible
    across runs and platforms, independent across hops so retransmissions
    re-roll their fate on every traversal.
    """
    h = (
        pid * 0x9E3779B1 + hop * 0x85EBCA6B + link * 0xC2B2AE35 + salt
    ) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x045D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h / 4294967296.0
