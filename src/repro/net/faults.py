"""Deterministic fault injection for the torus network.

Real torus machines lose hardware: a wire goes dark, a node is pulled for
service, a marginal link runs at reduced bandwidth or drops packets.  The
paper's strategies all assume a pristine torus; this module defines the
*fault model* under which the rest of the stack must keep the all-to-all
complete and correct:

* :class:`FaultPlan` — a declarative, seedable description of the faults in
  one run: permanently dead links, dead nodes, bandwidth-degraded links,
  transient link outages (time windows) and per-link packet-loss
  probabilities.  A plan is data, not behavior: the same plan can drive the
  timed simulator, the functional engine and the strategy planners.
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

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.model.torus import TorusShape
from repro.net.errors import PartitionedNetworkError
from repro.net.topology import Topology
from repro.util.rng import derive_rng, derive_seed
from repro.util.validation import require

#: A directed link is named by (node, direction); direction indices follow
#: :mod:`repro.net.topology` (2*axis + 0 positive, 2*axis + 1 negative).
Link = tuple[int, int]


@dataclass(frozen=True)
class LinkOutage:
    """A transient outage: the link at (*node*, *direction*) cannot start a
    new transmission during ``[start, end)`` cycles.  A transmission already
    on the wire at *start* completes (the model's outage is a lull, not a
    mid-flight corruption; combine with ``loss`` for the latter)."""

    node: int
    direction: int
    start: float
    end: float

    def __post_init__(self) -> None:
        require(self.start >= 0.0, "outage start must be >= 0")
        require(self.end > self.start, "outage end must follow start")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every hardware fault in one run.

    Attributes
    ----------
    dead_links:
        Directed links that are permanently dead.  A dead wire kills both
        directions: masking treats ``(u, d)`` dead as also killing the
        reverse entry ``(v, d^1)``, so listing one direction suffices.
    dead_nodes:
        Ranks that are down: all their links are dead, they inject nothing
        and cannot be destinations or intermediates.
    degraded_links:
        Map of directed link -> service-time multiplier (> 1 stretches the
        link's beta; a value of 2.0 halves its bandwidth).  Applied to both
        directions of the wire.
    outages:
        Transient link outages (see :class:`LinkOutage`).
    loss_prob:
        Baseline per-hop packet-loss probability on every surviving link.
    link_loss:
        Per-link overrides of ``loss_prob`` (both directions of the wire).
    seed:
        Seed for every stochastic draw the plan induces (loss hashes).
    retx_timeout_cycles:
        Sender-side retransmission timeout for the first attempt.
    retx_backoff:
        Multiplier applied to the timeout after each retransmission
        (exponential backoff).
    max_retx:
        Retransmission attempts after which the run aborts (an undeliverable
        packet indicates a plan/routing bug, not bad luck: with p=1% loss,
        20 consecutive losses has probability 1e-40).
    """

    dead_links: frozenset[Link] = frozenset()
    dead_nodes: frozenset[int] = frozenset()
    degraded_links: Mapping[Link, float] = field(default_factory=dict)
    outages: tuple[LinkOutage, ...] = ()
    loss_prob: float = 0.0
    link_loss: Mapping[Link, float] = field(default_factory=dict)
    seed: int = 0
    retx_timeout_cycles: float = 50_000.0
    retx_backoff: float = 2.0
    max_retx: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "dead_links", frozenset(self.dead_links))
        object.__setattr__(self, "dead_nodes", frozenset(self.dead_nodes))
        object.__setattr__(self, "degraded_links", dict(self.degraded_links))
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "link_loss", dict(self.link_loss))
        require(0.0 <= self.loss_prob < 1.0, "loss_prob must be in [0, 1)")
        for lk, p in self.link_loss.items():
            require(0.0 <= p < 1.0, f"link_loss[{lk}] must be in [0, 1)")
        for lk, f in self.degraded_links.items():
            require(f >= 1.0, f"degraded_links[{lk}] must be >= 1.0")
        require(self.retx_timeout_cycles > 0, "retx timeout must be positive")
        require(self.retx_backoff >= 1.0, "retx backoff must be >= 1.0")
        require(self.max_retx >= 1, "max_retx must be >= 1")

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        """True when the plan configures no fault at all — the zero-fault
        fast path (plain :class:`~repro.net.simulator.TorusNetwork`, no
        per-packet fault checks)."""
        return (
            not self.dead_links
            and not self.dead_nodes
            and not self.degraded_links
            and not self.outages
            and self.loss_prob == 0.0
            and not self.link_loss
        )

    @property
    def has_loss(self) -> bool:
        """True when any link can drop packets."""
        return self.loss_prob > 0.0 or any(
            p > 0.0 for p in self.link_loss.values()
        )

    def node_dead(self, u: int) -> bool:
        """Whether rank *u* is down."""
        return u in self.dead_nodes

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = []
        if self.dead_nodes:
            parts.append(f"{len(self.dead_nodes)} dead nodes")
        if self.dead_links:
            parts.append(f"{len(self.dead_links)} dead directed links")
        if self.degraded_links:
            parts.append(f"{len(self.degraded_links)} degraded links")
        if self.outages:
            parts.append(f"{len(self.outages)} outage windows")
        if self.has_loss:
            parts.append(f"loss p={self.loss_prob:g}")
        return "; ".join(parts) if parts else "no faults"

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
        dead_node_fraction: float = 0.0,
        loss_prob: float = 0.0,
        degraded_fraction: float = 0.0,
        degrade_factor: float = 2.0,
        max_attempts: int = 64,
        **overrides: object,
    ) -> "FaultPlan":
        """Sample a connected fault plan for *shape*.

        Dead wires and dead nodes are drawn uniformly; the sample is
        rejected and redrawn (up to *max_attempts* times) until the
        surviving nodes remain connected, so a returned plan is always
        routable.  Raises :class:`PartitionedNetworkError` if no connected
        sample is found (fractions too aggressive for the shape).
        """
        require(0.0 <= dead_link_fraction < 1.0, "dead_link_fraction range")
        require(0.0 <= dead_node_fraction < 1.0, "dead_node_fraction range")
        require(0.0 <= degraded_fraction <= 1.0, "degraded_fraction range")
        topo = Topology(shape)
        wires = _physical_wires(topo)
        p = shape.nnodes
        n_dead_links = round(dead_link_fraction * len(wires))
        n_dead_nodes = round(dead_node_fraction * p)
        require(n_dead_nodes < p, "cannot kill every node")
        n_degraded = round(degraded_fraction * len(wires))
        for attempt in range(max_attempts):
            rng = derive_rng(seed, "faultplan", attempt)
            dead_nodes = frozenset(
                int(u)
                for u in rng.choice(p, size=n_dead_nodes, replace=False)
            )
            picks = rng.choice(
                len(wires),
                size=min(len(wires), n_dead_links + n_degraded),
                replace=False,
            )
            dead_wires = [wires[int(i)] for i in picks[:n_dead_links]]
            degraded = {
                wires[int(i)]: float(degrade_factor)
                for i in picks[n_dead_links:]
            }
            dead_links = frozenset(dead_wires)
            plan = cls(
                dead_links=dead_links,
                dead_nodes=dead_nodes,
                degraded_links=degraded,
                loss_prob=loss_prob,
                seed=seed,
                **overrides,  # type: ignore[arg-type]
            )
            if _connected(topo, plan):
                return plan
        raise PartitionedNetworkError(
            f"no connected fault plan found for {shape.label} after "
            f"{max_attempts} attempts (dead_link_fraction="
            f"{dead_link_fraction}, dead_node_fraction={dead_node_fraction})"
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
    """Neighbor table of *topo* with the plan's faults masked out.

    A dead link (either direction listed) or a link touching a dead node
    becomes ``-1`` — indistinguishable from a mesh edge, which is exactly
    the invariant the simulator's hot path already enforces (``neighbor ==
    -1`` links never win arbitration).
    """
    base = topo.neighbor.tolist()
    dead = plan.dead_links
    dead_nodes = plan.dead_nodes
    if not dead and not dead_nodes:
        return base
    for u in range(topo.nnodes):
        row = base[u]
        u_dead = u in dead_nodes
        for d in range(topo.ndirs):
            v = row[d]
            if v < 0:
                continue
            if (
                u_dead
                or v in dead_nodes
                or (u, d) in dead
                or (v, d ^ 1) in dead
            ):
                row[d] = -1
    return base


def _check_names(topo: Topology, plan: FaultPlan) -> None:
    """Reject a plan entry that names no node or link of *topo*.

    A plan is data, checked where it first meets a topology: unchecked,
    a negative index would wrap into another node's slot of the flat
    tables and an out-of-range one would fail deep inside a run."""
    p, ndirs = topo.nnodes, topo.ndirs
    where = (
        f"{topo.shape.label} (nodes 0..{p - 1}, directions 0..{ndirs - 1})"
    )
    for u in plan.dead_nodes:
        if not 0 <= u < p:
            raise ValueError(
                f"fault plan dead_nodes entry {u!r} is not a node of {where}"
            )
    entries = [("dead_links", lk, lk) for lk in plan.dead_links]
    entries += [("degraded_links", lk, lk) for lk in plan.degraded_links]
    entries += [("link_loss", lk, lk) for lk in plan.link_loss]
    entries += [("outages", o, (o.node, o.direction)) for o in plan.outages]
    for field_name, entry, (u, d) in entries:
        if not (0 <= u < p and 0 <= d < ndirs):
            raise ValueError(
                f"fault plan {field_name} entry {entry!r} is not a link of "
                f"{where}"
            )


def _connected(topo: Topology, plan: FaultPlan) -> bool:
    """Whether the surviving nodes form one connected component."""
    alive = [u for u in range(topo.nnodes) if u not in plan.dead_nodes]
    if not alive:
        return False
    nbr = masked_neighbors(topo, plan)
    seen = bytearray(topo.nnodes)
    seen[alive[0]] = 1
    frontier = [alive[0]]
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
    return count == len(alive)


class FaultRoutingTable:
    """Fault-aware routing state for one (topology, plan) pair.

    Built once per simulation (guarded setup — the zero-fault path never
    constructs one).  Exposes:

    * ``nbr`` — masked neighbor table (dead links/nodes are ``-1``);
    * ``alive`` — surviving ranks in ascending order;
    * ``order`` — BFS discovery index per node (up*/down* node ordering);
    * ``dist`` — flat ``[dst * P + u]`` BFS hop distance over survivors;
    * ``productive`` — flat ``[dst * P + u]`` tuple of the directions whose
      surviving link shrinks that distance, in direction order (adaptive
      routing's candidates; interned, so at most ``2**ndirs`` tuples);
    * ``nh_up`` / ``nh_down`` — flat ``[dst * P + u]`` escape next-hop
      direction when the packet may still climb (up phase) / once it has
      descended (down phase);
    * ``num_links`` — surviving directed link count.

    Raises :class:`ValueError` when the plan names a node or link the
    topology does not have, and :class:`PartitionedNetworkError` when it
    disconnects the surviving nodes.
    """

    def __init__(self, topo: Topology, plan: FaultPlan) -> None:
        self.topo = topo
        self.plan = plan
        p = topo.nnodes
        ndirs = topo.ndirs
        _check_names(topo, plan)
        self.nbr = masked_neighbors(topo, plan)
        self.alive = [u for u in range(p) if u not in plan.dead_nodes]
        require(self.alive, "fault plan kills every node")
        self.num_links = sum(
            1 for row in self.nbr for v in row if v >= 0
        )

        # --- connectivity + up*/down* node order (one BFS) ----------------
        order = [-1] * p
        root = self.alive[0]
        order[root] = 0
        frontier = [root]
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
        unreachable = [u for u in self.alive if order[u] < 0]
        if unreachable:
            raise PartitionedNetworkError(
                f"fault plan disconnects {topo.shape.label}: "
                f"{len(unreachable)} of {len(self.alive)} surviving nodes "
                f"cannot reach rank {root}",
                unreachable,
            )
        self.order = order

        # --- per-destination tables ---------------------------------------
        self.dist = [-1] * (p * p)
        self.nh_up = [-1] * (p * p)
        self.nh_down = [-1] * (p * p)
        by_order = sorted(self.alive, key=lambda u: order[u])
        for dst in self.alive:
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
            # surviving node has an escape hop.
            assert best_d >= 0, (
                f"up*/down* table incomplete for node {u} -> {dst}"
            )
            up_ok[u] = 1
            nh_up[base + u] = best_d

    # ------------------------------------------------------------------ #
    # per-link attribute tables for the simulator
    # ------------------------------------------------------------------ #

    def degrade_table(self) -> list[float]:
        """Flat ``[u * ndirs + d]`` service-time multiplier per link (both
        directions of a degraded wire are stretched)."""
        p, ndirs = self.topo.nnodes, self.topo.ndirs
        table = [1.0] * (p * ndirs)
        for (u, d), factor in self.plan.degraded_links.items():
            v = int(self.topo.neighbor[u, d])
            table[u * ndirs + d] = max(table[u * ndirs + d], factor)
            if v >= 0:
                table[v * ndirs + (d ^ 1)] = max(
                    table[v * ndirs + (d ^ 1)], factor
                )
        return table

    def loss_table(self) -> list[float]:
        """Flat ``[u * ndirs + d]`` packet-loss probability per link."""
        p, ndirs = self.topo.nnodes, self.topo.ndirs
        table = [self.plan.loss_prob] * (p * ndirs)
        for (u, d), prob in self.plan.link_loss.items():
            v = int(self.topo.neighbor[u, d])
            table[u * ndirs + d] = prob
            if v >= 0:
                table[v * ndirs + (d ^ 1)] = prob
        return table


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
