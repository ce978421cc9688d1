"""Displacement tables and route state vs the original inline logic.

The tables in :mod:`repro.net.displacement` replaced a branch cluster that
was written out four times in the simulator; these tests pin the exact
old-vs-new equivalence on odd, even and mesh dimensions, plus the halfbit
tie-break semantics the Section 3 load balance depends on.  The route
state the pristine kernel carries per packet is pinned twice: every
route-table entry against :func:`reference_displacement`, and every hop of
real AR and DR runs against a fresh recomputation.
"""

from __future__ import annotations

import pytest

from repro.api import simulate_alltoall
from repro.model.torus import TorusShape
from repro.net import build_network
from repro.net.displacement import (
    DisplacementTables,
    RouteTables,
    displacement_tables,
    reference_displacement,
    route_tables,
)
from repro.net.simulator import SimObserver
from repro.strategies import ARDirect, DRDirect

#: Every axis kind the tables distinguish: even torus (tie bits), odd
#: torus, mesh, extent 1 and extent 2 (wrap adds no links).
ROUTE_SHAPES = ("8", "3x5x2", "5x3", "4Mx4x2", "1x4x3", "6x4M")


def _inline_disp(n: int, wrap: bool, cc: int, cd: int, halfbit: int) -> int:
    """The simulator's original inline branch cluster, verbatim."""
    d = cd - cc
    if wrap:
        d %= n
        half = n // 2
        if d > half:
            d -= n
        elif d == half and not (n & 1) and not halfbit:
            d -= n
    return d


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16])
@pytest.mark.parametrize("wrap", [True, False])
def test_reference_matches_inline_cluster(n: int, wrap: bool) -> None:
    for cc in range(n):
        for cd in range(n):
            for hb in (0, 1):
                assert reference_displacement(n, wrap, cd - cc, hb) == (
                    _inline_disp(n, wrap, cc, cd, hb)
                )


@pytest.mark.parametrize(
    "spec",
    [
        "5x4",          # odd torus x even torus
        "4x4x4",        # even symmetric torus
        "8x4x2",        # mixed extents (2 is degenerate-wrap)
        "3x3x3",        # odd symmetric torus
        "4x6M",         # torus x mesh
        "7M",           # odd mesh line
    ],
)
def test_tables_match_reference_everywhere(spec: str) -> None:
    shape = TorusShape.parse(spec)
    tabs = DisplacementTables(shape)
    for axis in range(shape.ndim):
        n = shape.dims[axis]
        wrap = shape.wrap_effective(axis)
        for cc in range(n):
            for cd in range(n):
                for hb in (0, 1):
                    want = reference_displacement(n, wrap, cd - cc, hb)
                    got = tabs.disp[axis][hb][cc * n + cd]
                    assert got == want, (spec, axis, cc, cd, hb)
                    assert tabs.displacement(axis, cc, cd, hb << axis) == want


def test_torus_displacement_minimal() -> None:
    """On an even ring every displacement is a shortest way round, and
    lands on the destination, whichever way the tie bit points."""
    for s in range(8):
        for t in range(8):
            for hb in (0, 1):
                d = reference_displacement(8, True, t - s, hb)
                assert abs(d) <= 4
                assert (s + d) % 8 == t


def test_odd_torus_unambiguous() -> None:
    """An odd ring has no exact half: the tie bit never matters."""
    for s in range(7):
        for t in range(7):
            d = reference_displacement(7, True, t - s, 0)
            assert abs(d) <= 3
            assert (s + d) % 7 == t
            assert reference_displacement(7, True, t - s, 1) == d


def test_halfbit_breaks_even_torus_ties_both_ways() -> None:
    """Exact-half displacement on an even torus axis goes + with the bit
    set and - with it clear; everything else ignores the bit."""
    shape = TorusShape.parse("8")
    tabs = DisplacementTables(shape)
    n = 8
    for cc in range(n):
        cd = (cc + n // 2) % n
        assert tabs.disp[0][1][cc * n + cd] == n // 2
        assert tabs.disp[0][0][cc * n + cd] == -(n // 2)
        for off in range(1, n // 2):
            cd2 = (cc + off) % n
            assert tabs.disp[0][0][cc * n + cd2] == tabs.disp[0][1][cc * n + cd2]


@pytest.mark.parametrize("spec", ["5x4", "3x3x3", "4x6M"])
def test_halfbit_variants_shared_when_irrelevant(spec: str) -> None:
    """Odd/mesh/tiny axes share one table object per axis (object reuse)."""
    shape = TorusShape.parse(spec)
    tabs = DisplacementTables(shape)
    for axis in range(shape.ndim):
        n = shape.dims[axis]
        can_tie = shape.wrap_effective(axis) and n % 2 == 0 and n > 2
        if can_tie:
            assert tabs.disp[axis][0] is not tabs.disp[axis][1]
        else:
            assert tabs.disp[axis][0] is tabs.disp[axis][1]
            offset = RouteTables(shape).offset[axis]
            assert offset[0] is offset[1]


def test_tables_memoized_per_shape() -> None:
    a = displacement_tables(TorusShape.parse("4x4x4"))
    b = displacement_tables(TorusShape.parse("4x4x4"))
    assert a is b
    assert displacement_tables(TorusShape.parse("4x4x2")) is not a


def test_mesh_axis_is_plain_difference() -> None:
    shape = TorusShape.parse("6M")
    tabs = DisplacementTables(shape)
    for cc in range(6):
        for cd in range(6):
            assert tabs.disp[0][0][cc * 6 + cd] == cd - cc


@pytest.mark.parametrize("halfbit", [0, 1])
def test_mesh_axis_never_wraps_beside_a_torus_axis(halfbit: int) -> None:
    """On 8x8M the torus X axis wraps the short way; the mesh Y axis
    goes the long way whatever the tie bit."""
    tabs = DisplacementTables(TorusShape.parse("8x8M"))
    assert tabs.disp[0][halfbit][0 * 8 + 7] == -1
    assert tabs.disp[1][halfbit][0 * 8 + 7] == 7
    assert tabs.disp[1][halfbit][1 * 8 + 6] == 5
    assert tabs.disp[1][halfbit][6 * 8 + 1] == -5


# --------------------------------------------------------------------- #
# route state
# --------------------------------------------------------------------- #


def _directions(disps) -> list[int]:
    """Productive directions of per-axis displacements, in axis order."""
    return [2 * a + (0 if d > 0 else 1) for a, d in enumerate(disps) if d]


@pytest.mark.parametrize("spec", ROUTE_SHAPES)
def test_route_offsets_decode_to_reference(spec: str) -> None:
    """Every (src, dst, halfbits) injection index decodes to the per-axis
    reference displacements, tie bits included."""
    shape = TorusShape.parse(spec)
    rt = RouteTables(shape)
    coords = [shape.coord(u) for u in range(shape.nnodes)]
    for hbits in range(1 << shape.ndim):
        for src in range(shape.nnodes):
            for dst in range(shape.nnodes):
                want = tuple(
                    reference_displacement(
                        shape.dims[a],
                        shape.wrap_effective(a),
                        coords[dst][a] - coords[src][a],
                        (hbits >> a) & 1,
                    )
                    for a in range(shape.ndim)
                )
                r = rt.home + sum(
                    rt.offset[a][(hbits >> a) & 1][
                        coords[src][a] * shape.dims[a] + coords[dst][a]
                    ]
                    for a in range(shape.ndim)
                )
                assert rt.decode(r) == want, (spec, hbits, src, dst)


@pytest.mark.parametrize("spec", ROUTE_SHAPES)
def test_route_direction_tables_match_decoded_displacement(spec: str) -> None:
    shape = TorusShape.parse(spec)
    rt = RouteTables(shape)
    size = 1
    for reach in rt.reach:
        size *= 2 * reach + 1
    assert len(rt.prod) == len(rt.dor) == len(rt.mask) == size
    assert rt.decode(rt.home) == (0,) * shape.ndim
    for r in range(size):
        dirs = _directions(rt.decode(r))
        assert list(rt.prod[r]) == dirs
        assert rt.dor[r] == (dirs[0] if dirs else -1)
        assert rt.mask[r] == sum(1 << d for d in dirs)
        for d in dirs:
            # A hop in a productive direction shrinks that axis by one.
            after = list(rt.decode(r))
            after[d >> 1] += -1 if d % 2 == 0 else 1
            assert rt.decode(r + rt.step[d]) == tuple(after)


@pytest.mark.parametrize(
    "spec, reach",
    [
        ("8", (4,)),
        ("5x3", (2, 1)),
        ("4Mx4x2", (3, 2, 1)),
        ("1x4x3", (0, 2, 1)),
    ],
)
def test_route_reach_per_axis_kind(spec: str, reach: tuple) -> None:
    assert RouteTables(TorusShape.parse(spec)).reach == reach


def test_route_index_space_at_the_acceptance_point() -> None:
    assert len(RouteTables(TorusShape.parse("8x8x8")).prod) == 729


def test_route_tables_memoized_per_shape() -> None:
    a = route_tables(TorusShape.parse("4x4x4"))
    assert route_tables(TorusShape.parse("4x4x4")) is a
    assert route_tables(TorusShape.parse("4x4x2")) is not a


class _RouteAudit(SimObserver):
    """At every launch, compare the handle's route state with the
    displacement recomputed from the downstream node."""

    def __init__(self) -> None:
        self.hops = 0

    def bind(self, net):
        shape = net.shape
        tabs = displacement_tables(shape)
        rt = net._route
        coords = [shape.coord(u) for u in range(shape.nnodes)]
        P_route, P_dst, P_half = net._P_route, net._P_dst, net._P_half

        def launch(u, d, v, h, vc, now, busy0, flags):
            here, dst = coords[v], coords[P_dst[h]]
            want = tuple(
                tabs.displacement(a, here[a], dst[a], P_half[h])
                for a in range(shape.ndim)
            )
            assert rt.decode(P_route[h]) == want, (u, d, v, h)
            self.hops += 1

        return {"launch": launch}


@pytest.mark.parametrize("strategy", [ARDirect, DRDirect], ids=["AR", "DR"])
@pytest.mark.parametrize("spec", ROUTE_SHAPES)
def test_route_state_tracks_every_hop(strategy, spec: str) -> None:
    shape = TorusShape.parse(spec)
    net = build_network(shape)
    audit = _RouteAudit()
    net.attach(audit)
    res = net.run(strategy().build_program(shape, 700, seed=1))
    assert audit.hops == res.total_hops > 0
    # The audit only watched: the run matches an unobserved one.
    plain = simulate_alltoall(strategy(), shape, 700, seed=1).result
    assert (res.time_cycles, res.events_processed) == (
        plain.time_cycles,
        plain.events_processed,
    )
