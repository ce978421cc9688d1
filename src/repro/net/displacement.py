"""Wrap-aware shortest displacement, and the route state built from it.

This module is the single home of the "wrap / mod / halfbits" branch
cluster that decides which way around the torus a packet travels on one
axis.  It is computed **once per shape** into flat per-axis lookup
tables; the simulator consults them once per packet, at injection, and
from then on routes on the packet's *route state* (below).

Semantics (pinned by ``tests/net/test_displacement.py`` against the
original inline logic):

* mesh axis: the displacement is the plain coordinate difference;
* torus axis: the difference is reduced to the representative of smallest
  magnitude in ``(-n/2, n/2]``;
* an exact-half displacement on an *even* torus axis is minimal both ways;
  the packet's per-axis ``halfbits`` bit picks the sign (bit set resolves
  ``+``), so the two directions carry equal load in aggregate — a fixed
  tie-break would overload one direction by 25 % and cap all-to-all at
  80 % of the Eq. 2 peak.

Displacement tables are indexed ``[axis][halfbit][ccur * n + cdst]`` with
``n`` the axis extent.  For axes where the halfbit cannot matter (odd
extent, mesh, extent <= 2) both halfbit variants share one list object,
so a 3-D shape costs at most six small lists.

**Route state.**  Like the hint bits of a BG/L packet header, a packet
carries its remaining signed displacement with it: one mixed-radix index
whose digit on axis *a* is ``disp_a + reach_a`` (``reach_a`` is the
largest ``|disp|`` the axis allows; axis 0 is the least significant
digit).  The index is fixed at injection from the displacement tables,
halfbits included, and each hop adds the per-direction
:attr:`RouteTables.step` (a hop in ``+`` on axis *a* lowers that axis'
displacement by one).  After one minimal hop an axis' displacement is
below half its extent, where the minimal representative is unique, so
the route state always equals what the tables give from the packet's
current node.  Routing decisions then read three tables over the index
space (``prod(2 * reach_a + 1)`` entries, 729 at 8x8x8): the productive
directions, the dimension-order direction and the productive-direction
bitmask.

:func:`displacement_tables` and :func:`route_tables` memoize per shape:
every simulation point of a sweep over the same partition reuses the same
table objects.
"""

from __future__ import annotations

from functools import lru_cache

from repro.model.torus import TorusShape


def reference_displacement(
    extent: int, wrap: bool, delta: int, halfbit: int
) -> int:
    """Scalar reference: the simulator's original inline branch cluster.

    ``delta`` is the raw coordinate difference ``cdst - ccur``; ``halfbit``
    is the packet's tie-break bit for this axis (nonzero resolves ``+``).
    Kept as the executable specification the tables are built from (and
    tested against); never called on the hot path.
    """
    d = delta
    if wrap:
        d %= extent
        half = extent // 2
        if d > half:
            d -= extent
        elif d == half and not (extent & 1) and not halfbit:
            d -= extent
    return d


class DisplacementTables:
    """Per-axis displacement lookup tables.

    Attributes
    ----------
    disp:
        ``disp[axis][halfbit][ccur * n + cdst]`` -> signed shortest
        displacement on *axis* (wrap-aware).
    """

    __slots__ = ("shape", "disp")

    def __init__(self, shape: TorusShape) -> None:
        self.shape = shape
        disp: list[tuple[list[int], list[int]]] = []
        for axis in range(shape.ndim):
            n = shape.dims[axis]
            wrap = shape.wrap_effective(axis)
            per_hb = [
                [
                    reference_displacement(n, wrap, cd - cc, hb)
                    for cc in range(n)
                    for cd in range(n)
                ]
                for hb in (0, 1)
            ]
            if per_hb[0] == per_hb[1]:
                # Halfbit can't matter here (mesh, odd, or tiny extent):
                # share one table object for both variants.
                per_hb[1] = per_hb[0]
            disp.append((per_hb[0], per_hb[1]))
        self.disp = tuple(disp)

    def displacement(
        self, axis: int, ccur: int, cdst: int, halfbits: int = 0
    ) -> int:
        """Shortest signed displacement ``ccur -> cdst`` on *axis*."""
        n = self.shape.dims[axis]
        return self.disp[axis][(halfbits >> axis) & 1][ccur * n + cdst]


class RouteTables:
    """The route-state index space of one shape and its direction tables.

    Attributes
    ----------
    reach:
        Per axis, the largest ``|disp|`` a packet can carry on it; one
        unit of axis *a*'s displacement weighs ``prod(2 * reach_b + 1)``
        over the axes ``b < a``.
    home:
        The index of the all-zero displacement (the packet has arrived).
    step:
        ``step[d]`` is added to the index by a hop in direction *d*.
    offset:
        ``offset[axis][halfbit][ccur * n + cdst]`` -> that axis' term of the
        index, ``disp`` times the axis' weight; an injection sums the terms
        onto :attr:`home`.  Halfbit variants share one tuple where
        :class:`DisplacementTables` shares one list.
    prod:
        ``prod[r]`` -> tuple of the productive directions, in axis order.
    dor:
        ``dor[r]`` -> the dimension-order direction (the first productive
        one), or -1 at the destination.
    mask:
        ``mask[r]`` -> bitmask of the productive directions.
    """

    __slots__ = (
        "shape", "reach", "home", "step", "offset",
        "prod", "dor", "mask",
    )

    def __init__(self, shape: TorusShape) -> None:
        self.shape = shape
        disp = displacement_tables(shape).disp
        reach = tuple(max(abs(x) for x in tabs[0] + tabs[1]) for tabs in disp)
        stride = []
        size = 1
        for r in reach:
            stride.append(size)
            size *= 2 * r + 1
        self.reach = reach
        self.home = sum(r * s for r, s in zip(reach, stride))
        self.step = tuple(s * sign for s in stride for sign in (-1, 1))
        # Tuples, not lists: every network of the shape shares them.
        offset = []
        for axis, (t0, t1) in enumerate(disp):
            s = stride[axis]
            o0 = tuple(x * s for x in t0)
            o1 = o0 if t1 is t0 else tuple(x * s for x in t1)
            offset.append((o0, o1))
        self.offset = tuple(offset)
        self.prod = tuple(
            tuple(
                2 * axis + (0 if d > 0 else 1)
                for axis, d in enumerate(self.decode(r))
                if d
            )
            for r in range(size)
        )
        self.dor = tuple(dirs[0] if dirs else -1 for dirs in self.prod)
        self.mask = tuple(sum(1 << d for d in dirs) for dirs in self.prod)

    def decode(self, r: int) -> tuple[int, ...]:
        """Per-axis signed displacements of route index *r*."""
        out = []
        for reach in self.reach:
            radix = 2 * reach + 1
            out.append(r % radix - reach)
            r //= radix
        return tuple(out)


@lru_cache(maxsize=128)
def displacement_tables(shape: TorusShape) -> DisplacementTables:
    """Memoized tables for *shape* (shared across simulator instances —
    every point of a sweep over one partition reuses the same objects)."""
    return DisplacementTables(shape)


@lru_cache(maxsize=128)
def route_tables(shape: TorusShape) -> RouteTables:
    """Memoized route-state tables for *shape*, built from
    :func:`displacement_tables`."""
    return RouteTables(shape)
