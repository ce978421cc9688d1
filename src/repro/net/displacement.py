"""Wrap-aware shortest-displacement lookup tables.

This module is the single home of the "wrap / mod / halfbits" branch
cluster that decides which way around the torus a packet travels on one
axis.  The same logic used to be written out inline four times in
:mod:`repro.net.simulator` and consulted again by the fault-aware
network; it is now computed **once per shape** into flat per-axis lookup
tables, and the
hot path does a couple of list indexings instead of a mod and three
comparisons per routing decision.

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

Tables are indexed ``[axis][halfbit][ccur * n + cdst]`` with ``n`` the
axis extent.  For axes where the halfbit cannot matter (odd extent, mesh,
extent <= 2) both halfbit variants share one list object, so a 3-D shape
costs at most six small lists.  :func:`displacement_tables` memoizes per
shape: every simulation point of a sweep over the same partition reuses
the same table objects.
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
    """Per-axis displacement and minimal-direction lookup tables.

    Attributes
    ----------
    disp:
        ``disp[axis][halfbit][ccur * n + cdst]`` -> signed shortest
        displacement on *axis* (wrap-aware).
    dirs:
        Same indexing -> direction index ``2*axis + (0 if disp > 0 else
        1)``, or ``-1`` when the displacement is zero (axis resolved).
    """

    __slots__ = ("shape", "disp", "dirs")

    def __init__(self, shape: TorusShape) -> None:
        self.shape = shape
        disp: list[tuple[list[int], list[int]]] = []
        dirs: list[tuple[list[int], list[int]]] = []
        for axis in range(shape.ndim):
            n = shape.dims[axis]
            wrap = shape.wrap_effective(axis)
            per_hb_disp: list[list[int]] = []
            per_hb_dir: list[list[int]] = []
            for hb in (0, 1):
                dtab = [0] * (n * n)
                rtab = [0] * (n * n)
                for cc in range(n):
                    base = cc * n
                    for cd in range(n):
                        d = reference_displacement(n, wrap, cd - cc, hb)
                        dtab[base + cd] = d
                        rtab[base + cd] = (
                            -1 if d == 0 else 2 * axis + (0 if d > 0 else 1)
                        )
                per_hb_disp.append(dtab)
                per_hb_dir.append(rtab)
            if per_hb_disp[0] == per_hb_disp[1]:
                # Halfbit can't matter here (mesh, odd, or tiny extent):
                # share one table object for both variants.
                per_hb_disp[1] = per_hb_disp[0]
                per_hb_dir[1] = per_hb_dir[0]
            disp.append((per_hb_disp[0], per_hb_disp[1]))
            dirs.append((per_hb_dir[0], per_hb_dir[1]))
        self.disp = tuple(disp)
        self.dirs = tuple(dirs)

    # Convenience accessors (tests, analysis; the simulator indexes the
    # raw tables directly).

    def displacement(
        self, axis: int, ccur: int, cdst: int, halfbits: int = 0
    ) -> int:
        """Shortest signed displacement ``ccur -> cdst`` on *axis*."""
        n = self.shape.dims[axis]
        return self.disp[axis][(halfbits >> axis) & 1][ccur * n + cdst]

    def direction(
        self, axis: int, ccur: int, cdst: int, halfbits: int = 0
    ) -> int:
        """Minimal direction index on *axis*, or -1 when already aligned."""
        n = self.shape.dims[axis]
        return self.dirs[axis][(halfbits >> axis) & 1][ccur * n + cdst]


@lru_cache(maxsize=128)
def displacement_tables(shape: TorusShape) -> DisplacementTables:
    """Memoized tables for *shape* (shared across simulator instances —
    every point of a sweep over one partition reuses the same objects)."""
    return DisplacementTables(shape)
