"""Precomputed torus topology tables used by the simulator's hot path.

Directions are numbered ``2*axis + 0`` for the positive and ``2*axis + 1``
for the negative direction of each axis, giving 2, 4 or 6 directions for
1-D, 2-D or 3-D partitions.  A direction with no link (mesh edge, or a
dimension of extent 1) maps to neighbor ``-1``.  Which way round an axis
a packet goes is decided in :mod:`repro.net.displacement` alone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.model.torus import TorusShape


def direction_of(axis: int, positive: bool) -> int:
    """Direction index for (*axis*, sign)."""
    return 2 * axis + (0 if positive else 1)


class Topology:
    """Neighbor/coordinate lookup tables for a :class:`TorusShape`."""

    def __init__(self, shape: TorusShape) -> None:
        self.shape = shape
        self.nnodes = shape.nnodes
        self.ndim = shape.ndim
        self.ndirs = 2 * shape.ndim
        self._build()

    def _build(self) -> None:
        shape = self.shape
        dims = shape.dims
        p = self.nnodes
        # coords[node, axis]
        coords = np.empty((p, self.ndim), dtype=np.int32)
        strides = np.empty(self.ndim, dtype=np.int64)
        stride = 1
        for a, d in enumerate(dims):
            strides[a] = stride
            stride *= d
        ranks = np.arange(p, dtype=np.int64)
        rem = ranks.copy()
        for a, d in enumerate(dims):
            coords[:, a] = rem % d
            rem //= d
        self.coords = coords
        # neighbor[node, direction] -> node or -1
        nbr = np.full((p, self.ndirs), -1, dtype=np.int64)
        for a, d in enumerate(dims):
            if d == 1:
                continue
            wrap = shape.wrap_effective(a)
            c = coords[:, a]
            up = c + 1
            dn = c - 1
            if wrap:
                up_ok = np.ones(p, dtype=bool)
                dn_ok = np.ones(p, dtype=bool)
                up = up % d
                dn = dn % d
            else:
                up_ok = up < d
                dn_ok = dn >= 0
                up = np.clip(up, 0, d - 1)
                dn = np.clip(dn, 0, d - 1)
            up_rank = ranks + (up - c) * strides[a]
            dn_rank = ranks + (dn - c) * strides[a]
            nbr[up_ok, direction_of(a, True)] = up_rank[up_ok]
            nbr[dn_ok, direction_of(a, False)] = dn_rank[dn_ok]
        self.neighbor = nbr

    @cached_property
    def num_links(self) -> int:
        """Total directed links (matches ``TorusShape.total_links``)."""
        return int((self.neighbor >= 0).sum())
