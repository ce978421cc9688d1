"""Partition shapes: mesh/torus grids of one, two or three dimensions.

The paper's evaluation runs on partitions written like ``8x8x16`` (torus in
every dimension) or ``8x8x2M`` (the trailing ``M`` marks a dimension that is
a *mesh* — no wrap links — rather than a torus, as in Table 2).
:class:`TorusShape` captures the shape plus per-dimension wrap flags and
derives every topological quantity the models and the simulator need:
node count, longest dimension M, per-dimension mean hop counts, directed
link counts, contention factors and bisection bandwidth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.util.validation import check_positive_int, require

_DIM_RE = re.compile(r"^(\d+)(M?)$", re.IGNORECASE)


@dataclass(frozen=True)
class TorusShape:
    """A BG/L partition: per-dimension extents and wrap (torus) flags.

    Parameters
    ----------
    dims:
        Extent of each dimension, X first (``(40, 32, 16)`` for the paper's
        largest partition).
    torus:
        Per-dimension flag; ``True`` means wrap links are present (torus),
        ``False`` means mesh.  Defaults to all-torus.
    """

    dims: tuple[int, ...]
    torus: tuple[bool, ...]

    def __init__(
        self,
        dims: Sequence[int],
        torus: Sequence[bool] | None = None,
    ) -> None:
        dims_t = tuple(check_positive_int(d, "dimension extent") for d in dims)
        require(1 <= len(dims_t) <= 3, "TorusShape supports 1-3 dimensions")
        if torus is None:
            torus_t = tuple(True for _ in dims_t)
        else:
            torus_t = tuple(bool(t) for t in torus)
        require(len(torus_t) == len(dims_t), "torus flags must match dims")
        # A wrap link on a 1- or 2-extent dimension is degenerate: treat any
        # dimension of extent <= 2 declared torus as torus only if extent > 2
        # for link-count purposes is handled in links_in_dim; keep flags as
        # given so labels round-trip.
        object.__setattr__(self, "dims", dims_t)
        object.__setattr__(self, "torus", torus_t)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, label: str) -> "TorusShape":
        """Parse a paper-style label such as ``"8x8x16"`` or ``"8x8x2M"``.

        A trailing ``M`` on a dimension marks it as a mesh (Table 2
        notation).  Separators may be ``x`` or ``X`` with optional spaces.
        """
        parts = [p.strip() for p in re.split(r"[xX]", label)]
        require(
            all(parts) and 1 <= len(parts) <= 3,
            f"cannot parse shape label {label!r}",
        )
        dims: list[int] = []
        torus: list[bool] = []
        for part in parts:
            m = _DIM_RE.match(part)
            require(m is not None, f"cannot parse dimension {part!r}")
            assert m is not None
            dims.append(int(m.group(1)))
            torus.append(m.group(2) == "")
        return cls(dims, torus)

    @classmethod
    def line(cls, n: int, torus: bool = True) -> "TorusShape":
        """1-D partition (a torus line unless *torus* is False)."""
        return cls((n,), (torus,))

    @classmethod
    def plane(cls, nx: int, ny: int, torus: bool = True) -> "TorusShape":
        """2-D partition."""
        return cls((nx, ny), (torus, torus))

    @classmethod
    def cube(cls, nx: int, ny: int, nz: int, torus: bool = True) -> "TorusShape":
        """3-D partition."""
        return cls((nx, ny, nz), (torus, torus, torus))

    # ------------------------------------------------------------------ #
    # basic topology
    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        """Number of dimensions (1-3)."""
        return len(self.dims)

    @cached_property
    def nnodes(self) -> int:
        """Total node count P."""
        p = 1
        for d in self.dims:
            p *= d
        return p

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``"8x8x2M"``."""
        return "x".join(
            f"{d}{'' if t else 'M'}" for d, t in zip(self.dims, self.torus)
        )

    @cached_property
    def max_dim(self) -> int:
        """M = extent of the longest dimension (paper's Section 2.1)."""
        return max(self.dims)

    @cached_property
    def longest_axis(self) -> int:
        """Index of the longest dimension (lowest index on ties)."""
        return self.dims.index(self.max_dim)

    @cached_property
    def is_symmetric(self) -> bool:
        """True when all dimensions are equal-extent tori (the regime in
        which the paper's direct AR strategy reaches peak)."""
        return all(self.torus) and len(set(self.dims)) == 1

    def wrap_effective(self, axis: int) -> bool:
        """Whether wrap links actually shorten paths on *axis* (a torus flag
        on a dimension of extent <= 2 adds no distinct links)."""
        return self.torus[axis] and self.dims[axis] > 2

    # ------------------------------------------------------------------ #
    # coordinates (X fastest: rank = x + Px*(y + Py*z), the BG/L XYZ order)
    # ------------------------------------------------------------------ #

    def coord(self, rank: int) -> tuple[int, ...]:
        """Coordinate of *rank*, the inverse of :meth:`rank`.

        >>> TorusShape.parse("8x8x8").coord(209)
        (1, 2, 3)
        """
        total = self.nnodes
        require(0 <= rank < total, f"rank {rank} out of range [0,{total})")
        coord = []
        for d in self.dims:
            coord.append(rank % d)
            rank //= d
        return tuple(coord)

    def rank(self, coord: Sequence[int]) -> int:
        """Linearize *coord*, X (``dims[0]``) fastest.

        >>> TorusShape.parse("8x8x8").rank((1, 2, 3))
        209
        """
        dims = self.dims
        require(len(coord) == len(dims), "coord/dims dimensionality mismatch")
        rank = 0
        stride = 1
        for c, d in zip(coord, dims):
            require(0 <= c < d, f"coordinate {c} out of range [0,{d})")
            rank += c * stride
            stride *= d
        return rank

    # ------------------------------------------------------------------ #
    # link accounting
    # ------------------------------------------------------------------ #

    def links_in_dim(self, axis: int) -> int:
        """Number of *directed* links in dimension *axis*.

        Torus: every node owns one + and one - link => 2P (paper Section
        2.1: "the total number of links in the maximum dimension is 2*P").
        Mesh: each row of extent n has 2(n-1) directed links.
        """
        n = self.dims[axis]
        if n == 1:
            return 0
        if self.torus[axis] and n > 2:
            return 2 * self.nnodes
        # Mesh (or a 2-extent "torus", whose wrap link duplicates the mesh
        # link and adds no distinct channel on real BG/L hardware).
        return 2 * self.nnodes * (n - 1) // n

    @cached_property
    def total_links(self) -> int:
        """Total directed links in the partition."""
        return sum(self.links_in_dim(a) for a in range(self.ndim))

    def mean_hops(self, axis: int) -> float:
        """Mean |hops| in *axis* over all ordered (src, dst) pairs drawn
        uniformly (self-pairs included, as in the paper's model).

        Torus of extent n: the paper's Section 2 uses n/4.  The exact
        all-pairs average is n/4 for even n (each |d| in 1..n/2-1 appears
        twice per source, d = n/2 once), and (n^2-1)/(4n) for odd n; we
        return the exact value, which equals the paper's n/4 for the even
        extents BG/L uses.

        Mesh (or an extent-2 torus, whose wrap adds no link) of extent n:
        the exact all-pairs average is (n^2 - 1) / (3 n).
        """
        n = self.dims[axis]
        if n == 1:
            return 0.0
        if self.wrap_effective(axis):
            if n % 2 == 0:
                return n / 4.0
            return (n * n - 1) / (4.0 * n)
        return (n * n - 1) / (3.0 * n)

    @cached_property
    def mean_total_hops(self) -> float:
        """Mean total hops of a uniformly random packet."""
        return sum(self.mean_hops(a) for a in range(self.ndim))

    # ------------------------------------------------------------------ #
    # contention / bisection
    # ------------------------------------------------------------------ #

    def contention_factor_dim(self, axis: int) -> float:
        """Per-dimension contention factor C_d for uniform all-to-all.

        Defined so the network-limited all-to-all time along dimension d is
        ``P * C_d * m * beta`` (Eq. 2 generalizes to
        C_d = n/8 for a torus dimension and n/4 for a mesh dimension, both
        obtained from the bisection of that dimension).
        """
        n = self.dims[axis]
        if n == 1:
            return 0.0
        if self.wrap_effective(axis):
            return n / 8.0
        return n / 4.0

    @cached_property
    def contention_factor(self) -> float:
        """C = max_d C_d.  Equals M/8 on an all-torus partition (Eq. 2)."""
        return max(
            self.contention_factor_dim(a) for a in range(self.ndim)
        )

    @cached_property
    def bottleneck_axis(self) -> int:
        """Dimension whose bisection limits the all-to-all (argmax C_d)."""
        factors = [self.contention_factor_dim(a) for a in range(self.ndim)]
        return factors.index(max(factors))

    def bisection_links(self, axis: int) -> int:
        """Directed links crossing the mid-plane of *axis* in one direction."""
        n = self.dims[axis]
        if n == 1:
            return 0
        rows = self.nnodes // n
        return 2 * rows if self.wrap_effective(axis) else rows

    def per_node_peak_bandwidth(self, beta_cycles_per_byte: float) -> float:
        """Peak per-node all-to-all payload bandwidth in bytes/cycle.

        Each node sources P*m bytes during T_peak = P*C*m*beta, so the
        per-node rate is 1/(C*beta) — the "peak bisection bandwidth per
        node" series of Figure 3.
        """
        require(beta_cycles_per_byte > 0, "beta must be positive")
        c = self.contention_factor
        if c == 0.0:
            return float("inf")
        return 1.0 / (c * beta_cycles_per_byte)

    # ------------------------------------------------------------------ #
    # dunder conveniences
    # ------------------------------------------------------------------ #

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label

    def __len__(self) -> int:
        return self.nnodes
