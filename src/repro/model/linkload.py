"""Exact per-link load accounting for uniform all-to-all traffic.

For minimal routing the set of per-dimension displacements a packet makes is
fixed by (src, dst); only the *interleaving* differs between adaptive and
deterministic routing.  Aggregate per-dimension byte-hops are therefore
routing-independent, and per-link loads under dimension-ordered routing have
the closed forms implemented here.  These loads explain the paper's central
observation (Section 3.2): on a ``2n x n x n`` torus the X links carry twice
the load of the Y and Z links, so adaptive routing backs up behind X.

Loads are reported in *bytes per directed link* for an all-to-all in which
each of the P nodes sends ``m_bytes`` to every node (self included, matching
the Section 2.1 model's accounting; self pairs make zero hops, so they add
no load).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.util.validation import require


def _pair_displacement_counts(n: int, torus: bool) -> np.ndarray:
    """count[k] = number of ordered (s, t) pairs in one dimension whose
    shortest |displacement| is k, for s, t in [0, n)."""
    counts = np.zeros(n, dtype=np.int64)
    for s in range(n):
        for t in range(n):
            if torus and n > 2:
                d = (t - s) % n
                k = min(d, n - d)
            else:
                k = abs(t - s)
            counts[k] += 1
    return counts


def dim_byte_hops(shape: TorusShape, m_bytes: float) -> np.ndarray:
    """Total byte-hops the all-to-all induces in each dimension.

    byte_hops[d] = m * sum over ordered (src,dst) pairs of |disp_d|.
    Factorizes: (P/n_d)^2 * (pairwise 1-D hop sum) * m.
    """
    require(m_bytes >= 0, "m_bytes must be >= 0")
    p = shape.nnodes
    out = np.zeros(shape.ndim, dtype=np.float64)
    for axis in range(shape.ndim):
        n = shape.dims[axis]
        counts = _pair_displacement_counts(n, shape.wrap_effective(axis))
        hop_sum_1d = float(np.dot(counts, np.arange(n)))
        rows = p // n
        out[axis] = rows * rows * hop_sum_1d * m_bytes
    return out


def uniform_link_loads(
    shape: TorusShape, m_bytes: float
) -> np.ndarray:
    """Per-directed-link byte load in each dimension if the dimension's
    byte-hops spread perfectly evenly over its links (exact for torus
    dimensions under any minimal routing, optimistic for mesh)."""
    hops = dim_byte_hops(shape, m_bytes)
    loads = np.zeros(shape.ndim, dtype=np.float64)
    for axis in range(shape.ndim):
        links = shape.links_in_dim(axis)
        loads[axis] = hops[axis] / links if links else 0.0
    return loads


def dor_max_link_loads(shape: TorusShape, m_bytes: float) -> np.ndarray:
    """Max per-directed-link byte load in each dimension under
    dimension-ordered minimal routing.

    Torus dimension: symmetric, so equals the uniform load, P*n*m/8 per
    link on an even torus.  Mesh dimension: the centre link is hottest,
    ``max_i (i+1)(n-1-i) * (P/n) * m``.
    """
    p = shape.nnodes
    loads = np.zeros(shape.ndim, dtype=np.float64)
    for axis in range(shape.ndim):
        n = shape.dims[axis]
        if n == 1:
            continue
        rows = p // n
        if shape.wrap_effective(axis):
            counts = _pair_displacement_counts(n, True)
            hop_sum_1d = float(np.dot(counts, np.arange(n)))
            loads[axis] = rows * rows * hop_sum_1d * m_bytes / shape.links_in_dim(axis)
        else:
            i = np.arange(n - 1, dtype=np.float64)
            crossing_pairs = (i + 1.0) * (n - 1.0 - i)
            loads[axis] = float(crossing_pairs.max()) * rows * m_bytes
    return loads


def network_lower_bound_cycles(
    shape: TorusShape, m_bytes: float, params: MachineParams
) -> float:
    """Link-capacity lower bound on the all-to-all time: the hottest link's
    byte load times beta.  Coincides with Eq. 2's peak on all-torus
    partitions (a consistency check the tests enforce)."""
    loads = dor_max_link_loads(shape, m_bytes)
    return float(loads.max(initial=0.0)) * params.beta_cycles_per_byte


@dataclass(frozen=True)
class DimUtilization:
    """Relative steady-state utilization of each dimension's links during a
    saturating all-to-all (bottleneck dimension = 1.0)."""

    per_axis: tuple[float, ...]
    bottleneck_axis: int

    @property
    def mean(self) -> float:
        """Link-weighted mean relative utilization; 1.0 on a symmetric
        torus, < 1 on asymmetric shapes (the slack that lets adaptive
        routing over-commit Y/Z buffers, Section 3.2)."""
        return sum(self.per_axis) / len(self.per_axis)


def dim_utilization(shape: TorusShape) -> DimUtilization:
    """Relative per-dimension link utilization for uniform all-to-all."""
    loads = uniform_link_loads(shape, 1.0)
    peak = loads.max(initial=0.0)
    if peak <= 0:
        rel = tuple(0.0 for _ in range(shape.ndim))
        return DimUtilization(per_axis=rel, bottleneck_axis=0)
    rel = tuple(float(x / peak) for x in loads)
    return DimUtilization(
        per_axis=rel, bottleneck_axis=int(np.argmax(loads))
    )
