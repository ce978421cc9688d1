"""Unit tests for topology tables."""

import numpy as np
import pytest

from repro.model.torus import TorusShape
from repro.net.displacement import displacement_tables, route_tables
from repro.net.topology import Topology, direction_of


def route_index(shape, src, dst, halfbits=0):
    """The route state the kernel gives a packet injected at *src* for
    *dst* with tie bits *halfbits*."""
    rt = route_tables(shape)
    cs, cd = shape.coord(src), shape.coord(dst)
    return rt.home + sum(
        rt.offset[a][(halfbits >> a) & 1][cs[a] * shape.dims[a] + cd[a]]
        for a in range(shape.ndim)
    )


class TestDirections:
    def test_encoding(self):
        assert direction_of(0, True) == 0
        assert direction_of(0, False) == 1
        assert direction_of(2, True) == 4

    def test_decoding(self):
        # Axis is d >> 1, the + face even: what the kernel reads back.
        for axis in range(3):
            for positive in (True, False):
                d = direction_of(axis, positive)
                assert d >> 1 == axis
                assert (d % 2 == 0) == positive

    def test_reverse_is_xor_1(self):
        for axis in range(3):
            assert direction_of(axis, True) ^ 1 == direction_of(axis, False)


class TestNeighborTable:
    def test_torus_all_links_present(self):
        topo = Topology(TorusShape.parse("4x4x4"))
        assert (topo.neighbor >= 0).all()
        assert topo.num_links == 6 * 64

    def test_mesh_edges_missing(self):
        topo = Topology(TorusShape.parse("4x4M"))
        shape = topo.shape
        # Node at y=0 has no -y link; node at y=3 no +y.
        for x in range(4):
            assert topo.neighbor[shape.rank((x, 0)), direction_of(1, False)] == -1
            assert topo.neighbor[shape.rank((x, 3)), direction_of(1, True)] == -1

    def test_neighbors_reciprocal(self):
        topo = Topology(TorusShape.parse("4x2M"))
        for u in range(topo.nnodes):
            for d in range(topo.ndirs):
                v = topo.neighbor[u, d]
                if v >= 0:
                    assert topo.neighbor[v, d ^ 1] == u

    def test_wrap_neighbor(self):
        topo = Topology(TorusShape.parse("8"))
        assert topo.neighbor[7, direction_of(0, True)] == 0
        assert topo.neighbor[0, direction_of(0, False)] == 7

    def test_extent_one_dimension_has_no_links(self):
        topo = Topology(TorusShape((4, 1), (True, True)))
        assert (topo.neighbor[:, 2:] == -1).all()


class TestDegenerateShapes:
    """Extent-1 dimensions, meshes, and tiny rings: the neighbor table must
    stay reciprocal, ``num_links`` must match the shape's own count, and the
    kernel's route tables may never point at an absent (-1) link."""

    SHAPES = [
        TorusShape.parse("1"),
        TorusShape.parse("2"),
        TorusShape.parse("2x2"),
        TorusShape.parse("1x4"),
        TorusShape.parse("4M"),
        TorusShape.parse("3x1x3"),
        TorusShape.parse("2x2M"),
        TorusShape((1, 1, 5), (True, True, True)),
    ]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.label)
    def test_neighbor_table_consistent(self, shape):
        topo = Topology(shape)
        present = 0
        for u in range(topo.nnodes):
            for d in range(topo.ndirs):
                v = topo.neighbor[u, d]
                if v >= 0:
                    assert topo.neighbor[v, d ^ 1] == u
                    assert v != u or shape.dims[d >> 1] == 1
                    present += 1
        assert topo.num_links == present

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.label)
    def test_routing_never_uses_absent_links(self, shape):
        # try_send_head relies on this: a productive direction always has
        # a neighbor, whatever the packet's tie bits.
        topo = Topology(shape)
        rt = route_tables(shape)
        for halfbits in range(1 << shape.ndim):
            for src in range(topo.nnodes):
                for dst in range(topo.nnodes):
                    r = route_index(shape, src, dst, halfbits)
                    for d in rt.prod[r]:
                        assert topo.neighbor[src, d] >= 0
                    d = rt.dor[r]
                    if src != dst:
                        assert d in rt.prod[r]
                    else:
                        assert d == -1

    def test_extent_two_ring_is_effectively_a_mesh(self):
        # Wrapping a 2-ring would create a double link between the two
        # nodes; the table instead keeps a single wire per axis (positive
        # direction from the lower coordinate), i.e. an effective mesh.
        topo = Topology(TorusShape.parse("2x2"))
        shape = topo.shape
        for axis in range(2):
            assert not shape.wrap_effective(axis)
        lo = shape.rank((0, 0))
        hi = shape.rank((1, 0))
        assert topo.neighbor[lo, direction_of(0, True)] == hi
        assert topo.neighbor[lo, direction_of(0, False)] == -1
        assert topo.neighbor[hi, direction_of(0, False)] == lo
        assert topo.neighbor[hi, direction_of(0, True)] == -1


class TestRouting:
    """Worked examples of the kernel's route tables."""

    def test_profitable_directions(self):
        shape = TorusShape.parse("8x8x8")
        r = route_index(shape, shape.rank((0, 0, 0)), shape.rank((1, 7, 0)))
        assert route_tables(shape).prod[r] == (
            direction_of(0, True),    # +x
            direction_of(1, False),   # -y (wrap)
        )

    def test_dimension_order(self):
        shape = TorusShape.parse("8x8x8")
        rt = route_tables(shape)
        dst = shape.rank((2, 3, 0))
        r = route_index(shape, shape.rank((0, 0, 0)), dst)
        assert rt.dor[r] == direction_of(0, True)
        r = route_index(shape, shape.rank((2, 0, 0)), dst)
        assert rt.dor[r] == direction_of(1, True)

    def test_dor_at_destination(self):
        shape = TorusShape.parse("4x4")
        rt = route_tables(shape)
        assert route_index(shape, 5, 5) == rt.home
        assert rt.dor[rt.home] == -1

    def test_min_hops(self):
        # Every axis is an exact half: 4 hops each way, either tie bit.
        shape = TorusShape.parse("8x8x8")
        tabs = displacement_tables(shape)
        for halfbits in range(8):
            assert sum(
                abs(tabs.displacement(a, 0, 4, halfbits)) for a in range(3)
            ) == 12

    def test_coords_consistent_with_shape(self):
        shape = TorusShape.parse("4x2x3")
        topo = Topology(shape)
        for rank in range(shape.nnodes):
            assert tuple(topo.coords[rank]) == shape.coord(rank)
