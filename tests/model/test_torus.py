"""Unit tests for partition shapes."""

import pytest
from hypothesis import given, strategies as st

from repro.model.torus import TorusShape
from repro.net.displacement import displacement_tables, reference_displacement


class TestParsing:
    def test_parse_3d(self):
        s = TorusShape.parse("8x8x16")
        assert s.dims == (8, 8, 16)
        assert s.torus == (True, True, True)

    def test_parse_mesh_suffix(self):
        s = TorusShape.parse("8x8x2M")
        assert s.dims == (8, 8, 2)
        assert s.torus == (True, True, False)

    def test_parse_1d(self):
        s = TorusShape.parse("16")
        assert s.dims == (16,)

    def test_label_roundtrip(self):
        for lbl in ("8", "8x16", "8x4M", "40x32x16", "8x8x2M"):
            assert TorusShape.parse(lbl).label == lbl

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            TorusShape.parse("8xx8")
        with pytest.raises(ValueError):
            TorusShape.parse("8x8x8x8")
        with pytest.raises(ValueError):
            TorusShape.parse("abc")

    def test_constructors(self):
        assert TorusShape.line(8).dims == (8,)
        assert TorusShape.plane(8, 16).dims == (8, 16)
        assert TorusShape.cube(8, 8, 8).nnodes == 512


class TestTopology:
    def test_nnodes(self):
        assert TorusShape.parse("40x32x16").nnodes == 20480

    def test_max_dim_and_axis(self):
        s = TorusShape.parse("8x32x16")
        assert s.max_dim == 32
        assert s.longest_axis == 1

    def test_symmetry(self):
        assert TorusShape.parse("8x8x8").is_symmetric
        assert TorusShape.parse("16x16").is_symmetric
        assert TorusShape.parse("8").is_symmetric
        assert not TorusShape.parse("8x8x16").is_symmetric
        assert not TorusShape.parse("8x8M").is_symmetric  # mesh dim

    def test_links_torus(self):
        # Paper Section 2.1: 2*P directed links per torus dimension.
        s = TorusShape.parse("8x8x8")
        for a in range(3):
            assert s.links_in_dim(a) == 2 * 512
        assert s.total_links == 6 * 512

    def test_links_mesh(self):
        s = TorusShape.parse("8x4M")
        assert s.links_in_dim(0) == 2 * 32       # torus dim
        assert s.links_in_dim(1) == 2 * 32 * 3 // 4  # mesh: 2*P*(n-1)/n

    def test_links_extent_one(self):
        s = TorusShape((4, 1), (True, True))
        assert s.links_in_dim(1) == 0

    def test_extent_two_torus_counts_as_mesh_links(self):
        # A wrap link on a 2-extent dimension duplicates the mesh link.
        s = TorusShape.parse("8x2")
        assert s.links_in_dim(1) == TorusShape.parse("8x2M").links_in_dim(1)

    def test_wrap_effective(self):
        assert TorusShape.parse("8x2").wrap_effective(0)
        assert not TorusShape.parse("8x2").wrap_effective(1)
        assert not TorusShape.parse("8x4M").wrap_effective(1)


class TestContention:
    def test_eq2_torus(self):
        # C = M/8 on an all-torus partition.
        assert TorusShape.parse("8x8x8").contention_factor == pytest.approx(1.0)
        assert TorusShape.parse("40x32x16").contention_factor == pytest.approx(5.0)

    def test_mesh_dimension_doubles(self):
        # A mesh dimension has half the bisection: C_d = n/4.
        assert TorusShape.parse("8x8M").contention_factor == pytest.approx(2.0)
        assert TorusShape.parse("8x8").contention_factor == pytest.approx(1.0)

    def test_bottleneck_axis(self):
        assert TorusShape.parse("8x32x16").bottleneck_axis == 1
        # 8-mesh (C=2) beats 16-torus (C=2): tie goes to the first.
        s = TorusShape.parse("8Mx16")
        assert s.contention_factor_dim(0) == pytest.approx(2.0)
        assert s.contention_factor_dim(1) == pytest.approx(2.0)

    def test_per_node_peak_bandwidth(self):
        # 1/(C*beta): the Figure 3 "peak bisection bandwidth/node" series.
        s = TorusShape.parse("8x8x8")
        beta = 4.536
        assert s.per_node_peak_bandwidth(beta) == pytest.approx(1 / beta)

    def test_bisection_links(self):
        s = TorusShape.parse("8x8x8")
        assert s.bisection_links(0) == 2 * 64
        m = TorusShape.parse("8x8x8M")
        assert m.bisection_links(2) == 64


class TestCoordinates:
    def test_x_fastest(self):
        s = TorusShape.parse("8x8x8")
        assert s.rank((1, 0, 0)) == 1
        assert s.rank((0, 1, 0)) == 8
        assert s.rank((0, 0, 1)) == 64
        assert [s.coord(r) for r in range(3)] == [
            (0, 0, 0), (1, 0, 0), (2, 0, 0)
        ]

    def test_roundtrip_example(self):
        s = TorusShape.parse("8x8x8")
        assert s.coord(209) == (1, 2, 3)
        assert s.rank((1, 2, 3)) == 209

    @given(st.integers(0, 511))
    def test_coord_rank_roundtrip(self, rank):
        s = TorusShape.parse("8x8x8")
        assert s.rank(s.coord(rank)) == rank

    @given(st.integers(0, 8 * 4 * 2 - 1))
    def test_coord_rank_roundtrip_mixed_extents(self, rank):
        s = TorusShape.parse("8x4x2")
        assert s.rank(s.coord(rank)) == rank

    def test_1d(self):
        s = TorusShape.parse("8")
        assert s.rank((5,)) == 5
        assert s.coord(5) == (5,)

    def test_out_of_range_coord_raises(self):
        with pytest.raises(ValueError, match="coordinate 8 out of range"):
            TorusShape.parse("8x8x8").rank((8, 0, 0))

    def test_out_of_range_rank_raises(self):
        s = TorusShape.parse("8x8x8")
        with pytest.raises(ValueError, match=r"rank 512 out of range \[0,"):
            s.coord(512)
        with pytest.raises(ValueError, match="out of range"):
            s.coord(-1)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensionality mismatch"):
            TorusShape.parse("8x8x8").rank((1, 2))

    def test_hops(self):
        # Per-axis shortest displacement as the kernel settles it: the
        # exact-half z offset goes + or - by the packet's z tie bit.
        s = TorusShape.parse("8x8x8")
        tabs = displacement_tables(s)
        src, dst = (0, 0, 0), (7, 1, 4)
        for halfbits, want in ((0b100, (-1, 1, 4)), (0, (-1, 1, -4))):
            assert tuple(
                tabs.displacement(a, src[a], dst[a], halfbits)
                for a in range(3)
            ) == want

    def test_mean_hops_even_torus_is_quarter(self):
        # The paper's n/4 average (Section 2.1).
        assert TorusShape.parse("8").mean_hops(0) == pytest.approx(2.0)
        assert TorusShape.parse("16").mean_hops(0) == pytest.approx(4.0)

    def test_mean_hops_odd_torus_exact(self):
        n = 7
        exact = sum(
            abs(reference_displacement(n, True, t - s, 0))
            for s in range(n)
            for t in range(n)
        ) / n**2
        assert TorusShape.parse("7").mean_hops(0) == pytest.approx(exact)

    def test_mean_hops_mesh_exact(self):
        n = 8
        exact = sum(abs(t - s) for s in range(n) for t in range(n)) / n**2
        assert TorusShape.parse("8M").mean_hops(0) == pytest.approx(exact)

    def test_mean_hops_extent_one(self):
        assert TorusShape.parse("1x8").mean_hops(0) == 0.0

    @pytest.mark.parametrize("suffix", ["", "M"])
    def test_pair_hops_matches_brute_force(self, suffix):
        for n in range(1, 13):
            shape = TorusShape.parse(f"{n}{suffix}")
            wrap = shape.wrap_effective(0)
            brute = sum(
                abs(reference_displacement(n, wrap, t - s, 0))
                for s in range(n)
                for t in range(n)
            )
            assert shape.pair_hops(0) == brute, (n, suffix)

    def test_mean_total_hops_symmetric(self):
        s = TorusShape.parse("8x8x8")
        assert s.mean_total_hops == pytest.approx(6.0)


class TestValidation:
    def test_rejects_4d(self):
        with pytest.raises(ValueError):
            TorusShape((2, 2, 2, 2))

    def test_rejects_zero_extent(self):
        with pytest.raises(ValueError):
            TorusShape((0, 8))

    def test_len_is_nnodes(self):
        assert len(TorusShape.parse("4x4")) == 16
