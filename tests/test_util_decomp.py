"""Unit and property tests for domain decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import Extent, block_decompose_1d, factor_ranks, regular_decompose_3d


class TestBlockDecompose1D:
    def test_even_split(self):
        assert block_decompose_1d(10, 2, 0) == (0, 5)
        assert block_decompose_1d(10, 2, 1) == (5, 10)

    def test_remainder_goes_to_leading_blocks(self):
        # 10 = 3 + 3 + 2 + 2
        blocks = [block_decompose_1d(10, 4, i) for i in range(4)]
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes == [3, 3, 2, 2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            block_decompose_1d(10, 0, 0)
        with pytest.raises(ValueError):
            block_decompose_1d(10, 2, 2)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_partition_property(self, n, parts):
        """Blocks tile [0, n) exactly, contiguously, with balanced sizes."""
        blocks = [block_decompose_1d(n, parts, i) for i in range(parts)]
        assert blocks[0][0] == 0
        assert blocks[-1][1] == n
        for (lo0, hi0), (lo1, hi1) in zip(blocks, blocks[1:]):
            assert hi0 == lo1
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1


class TestFactorRanks:
    def test_cubes(self):
        assert factor_ranks(8) == (2, 2, 2)
        assert factor_ranks(27) == (3, 3, 3)

    def test_prime(self):
        assert factor_ranks(7) == (7, 1, 1)

    def test_one(self):
        assert factor_ranks(1) == (1, 1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            factor_ranks(0)

    @given(st.integers(1, 4096))
    def test_product_property(self, n):
        grid = factor_ranks(n)
        assert grid[0] * grid[1] * grid[2] == n
        assert grid[0] >= grid[1] >= grid[2] >= 1


class TestExtent:
    def test_shape_points_cells(self):
        e = Extent(0, 9, 0, 4, 0, 0)
        assert e.shape == (10, 5, 1)
        assert e.num_points == 50
        assert e.num_cells == 0  # flat in k

        e3 = Extent(0, 2, 0, 2, 0, 2)
        assert e3.num_cells == 8

    def test_intersect(self):
        a = Extent(0, 10, 0, 10, 0, 10)
        b = Extent(5, 15, 5, 15, 5, 15)
        assert a.intersect(b) == Extent(5, 10, 5, 10, 5, 10)

    def test_disjoint_intersect_is_none(self):
        a = Extent(0, 4, 0, 4, 0, 4)
        b = Extent(6, 9, 0, 4, 0, 4)
        assert a.intersect(b) is None

    def test_grow_clamped(self):
        bounds = Extent(0, 10, 0, 10, 0, 10)
        e = Extent(0, 4, 3, 6, 9, 10)
        g = e.grow(2, bounds)
        assert g == Extent(0, 6, 1, 8, 7, 10)


class TestRegularDecompose3D:
    def test_single_rank_gets_all(self):
        ext, grid, coord = regular_decompose_3d((8, 8, 8), 1, 0)
        assert ext == Extent(0, 7, 0, 7, 0, 7)
        assert grid == (1, 1, 1)
        assert coord == (0, 0, 0)

    def test_out_of_range_rank(self):
        with pytest.raises(ValueError):
            regular_decompose_3d((8, 8, 8), 4, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(st.integers(4, 12), st.integers(4, 12), st.integers(4, 12)),
        st.integers(1, 16),
    )
    def test_blocks_tile_domain(self, dims, nranks):
        """Union of local extents covers every point exactly once."""
        seen = {}
        for rank in range(nranks):
            ext, grid, _ = regular_decompose_3d(dims, nranks, rank)
            assert grid[0] * grid[1] * grid[2] == nranks
            for i in range(ext.i0, ext.i1 + 1):
                for j in range(ext.j0, ext.j1 + 1):
                    for k in range(ext.k0, ext.k1 + 1):
                        key = (i, j, k)
                        assert key not in seen, f"point {key} owned twice"
                        seen[key] = rank
        assert len(seen) == dims[0] * dims[1] * dims[2]
