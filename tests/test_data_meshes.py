"""Tests for the mesh types: ImageData, UnstructuredGrid, MultiBlockDataset,
and ghost-level handling."""

import numpy as np
import pytest

from repro.data import (
    Association,
    CellType,
    DataArray,
    GHOST_ARRAY_NAME,
    ImageData,
    MultiBlockDataset,
    UnstructuredGrid,
    ghost_levels_for_extent,
)
from repro.util import Extent


class TestImageData:
    def test_dims_points_cells(self):
        img = ImageData(Extent(0, 9, 0, 4, 0, 2))
        assert img.dims == (10, 5, 3)
        assert img.num_points == 150
        assert img.num_cells == 9 * 4 * 2

    def test_sub_extent_coordinates_offset(self):
        img = ImageData(
            Extent(5, 9, 0, 0, 0, 0), origin=(1.0, 0, 0), spacing=(0.5, 1, 1)
        )
        x = img.point_coordinates_1d(0)
        assert x[0] == pytest.approx(1.0 + 0.5 * 5)
        assert x[-1] == pytest.approx(1.0 + 0.5 * 9)

    def test_bounds(self):
        img = ImageData(Extent(0, 3, 0, 3, 0, 3), spacing=(2.0, 2.0, 2.0))
        assert img.bounds() == (0.0, 6.0, 0.0, 6.0, 0.0, 6.0)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            ImageData(Extent(0, 1, 0, 1, 0, 1), spacing=(0.0, 1, 1))

    def test_point_field_3d_is_view(self):
        img = ImageData(Extent(0, 2, 0, 2, 0, 2))
        field = np.arange(27.0)
        img.add_point_array(DataArray.from_numpy("f", field))
        f3 = img.point_field_3d("f")
        assert f3.shape == (3, 3, 3)
        assert np.shares_memory(f3, field)

    def test_attribute_size_validated(self):
        img = ImageData(Extent(0, 2, 0, 2, 0, 2))
        with pytest.raises(ValueError):
            img.add_point_array(DataArray.from_numpy("f", np.zeros(5)))
        with pytest.raises(ValueError):
            img.add_array(Association.CELL, DataArray.from_numpy("f", np.zeros(27)))
        img.add_array(Association.CELL, DataArray.from_numpy("f", np.zeros(8)))

    def test_array_management(self):
        img = ImageData(Extent(0, 1, 0, 1, 0, 1))
        img.add_point_array(DataArray.from_numpy("a", np.zeros(8)))
        img.add_point_array(DataArray.from_numpy("b", np.zeros(8)))
        assert img.array_names(Association.POINT) == ["a", "b"]
        assert img.num_arrays(Association.POINT) == 2
        assert img.has_array(Association.POINT, "a")
        assert not img.has_array(Association.CELL, "a")
        with pytest.raises(KeyError):
            img.get_array(Association.POINT, "zzz")


class TestUnstructuredGrid:
    @pytest.fixture
    def tet_grid(self):
        points = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        return points, UnstructuredGrid.from_cells(points, CellType.TETRA, cells)

    def test_from_cells(self, tet_grid):
        points, g = tet_grid
        assert g.num_points == 5
        assert g.num_cells == 2
        assert np.array_equal(g.cell(0), [0, 1, 2, 3])
        assert np.array_equal(g.cell(1), [1, 2, 3, 4])

    def test_points_zero_copy(self, tet_grid):
        points, g = tet_grid
        assert np.shares_memory(g.points, points)

    def test_bounds(self, tet_grid):
        _, g = tet_grid
        assert g.bounds() == (0, 1, 0, 1, 0, 1)

    def test_bad_connectivity_rejected(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            UnstructuredGrid.from_cells(pts, CellType.TRIANGLE, np.array([[0, 1, 5]]))

    def test_bad_offsets_rejected(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            UnstructuredGrid(
                pts, np.array([0, 1, 2]), np.array([2, 2]), np.array([5, 5])
            )

    def test_wrong_cell_shape_rejected(self):
        with pytest.raises(ValueError):
            UnstructuredGrid.from_cells(
                np.zeros((4, 3)), CellType.TETRA, np.array([[0, 1, 2]])
            )

    def test_points_must_be_n_by_3(self):
        with pytest.raises(ValueError):
            UnstructuredGrid.from_cells(
                np.zeros((4, 2)), CellType.TRIANGLE, np.array([[0, 1, 2]])
            )

    def test_point_attributes(self, tet_grid):
        _, g = tet_grid
        v = np.random.default_rng(0).random((5, 3))
        g.add_point_array(DataArray.from_aos("velocity", v))
        assert g.get_array(Association.POINT, "velocity").num_components == 3


class TestMultiBlock:
    def test_local_vs_global(self):
        mb = MultiBlockDataset(4)
        img = ImageData(Extent(0, 1, 0, 1, 0, 1))
        mb.set_block(2, img)
        assert mb.num_blocks == 4
        assert mb.num_local_blocks == 1
        assert mb.get_block(0) is None
        assert mb.get_block(2) is img
        assert list(mb.local_blocks()) == [(2, img)]

    def test_index_validation(self):
        mb = MultiBlockDataset(2)
        with pytest.raises(IndexError):
            mb.set_block(5, ImageData(Extent(0, 1, 0, 1, 0, 1)))
        with pytest.raises(IndexError):
            mb.get_block(-1)

    def test_local_counts(self):
        mb = MultiBlockDataset(2)
        mb.set_block(0, ImageData(Extent(0, 2, 0, 2, 0, 2)))
        mb.set_block(1, ImageData(Extent(0, 1, 0, 1, 0, 1)))
        assert mb.local_num_points() == 27 + 8
        assert mb.local_num_cells() == 8 + 1
        assert len(mb) == 2
        assert len(list(iter(mb))) == 2


class TestGhosts:
    def test_ghost_levels_no_ghost_region(self):
        e = Extent(0, 3, 0, 3, 0, 3)
        levels = ghost_levels_for_extent(e, e)
        assert levels.dtype == np.uint8
        assert np.all(levels == 0)

    def test_ghost_levels_one_layer(self):
        ghosted = Extent(0, 4, 0, 4, 0, 4)
        owned = Extent(1, 3, 1, 3, 1, 3)
        levels = ghost_levels_for_extent(ghosted, owned).reshape(5, 5, 5)
        assert levels[0, 0, 0] == 1
        assert levels[2, 2, 2] == 0
        assert levels[4, 2, 2] == 1
        # owned count = 3^3
        assert int((levels == 0).sum()) == 27

    def test_ghost_levels_two_layers(self):
        ghosted = Extent(0, 6, 0, 6, 0, 6)
        owned = Extent(2, 4, 2, 4, 2, 4)
        levels = ghost_levels_for_extent(ghosted, owned).reshape(7, 7, 7)
        assert levels[0, 3, 3] == 2
        assert levels[1, 3, 3] == 1

    def test_dataset_ghost_array_and_owned_mask(self):
        img = ImageData(Extent(0, 4, 0, 4, 0, 4))
        owned = Extent(1, 3, 1, 3, 1, 3)
        img.set_ghost_levels(
            Association.POINT, ghost_levels_for_extent(img.extent, owned)
        )
        assert img.has_array(Association.POINT, GHOST_ARRAY_NAME)
        mask = img.owned_mask(Association.POINT)
        assert int(mask.sum()) == 27

    def test_owned_mask_without_ghosts_is_all_true(self):
        img = ImageData(Extent(0, 1, 0, 1, 0, 1))
        assert img.owned_mask(Association.POINT).all()
