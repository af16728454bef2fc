"""Tests for slice extraction and derived fields."""

import numpy as np
import pytest

from repro.analysis import (
    SliceExtractAnalysis,
    SlicePlane,
    extract_axis_slice,
    gather_global_slice,
    gradient_3d,
    vorticity_magnitude,
)
from repro.core import Bridge
from repro.data import DataArray, ImageData
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.util import Extent


def _image_with_field(extent, whole=None):
    img = ImageData(extent, whole_extent=whole or extent)
    ni, nj, nk = extent.shape
    i = (extent.i0 + np.arange(ni))[:, None, None]
    j = (extent.j0 + np.arange(nj))[None, :, None]
    k = (extent.k0 + np.arange(nk))[None, None, :]
    field = (i * 10000 + j * 100 + k).astype(float) * np.ones((ni, nj, nk))
    img.add_point_array(DataArray.from_numpy("f", np.ascontiguousarray(field)))
    return img, field


class TestSlicePlane:
    def test_axis_validated(self):
        with pytest.raises(ValueError):
            SlicePlane(3, 0)


class TestExtractAxisSlice:
    def test_extract_interior_plane(self):
        img, field = _image_with_field(Extent(0, 4, 0, 3, 0, 2))
        s = extract_axis_slice(img, "f", SlicePlane(axis=2, index=1))
        assert s is not None
        assert s.values.shape == (5, 4)
        np.testing.assert_array_equal(s.values, field[:, :, 1])
        assert s.extent2d == (0, 4, 0, 3)

    def test_extract_is_view(self):
        img, _ = _image_with_field(Extent(0, 4, 0, 3, 0, 2))
        f3 = img.point_field_3d("f")
        s = extract_axis_slice(img, "f", SlicePlane(axis=0, index=2))
        assert np.shares_memory(s.values, f3)

    def test_disjoint_block_returns_none(self):
        img, _ = _image_with_field(Extent(0, 4, 0, 3, 5, 9))
        assert extract_axis_slice(img, "f", SlicePlane(axis=2, index=1)) is None

    def test_sub_extent_block_uses_global_index(self):
        img, field = _image_with_field(Extent(3, 6, 0, 2, 0, 2))
        s = extract_axis_slice(img, "f", SlicePlane(axis=0, index=4))
        assert s is not None
        np.testing.assert_array_equal(s.values, field[1])  # local index 4-3

    @pytest.mark.parametrize("axis,inplane", [(0, (0, 3, 0, 2)), (1, (0, 4, 0, 2)), (2, (0, 4, 0, 3))])
    def test_inplane_extent_per_axis(self, axis, inplane):
        img, _ = _image_with_field(Extent(0, 4, 0, 3, 0, 2))
        s = extract_axis_slice(img, "f", SlicePlane(axis=axis, index=0))
        assert s.extent2d == inplane


class TestGatherGlobalSlice:
    def test_parallel_assembly_matches_serial(self):
        whole = Extent(0, 7, 0, 5, 0, 3)
        plane = SlicePlane(axis=2, index=2)

        def prog(comm):
            from repro.util.decomp import regular_decompose_3d

            ext, _, _ = regular_decompose_3d((8, 6, 4), comm.size, comm.rank)
            img, _ = _image_with_field(ext, whole=whole)
            local = extract_axis_slice(img, "f", plane)
            return gather_global_slice(comm, local, whole, plane)

        serial = run_spmd(1, prog)[0]
        assert serial.shape == (8, 6)
        for n in (2, 4, 6):
            out = run_spmd(n, prog)[0]
            np.testing.assert_array_equal(out, serial)

    def test_nonroot_returns_none(self):
        whole = Extent(0, 3, 0, 3, 0, 3)
        plane = SlicePlane(axis=2, index=0)

        def prog(comm):
            img, _ = _image_with_field(whole)
            local = extract_axis_slice(img, "f", plane) if comm.rank == 0 else None
            return gather_global_slice(comm, local, whole, plane)

        out = run_spmd(2, prog)
        assert out[0] is not None and out[1] is None


class TestSliceExtractAnalysis:
    def test_end_to_end_over_miniapp(self):
        dims = (8, 8, 8)

        def prog(comm):
            sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            sl = SliceExtractAnalysis(SlicePlane(axis=2, index=4))
            bridge.add_analysis(sl)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return sim.extent, sim.field.copy(), sl.slices

        out = run_spmd(4, prog)
        slices = out[0][2]
        assert len(slices) == 2
        # Rebuild global field; its k=4 plane must equal the gathered slice.
        assembled = np.zeros(dims)
        for ext, block, _ in out:
            assembled[
                ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
            ] = block
        np.testing.assert_allclose(slices[-1], assembled[:, :, 4], rtol=1e-12)

    def test_only_intersecting_ranks_map_data(self):
        """Laziness: ranks whose block misses the plane never map the field."""
        dims = (4, 4, 8)

        def prog(comm):
            sim = OscillatorSimulation(comm, dims, default_oscillators())
            ad = sim.make_data_adaptor()
            bridge = Bridge(comm, ad)
            sl = SliceExtractAnalysis(SlicePlane(axis=2, index=0))
            bridge.add_analysis(sl)
            bridge.initialize()
            sim.advance()
            bridge.execute(sim.time, sim.step)
            return sim.extent.k0, ad.array_mappings

        for k0, mappings in run_spmd(4, prog):
            assert (mappings > 0) == (k0 == 0)


class TestDerivedFields:
    def test_gradient_of_linear_field_is_constant(self):
        x, y, z = np.meshgrid(
            np.arange(6.0), np.arange(5.0), np.arange(4.0), indexing="ij"
        )
        f = 2 * x + 3 * y - z
        gx, gy, gz = gradient_3d(f, (1.0, 1.0, 1.0))
        np.testing.assert_allclose(gx, 2.0)
        np.testing.assert_allclose(gy, 3.0)
        np.testing.assert_allclose(gz, -1.0)

    def test_gradient_respects_spacing(self):
        f = np.arange(8.0).reshape(8, 1, 1) * np.ones((8, 2, 2))
        gx, _, _ = gradient_3d(f, (0.5, 1.0, 1.0))
        np.testing.assert_allclose(gx, 2.0)

    def test_gradient_degenerate_axis(self):
        f = np.zeros((4, 1, 4))
        gx, gy, gz = gradient_3d(f, (1, 1, 1))
        assert gy.shape == f.shape
        np.testing.assert_allclose(gy, 0.0)

    def test_gradient_validation(self):
        with pytest.raises(ValueError):
            gradient_3d(np.zeros((2, 2)), (1, 1, 1))
        with pytest.raises(ValueError):
            gradient_3d(np.zeros((2, 2, 2)), (0, 1, 1))

    def test_vorticity_of_rigid_rotation(self):
        """u = -y, v = x, w = 0 has |curl| = 2 everywhere."""
        n = 8
        x, y, _ = np.meshgrid(
            np.arange(n, dtype=float),
            np.arange(n, dtype=float),
            np.arange(n, dtype=float),
            indexing="ij",
        )
        u, v, w = -y, x, np.zeros_like(x)
        vort = vorticity_magnitude(u, v, w, (1.0, 1.0, 1.0))
        np.testing.assert_allclose(vort, 2.0)

    def test_vorticity_of_irrotational_flow_is_zero(self):
        """u = x, v = -y is divergence-carrying but curl-free."""
        n = 6
        x, y, _ = np.meshgrid(
            np.arange(n, dtype=float),
            np.arange(n, dtype=float),
            np.arange(n, dtype=float),
            indexing="ij",
        )
        vort = vorticity_magnitude(x, -y, np.zeros_like(x), (1.0, 1.0, 1.0))
        np.testing.assert_allclose(vort, 0.0, atol=1e-12)

    def test_vorticity_shape_mismatch(self):
        with pytest.raises(ValueError):
            vorticity_magnitude(
                np.zeros((2, 2, 2)), np.zeros((3, 2, 2)), np.zeros((2, 2, 2)), (1, 1, 1)
            )
