"""Tests for DataArray: SoA/AoS layouts and the zero-copy invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import AOS, SOA, DataArray


class TestConstruction:
    def test_from_numpy_scalar_field_is_view(self):
        grid = np.zeros((4, 5, 6))
        arr = DataArray.from_numpy("data", grid)
        assert arr.num_tuples == 120
        assert arr.num_components == 1
        assert arr.is_zero_copy_of(grid)
        grid[1, 2, 3] = 7.5
        assert 7.5 in arr.values

    def test_from_soa_wraps_components_zero_copy(self):
        vx, vy, vz = (np.arange(10.0) for _ in range(3))
        arr = DataArray.from_soa("velocity", [vx, vy, vz])
        assert arr.layout is SOA
        assert arr.num_components == 3
        assert np.shares_memory(arr.component(0), vx)

    def test_from_soa_strided_views_allowed(self):
        """Fortran-style interleaved storage mapped as strided SoA views."""
        backing = np.arange(30.0).reshape(10, 3)
        arr = DataArray.from_soa("v", [backing[:, i] for i in range(3)])
        assert arr.is_zero_copy_of(backing)

    def test_from_aos_column_views(self):
        inter = np.arange(20.0).reshape(10, 2)
        arr = DataArray.from_aos("uv", inter)
        assert arr.layout is AOS
        assert arr.num_components == 2
        assert arr.is_zero_copy_of(inter)

    def test_from_aos_1d_promoted(self):
        arr = DataArray.from_aos("s", np.arange(5.0))
        assert arr.num_components == 1
        assert arr.num_tuples == 5

    def test_mismatched_component_lengths_rejected(self):
        with pytest.raises(ValueError):
            DataArray.from_soa("v", [np.zeros(3), np.zeros(4)])

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            DataArray("x", [], SOA)

    def test_non_1d_component_rejected(self):
        with pytest.raises(ValueError):
            DataArray("x", [np.zeros((2, 2))], SOA)

    def test_aos_3d_rejected(self):
        with pytest.raises(ValueError):
            DataArray.from_aos("x", np.zeros((2, 2, 2)))


class TestAccess:
    def test_values_scalar_only(self):
        arr = DataArray.from_soa("v", [np.zeros(3), np.zeros(3)])
        with pytest.raises(ValueError):
            _ = arr.values

    def test_as_aos_from_aos_returns_base_no_copy(self):
        inter = np.arange(12.0).reshape(4, 3)
        arr = DataArray.from_aos("v", inter)
        out = arr.as_aos()
        assert out is inter

    def test_as_aos_from_soa_copies(self):
        comps = [np.arange(4.0), np.arange(4.0) * 2]
        arr = DataArray.from_soa("v", comps)
        out = arr.as_aos()
        assert out.shape == (4, 2)
        assert not np.shares_memory(out, comps[0])
        assert np.array_equal(out[:, 1], comps[1])

    def test_as_soa_never_copies(self):
        inter = np.arange(12.0).reshape(4, 3)
        arr = DataArray.from_aos("v", inter)
        for c in arr.as_soa():
            assert np.shares_memory(c, inter)

    def test_magnitude_scalar_is_abs(self):
        arr = DataArray.from_numpy("s", np.array([-3.0, 4.0]))
        assert np.array_equal(arr.magnitude(), [3.0, 4.0])

    def test_magnitude_vector(self):
        arr = DataArray.from_soa("v", [np.array([3.0]), np.array([4.0])])
        assert arr.magnitude()[0] == pytest.approx(5.0)

    def test_min_max_across_components(self):
        arr = DataArray.from_soa("v", [np.array([1.0, 2.0]), np.array([-5.0, 9.0])])
        assert arr.min() == -5.0
        assert arr.max() == 9.0

    def test_len_and_nbytes(self):
        arr = DataArray.from_soa("v", [np.zeros(10), np.zeros(10)])
        assert len(arr) == 10
        assert arr.nbytes == 160


class TestCopySemantics:
    def test_deep_copy_owns_data(self):
        backing = np.zeros(10)
        arr = DataArray.from_numpy("s", backing)
        assert arr.is_zero_copy_of(backing)
        cp = arr.deep_copy()
        assert not cp.is_zero_copy
        assert not np.shares_memory(cp.values, backing)

    def test_deep_copy_rename(self):
        arr = DataArray.from_numpy("a", np.zeros(3))
        assert arr.deep_copy("b").name == "b"

    def test_mutation_through_view_visible_in_simulation(self):
        """The zero-copy contract in the write direction."""
        backing = np.zeros(6)
        arr = DataArray.from_numpy("s", backing)
        arr.values[2] = 11.0
        assert backing[2] == 11.0


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 50),
    ncomp=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_layout_roundtrip_property(n, ncomp, seed):
    """SoA -> AoS -> SoA preserves every component's values."""
    rng = np.random.default_rng(seed)
    comps = [rng.random(n) for _ in range(ncomp)]
    arr = DataArray.from_soa("v", comps)
    back = DataArray.from_aos("v", arr.as_aos())
    assert back.num_components == ncomp
    for i in range(ncomp):
        assert np.array_equal(back.component(i), comps[i])


class TestCopyIntrospection:
    """Mechanical verification of the no-copy / copy-on-conversion claims."""

    def test_from_numpy_is_zero_copy(self):
        arr = DataArray.from_numpy("s", np.zeros((4, 5)))
        assert arr.is_zero_copy
        assert arr.nbytes_copied == 0

    def test_from_soa_is_zero_copy(self):
        comps = [np.arange(10.0) for _ in range(3)]
        arr = DataArray.from_soa("v", comps)
        assert arr.is_zero_copy
        assert arr.nbytes_copied == 0

    def test_from_aos_is_zero_copy(self):
        arr = DataArray.from_aos("uv", np.arange(20.0).reshape(10, 2))
        assert arr.is_zero_copy
        assert arr.nbytes_copied == 0

    def test_non_contiguous_from_numpy_copies_and_reports(self):
        backing = np.zeros((10, 10))
        arr = DataArray.from_numpy("s", backing[::2, ::2])
        assert not arr.is_zero_copy
        assert arr.nbytes_copied == arr.nbytes

    def test_as_soa_never_copies(self):
        arr = DataArray.from_aos("uv", np.arange(20.0).reshape(10, 2))
        before = arr.nbytes_copied
        comps = arr.as_soa()
        assert arr.nbytes_copied == before
        assert np.shares_memory(comps[0], arr.component(0))

    def test_as_aos_on_soa_counts_conversion_copy(self):
        comps = [np.arange(10.0) for _ in range(3)]
        arr = DataArray.from_soa("v", comps)
        inter = arr.as_aos()
        assert not np.shares_memory(inter, comps[0])
        assert arr.nbytes_copied == inter.nbytes
        assert not arr.is_zero_copy or arr.nbytes_copied > 0

    def test_as_aos_on_aos_is_free(self):
        arr = DataArray.from_aos("uv", np.arange(20.0).reshape(10, 2))
        arr.as_aos()
        assert arr.nbytes_copied == 0

    def test_deep_copy_is_not_zero_copy(self):
        cp = DataArray.from_numpy("s", np.zeros(10)).deep_copy()
        assert not cp.is_zero_copy
        assert cp.nbytes_copied == cp.nbytes


class TestReadonlyViewAndFingerprint:
    def test_readonly_view_blocks_writes_shares_memory(self):
        backing = np.zeros(10)
        arr = DataArray.from_numpy("s", backing)
        view = arr.readonly_view()
        assert view.guarded and not view.writeable
        assert np.shares_memory(view.component(0), backing)
        with pytest.raises(ValueError):
            view.component(0)[0] = 1.0
        assert arr.writeable  # the original stays writable

    def test_fingerprint_tracks_content(self):
        backing = np.arange(10.0)
        arr = DataArray.from_numpy("s", backing)
        fp = arr.fingerprint()
        assert arr.fingerprint() == fp
        backing[3] = -1.0
        assert arr.fingerprint() != fp

    def test_fingerprint_distinguishes_dtype_and_shape(self):
        a = DataArray.from_numpy("s", np.zeros(4, dtype=np.float64))
        b = DataArray.from_numpy("s", np.zeros(4, dtype=np.float32))
        c = DataArray.from_numpy("s", np.zeros(8, dtype=np.float64))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
