"""Tests for the one received-data adaptor (FlexPath endpoint + service)."""

import numpy as np
import pytest

from repro.core import ReceivedDataAdaptor
from repro.data import Association, MultiBlockDataset
from repro.mpi import Communicator
from repro.util import Extent


def _adaptor(n_blocks=1):
    return ReceivedDataAdaptor(Communicator.single_rank(), n_blocks)


def test_single_block_is_passed_through_without_a_copy():
    block = np.arange(24.0).reshape(2, 3, 4)
    adaptor = _adaptor()
    adaptor.ingest(0, Extent(0, 1, 0, 2, 0, 3), {"data": block})
    arr = adaptor.get_array(Association.POINT, "data")
    assert arr.is_zero_copy_of(block) and arr.num_tuples == 24
    mesh = adaptor.get_mesh()
    assert isinstance(mesh, MultiBlockDataset) and mesh.num_local_blocks == 1
    (img,) = mesh
    assert img.extent == img.whole_extent == Extent(0, 1, 0, 2, 0, 3)
    assert img.has_array(Association.POINT, "data")


def test_blocks_concatenate_in_block_order_whatever_the_arrival_order():
    whole = Extent(0, 3, 0, 0, 0, 0)
    adaptor = _adaptor(n_blocks=3)
    adaptor.ingest(2, Extent(2, 3, 0, 0, 0, 0), {"data": np.array([2.0, 3.0])}, whole)
    adaptor.ingest(0, Extent(0, 1, 0, 0, 0, 0), {"data": np.array([0.0, 1.0])}, whole)
    values = adaptor.get_array(Association.POINT, "data").values
    assert values.tolist() == [0.0, 1.0, 2.0, 3.0]
    mesh = adaptor.get_mesh()
    assert len(mesh) == 3 and [i for i, _ in mesh.local_blocks()] == [0, 2]
    assert all(b.whole_extent == whole for b in mesh)


def test_names_and_release():
    adaptor = _adaptor()
    adaptor.ingest(
        0, Extent(0, 1, 0, 0, 0, 0), {"b": np.zeros(2), "a": np.ones(2)}
    )
    assert adaptor.available_arrays(Association.POINT) == ["a", "b"]
    assert adaptor.available_arrays(Association.CELL) == []
    with pytest.raises(KeyError):
        adaptor.get_array(Association.POINT, "missing")
    with pytest.raises(KeyError):
        adaptor.get_array(Association.CELL, "a")
    adaptor.release_data()
    assert adaptor.get_mesh().num_local_blocks == 0
    with pytest.raises(KeyError):
        adaptor.get_array(Association.POINT, "a")
