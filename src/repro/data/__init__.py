"""VTK-like data model with zero-copy array mapping.

The SENSEI interface (Sec. 3.2) "selected the VTK data model" and "enhanced
the VTK data model to support arbitrary layouts for multicomponent arrays
... structure-of-arrays and array-of-structures ... without additional
memory copying (zero-copy)".  This package is that data model, rebuilt on
NumPy:

- :class:`DataArray` wraps simulation memory as SoA or AoS without copying;
- :class:`ImageData` and :class:`UnstructuredGrid` are the mesh types the
  miniapp, Nyx, and PHASTA map onto;
- :class:`MultiBlockDataset` carries one block per rank, the way the paper's
  codes expose their local domains;
- ghost cells are marked with a ``vtkGhostLevels``-style byte array
  (Sec. 4.2.3, Nyx: "blanking out ghost cells ... by associating a
  vtkGhostLevels attribute -- a byte array of flags marking ghost cells");
- :class:`ParticleSet` is the ragged, variable-per-rank particle
  population (the paper's Nyx workload shape), with exact-integer
  deposit kernels that keep derived grids bit-identical across
  decompositions.
"""

from repro.data.array import AOS, SOA, DataArray, Layout
from repro.data.dataset import Association, Dataset, GHOST_ARRAY_NAME
from repro.data.image_data import ImageData
from repro.data.unstructured import CellType, UnstructuredGrid
from repro.data.multiblock import MultiBlockDataset
from repro.data.ghost import ghost_levels_for_extent
from repro.data.particles import (
    DEPOSIT_SCALE,
    PARTICLE_ARRAYS,
    ParticleSet,
    cic_deposit_int,
    cic_deposit_int_2d,
    cic_gather,
)

__all__ = [
    "DataArray",
    "Layout",
    "SOA",
    "AOS",
    "Dataset",
    "Association",
    "GHOST_ARRAY_NAME",
    "ImageData",
    "UnstructuredGrid",
    "CellType",
    "MultiBlockDataset",
    "ghost_levels_for_extent",
    "ParticleSet",
    "PARTICLE_ARRAYS",
    "DEPOSIT_SCALE",
    "cic_deposit_int",
    "cic_deposit_int_2d",
    "cic_gather",
]
