"""Unstructured grids: PHASTA's mesh type.

PHASTA's SENSEI data adaptor "uses VTK's zero-copy ability to map the nodal
coordinates and field variables while the VTK grid connectivity is a full
copy" (Sec. 4.2.1).  This class supports exactly that split: points and
attributes are wrapped by reference; connectivity is validated (and therefore
owned) on construction.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.data.dataset import Dataset


class CellType(enum.IntEnum):
    """Subset of VTK cell types used by the proxies."""

    VERTEX = 1
    LINE = 3
    TRIANGLE = 5
    QUAD = 9
    TETRA = 10
    HEXAHEDRON = 12


#: Points per cell for the fixed-size cell types above.
CELL_NUM_POINTS = {
    CellType.VERTEX: 1,
    CellType.LINE: 2,
    CellType.TRIANGLE: 3,
    CellType.QUAD: 4,
    CellType.TETRA: 4,
    CellType.HEXAHEDRON: 8,
}


class UnstructuredGrid(Dataset):
    """Points + (connectivity, offsets, cell types) topology.

    ``points`` is ``(n, 3)`` and is stored by reference (zero-copy).
    ``connectivity`` is a flat point-index array; ``offsets`` has one entry
    per cell giving the *end* of its slice in ``connectivity`` (VTK 9 style:
    ``offsets[c-1]:offsets[c]`` with an implicit leading 0).
    """

    def __init__(
        self,
        points: np.ndarray,
        connectivity: np.ndarray,
        offsets: np.ndarray,
        cell_types: np.ndarray,
    ) -> None:
        super().__init__()
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array")
        connectivity = np.asarray(connectivity, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        cell_types = np.asarray(cell_types, dtype=np.uint8)
        if offsets.shape != cell_types.shape:
            raise ValueError("offsets and cell_types must have one entry per cell")
        if offsets.size and offsets[-1] != connectivity.size:
            raise ValueError("last offset must equal connectivity length")
        if offsets.size and (np.any(np.diff(offsets) <= 0) or offsets[0] <= 0):
            raise ValueError("offsets must be strictly increasing and positive")
        if connectivity.size and (
            connectivity.min() < 0 or connectivity.max() >= points.shape[0]
        ):
            raise ValueError("connectivity references out-of-range points")
        self.points = points
        self.connectivity = connectivity
        self.offsets = offsets
        self.cell_types = cell_types

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_cells(
        cls, points: np.ndarray, cell_type: CellType, cells: np.ndarray
    ) -> "UnstructuredGrid":
        """Build from a homogeneous ``(ncells, pts_per_cell)`` cell array."""
        cells = np.asarray(cells, dtype=np.int64)
        npts = CELL_NUM_POINTS[cell_type]
        if cells.ndim != 2 or cells.shape[1] != npts:
            raise ValueError(
                f"{cell_type.name} cells must be (ncells, {npts}); got {cells.shape}"
            )
        ncells = cells.shape[0]
        connectivity = cells.reshape(-1)
        offsets = np.arange(1, ncells + 1, dtype=np.int64) * npts
        cell_types = np.full(ncells, int(cell_type), dtype=np.uint8)
        return cls(points, connectivity, offsets, cell_types)

    # -- topology access -----------------------------------------------------------
    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_cells(self) -> int:
        return self.offsets.shape[0]

    def cell(self, c: int) -> np.ndarray:
        """Point indices of cell ``c``."""
        start = 0 if c == 0 else int(self.offsets[c - 1])
        return self.connectivity[start : int(self.offsets[c])]

    def bounds(self) -> tuple[float, float, float, float, float, float]:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return (lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnstructuredGrid(points={self.num_points}, cells={self.num_cells})"
