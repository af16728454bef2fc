"""Uniform (image-data) grids: the miniapp's mesh type."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.util.decomp import Extent


class ImageData(Dataset):
    """A uniform axis-aligned grid described by spacing and extent.

    ``extent`` uses VTK's inclusive point-index convention and may be a
    sub-extent of a larger ``whole_extent``: each rank's block of the
    miniapp's global grid is one ``ImageData`` whose extent locates it in
    index space.  Every grid here starts at the origin, (0, 0, 0).
    """

    def __init__(
        self,
        extent: Extent,
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
        whole_extent: Extent | None = None,
    ) -> None:
        super().__init__()
        if any(s <= 0 for s in spacing):
            raise ValueError("spacing must be positive")
        self.extent = extent
        self.origin = (0.0, 0.0, 0.0)
        self.spacing = tuple(float(s) for s in spacing)
        self.whole_extent = whole_extent if whole_extent is not None else extent

    @property
    def dims(self) -> tuple[int, int, int]:
        """Point dimensions of the local extent."""
        return self.extent.shape

    @property
    def num_points(self) -> int:
        return self.extent.num_points

    @property
    def num_cells(self) -> int:
        return self.extent.num_cells

    # -- geometry ---------------------------------------------------------------
    def point_coordinates_1d(self, axis: int) -> np.ndarray:
        """Physical coordinates of the points along one axis of the extent."""
        lo = (self.extent.i0, self.extent.j0, self.extent.k0)[axis]
        n = self.dims[axis]
        return self.origin[axis] + self.spacing[axis] * (lo + np.arange(n))

    def bounds(self) -> tuple[float, float, float, float, float, float]:
        x = self.point_coordinates_1d(0)
        y = self.point_coordinates_1d(1)
        z = self.point_coordinates_1d(2)
        return (x[0], x[-1], y[0], y[-1], z[0], z[-1])

    # -- field views --------------------------------------------------------------
    def point_field_3d(self, name: str) -> np.ndarray:
        """A scalar point array reshaped to the extent's (ni, nj, nk) -- a view."""
        from repro.data.dataset import Association

        arr = self.get_array(Association.POINT, name)
        return arr.values.reshape(self.dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ImageData(extent={self.extent}, spacing={self.spacing})"
