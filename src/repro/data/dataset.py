"""Dataset base type: attribute arrays over points and cells, plus ghosts."""

from __future__ import annotations

import enum

import numpy as np

from repro.data.array import DataArray

#: Name of the ghost byte array, mirroring VTK's ``vtkGhostLevels``.
GHOST_ARRAY_NAME = "vtkGhostLevels"


class Association(enum.Enum):
    """Where an attribute array lives on the mesh."""

    POINT = "point"
    CELL = "cell"


class Dataset:
    """Base mesh type: a container of point/cell :class:`DataArray` attributes.

    Subclasses define geometry/topology (:class:`~repro.data.image_data.ImageData`,
    :class:`~repro.data.unstructured.UnstructuredGrid`, ...) and report
    ``num_points`` / ``num_cells`` so attribute sizes can be validated.
    """

    def __init__(self) -> None:
        self._arrays: dict[Association, dict[str, DataArray]] = {
            Association.POINT: {},
            Association.CELL: {},
        }

    # geometry interface supplied by subclasses -------------------------------
    @property
    def num_points(self) -> int:
        raise NotImplementedError

    @property
    def num_cells(self) -> int:
        raise NotImplementedError

    # attribute management -----------------------------------------------------
    def _expected(self, assoc: Association) -> int:
        return self.num_points if assoc is Association.POINT else self.num_cells

    def add_array(self, assoc: Association, array: DataArray) -> None:
        expected = self._expected(assoc)
        if array.num_tuples != expected:
            raise ValueError(
                f"array {array.name!r} has {array.num_tuples} tuples, "
                f"{assoc.value} data needs {expected}"
            )
        self._arrays[assoc][array.name] = array

    def add_point_array(self, array: DataArray) -> None:
        self.add_array(Association.POINT, array)

    def get_array(self, assoc: Association, name: str) -> DataArray:
        try:
            return self._arrays[assoc][name]
        except KeyError:
            raise KeyError(
                f"no {assoc.value} array named {name!r}; "
                f"have {sorted(self._arrays[assoc])}"
            ) from None

    def has_array(self, assoc: Association, name: str) -> bool:
        return name in self._arrays[assoc]

    def array_names(self, assoc: Association) -> list[str]:
        return sorted(self._arrays[assoc])

    # ghost support -------------------------------------------------------------
    def set_ghost_levels(self, assoc: Association, levels: np.ndarray) -> None:
        """Attach a ``vtkGhostLevels`` byte array (0 = owned, >0 = ghost)."""
        levels = np.asarray(levels, dtype=np.uint8)
        self.add_array(assoc, DataArray.from_soa(GHOST_ARRAY_NAME, [levels]))

    def ghost_levels(self, assoc: Association) -> np.ndarray | None:
        if self.has_array(assoc, GHOST_ARRAY_NAME):
            return self.get_array(assoc, GHOST_ARRAY_NAME).values
        return None

    def owned_mask(self, assoc: Association) -> np.ndarray:
        """Boolean mask of non-ghost entries (all True without ghost array)."""
        g = self.ghost_levels(assoc)
        if g is None:
            return np.ones(self._expected(assoc), dtype=bool)
        return g == 0
