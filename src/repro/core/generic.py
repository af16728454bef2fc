"""A reusable lazy data adaptor for structured (block) simulations.

The oscillator miniapp exposes "a block of a global structured grid plus
named numpy field arrays" (the science proxies derive fields or blank ghosts
and carry their own adaptors).  This adaptor implements the SENSEI contract
for that shape: field arrays are registered as *array providers* (callables
returning the simulation's current buffer), and mesh / array objects are
constructed only when an analysis asks -- the lazy mapping that makes
no-analysis overhead "almost nonexistent" (Sec. 3.2) and that the
lazy-vs-eager ablation benchmark measures.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.adaptors import DataAdaptor
from repro.data import Association, DataArray, ImageData
from repro.util.decomp import Extent

ArrayProvider = Callable[[], np.ndarray]


class LazyStructuredDataAdaptor(DataAdaptor):
    """Lazily maps a structured block + named numpy fields to the data model.

    Parameters
    ----------
    comm:
        The simulation's communicator.
    extent / whole_extent:
        This rank's block and the global grid, VTK point-index convention.
    spacing:
        Physical grid spacing; the origin is (0, 0, 0).
    eager:
        When True, every registered array (and the mesh) is mapped at
        ``set_data_time`` even if no analysis consumes it -- the ablation
        counterpart of the default lazy behaviour.
    """

    def __init__(
        self,
        comm,
        extent: Extent,
        whole_extent: Extent,
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
        eager: bool = False,
    ) -> None:
        super().__init__(comm)
        self.extent = extent
        self.whole_extent = whole_extent
        self.spacing = spacing
        self.eager = eager
        self._providers: dict[tuple[Association, str], ArrayProvider] = {}
        self._order: dict[Association, list[str]] = {
            Association.POINT: [],
            Association.CELL: [],
        }
        self._mesh: ImageData | None = None
        self._mapped: dict[tuple[Association, str], DataArray] = {}
        #: Counters the tests/ablations use to verify laziness.
        self.mesh_constructions = 0
        self.array_mappings = 0

    # -- simulation-side registration -----------------------------------------
    def register_array(
        self, association: Association, name: str, provider: ArrayProvider
    ) -> None:
        """Register a field the simulation can expose.

        ``provider`` returns the *current* backing array each step, which is
        how "the pointers ... are passed every time in situ is accessed".
        """
        key = (association, name)
        if key not in self._providers:
            self._order[association].append(name)
        self._providers[key] = provider

    def set_data_time(self, time: float, step: int) -> None:
        super().set_data_time(time, step)
        if self.eager:
            self.get_mesh()
            for assoc, names in self._order.items():
                for name in names:
                    self.get_array(assoc, name)

    # -- DataAdaptor contract ---------------------------------------------------
    def get_mesh(self, structure_only: bool = False) -> ImageData:
        if self._mesh is None:
            self._mesh = ImageData(
                self.extent,
                spacing=self.spacing,
                whole_extent=self.whole_extent,
            )
            self.mesh_constructions += 1
        if not structure_only:
            # Attach any already-mapped arrays so analyses that go through
            # the mesh see them too.
            for (assoc, _), arr in self._mapped.items():
                if not self._mesh.has_array(assoc, arr.name):
                    self._mesh.add_array(assoc, arr)
        return self._mesh

    def get_array(self, association: Association, name: str) -> DataArray:
        key = (association, name)
        cached = self._mapped.get(key)
        if cached is not None:
            return cached
        provider = self._providers.get(key)
        if provider is None:
            raise KeyError(
                f"simulation exposes no {association.value} array {name!r}; "
                f"have {self._order[association]}"
            )
        backing = provider()
        arr = DataArray.from_numpy(name, backing)
        self._mapped[key] = arr
        self.array_mappings += 1
        rec = getattr(self.comm, "trace_recorder", None)
        if rec is not None:
            # The Sec. 3.2 zero-copy claim, as counters: bytes mapped by
            # reference vs bytes the adaptor had to copy (non-contiguous
            # or dtype-converted providers).
            if arr.is_zero_copy:
                rec.count("sensei::bytes_zero_copy", arr.nbytes)
            else:
                rec.count("sensei::bytes_copied", arr.nbytes_copied)
        return arr

    def get_number_of_arrays(self, association: Association) -> int:
        return len(self._order[association])

    def get_array_name(self, association: Association, index: int) -> str:
        return self._order[association][index]

    def release_data(self) -> None:
        """Drop per-step mappings; next step re-maps from fresh pointers."""
        self._mapped.clear()
        self._mesh = None
