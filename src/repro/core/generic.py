"""The one simulation-side data adaptor.

A simulation is instrumented once (Sec. 3.2): it hands this adaptor a mesh
factory and registers each array it can expose as a *provider* -- a callable
returning the simulation's current buffer -- and the adaptor implements the
SENSEI contract over them.  Mesh and array objects are constructed only when
an analysis asks: the lazy mapping that makes no-analysis overhead "almost
nonexistent" and that the lazy-vs-eager ablation benchmark measures.

The oscillator, AVF, Nyx, n-body and PHASTA all register through it.  Data
that arrives by message rather than from simulation memory is the one other
concept, :class:`~repro.core.received.ReceivedDataAdaptor`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.adaptors import DataAdaptor
from repro.data import Association, DataArray, Dataset

#: Returns the current backing buffer (wrapped by ``DataArray.from_numpy``)
#: or a ready :class:`DataArray` (SoA/AoS particles, multi-component fields).
ArrayProvider = Callable[[], np.ndarray | DataArray]


class SimulationDataAdaptor(DataAdaptor):
    """Lazily maps a simulation's mesh and registered arrays to the data model.

    Parameters
    ----------
    comm:
        The simulation's communicator.
    mesh:
        Builds this rank's mesh, geometry only; called at most once between
        ``release_data`` calls.
    eager:
        When True, every registered array (and the mesh) is mapped at
        ``set_data_time`` even if no analysis consumes it -- the ablation
        counterpart of the default lazy behaviour.

    :meth:`get_mesh` never attaches attribute arrays: an analysis that wants
    one on the mesh fetches it with :meth:`get_array` and attaches it, as
    SENSEI's ``AddArray`` does, so every array access goes through
    :meth:`get_array` (and the sanitizer's write guard).
    """

    def __init__(
        self, comm, mesh: Callable[[], Dataset], eager: bool = False
    ) -> None:
        super().__init__(comm)
        self._make_mesh = mesh
        self.eager = eager
        self._providers: dict[tuple[Association, str], ArrayProvider] = {}
        self._order: dict[Association, list[str]] = {
            Association.POINT: [],
            Association.CELL: [],
        }
        self._mesh: Dataset | None = None
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
    def get_mesh(self) -> Dataset:
        if self._mesh is None:
            self._mesh = self._make_mesh()
            self.mesh_constructions += 1
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
        arr = backing if isinstance(backing, DataArray) else DataArray.from_numpy(name, backing)
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
