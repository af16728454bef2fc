"""SENSEI data- and analysis-adaptor APIs.

The API shapes follow SENSEI's C++ interface (``sensei::DataAdaptor``,
``sensei::AnalysisAdaptor``) closely enough that the paper's instrumentation
pattern translates directly: a simulation is instrumented once, by
registering its mesh and arrays with
:class:`~repro.core.generic.SimulationDataAdaptor`; any number of
analyses/infrastructures implement ``AnalysisAdaptor`` and consume it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.data import Association, DataArray, Dataset

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi import Communicator
    from repro.util import MemoryTracker, TimerRegistry


class DataAdaptor(abc.ABC):
    """Maps one simulation's data structures onto the generic data model.

    Contract (mirrors SENSEI):

    - :meth:`get_mesh` returns the local mesh and maps no attribute array:
      an analysis that wants one on the mesh fetches it with
      :meth:`get_array` and attaches it (SENSEI's ``AddArray``);
    - :meth:`get_array` maps one named attribute array on demand -- the lazy
      hook that keeps no-analysis overhead near zero;
    - :meth:`release_data` drops any per-step mappings after all analyses
      have executed; the next step re-maps from fresh simulation pointers
      ("the pointers to the ... grid data structures are passed every time
      in situ is accessed", Sec. 4.2.1).
    """

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm
        self._time = 0.0
        self._time_step = 0

    # -- simulation-side per-step state ------------------------------------
    def set_data_time(self, time: float, step: int) -> None:
        self._time = float(time)
        self._time_step = int(step)

    def get_data_time(self) -> float:
        return self._time

    def get_data_time_step(self) -> int:
        return self._time_step

    # -- analysis-side access ------------------------------------------------
    @abc.abstractmethod
    def get_mesh(self) -> Dataset:
        """The local mesh block (lazily constructed)."""

    @abc.abstractmethod
    def get_array(self, association: Association, name: str) -> DataArray:
        """Map one attribute array onto the data model (lazily, zero-copy
        where the layout allows)."""

    @abc.abstractmethod
    def get_number_of_arrays(self, association: Association) -> int:
        """How many attribute arrays the simulation can expose."""

    @abc.abstractmethod
    def get_array_name(self, association: Association, index: int) -> str:
        """Name of the ``index``-th exposable attribute array."""

    def available_arrays(self, association: Association) -> list[str]:
        return [
            self.get_array_name(association, i)
            for i in range(self.get_number_of_arrays(association))
        ]

    def release_data(self) -> None:
        """Drop per-step mappings.  Default: nothing retained."""


class AnalysisAdaptor(abc.ABC):
    """An in situ method or infrastructure endpoint.

    ``execute`` returns ``True`` to let the simulation continue (computational
    steering hooks use ``False`` to request a stop).  ``initialize`` /
    ``finalize`` bracket the run and are where one-time costs (Fig. 5) live.

    Data-access contract: arrays and meshes obtained from the
    :class:`DataAdaptor` during ``execute`` are zero-copy views of
    simulation-owned memory.  They must not be written to, and must not be
    retained past the adaptor's ``release_data()`` (deep-copy anything kept
    across steps).  ``Bridge(..., sanitize=True)`` enforces both rules at
    runtime.  Analyses that legitimately transform their input in place set
    :attr:`mutates_data`; under the sanitizer they then receive a private
    deep copy instead of the simulation's buffers.
    """

    #: Declare that ``execute`` writes to arrays obtained from the data
    #: adaptor.  The sanitizer hands such analyses deep copies rather than
    #: write-protected zero-copy views.
    mutates_data: bool = False

    def __init__(self) -> None:
        self.timers: "TimerRegistry | None" = None
        self.memory: "MemoryTracker | None" = None

    def set_instrumentation(
        self, timers: "TimerRegistry | None", memory: "MemoryTracker | None"
    ) -> None:
        """Attach this rank's timing/memory instrumentation sinks."""
        self.timers = timers
        self.memory = memory

    def initialize(self, comm: "Communicator") -> None:
        """One-time setup (default none)."""

    @abc.abstractmethod
    def execute(self, data: DataAdaptor) -> bool:
        """Run the analysis against the current step's data."""

    def finalize(self) -> object | None:
        """One-time teardown; may return a result object (root rank)."""
        return None

    @property
    def name(self) -> str:
        return type(self).__name__
