"""Temporal autocorrelation (Sec. 3.3) -- the paper's time-dependent analysis.

"Given a signal f(x) and a delay t, we find sum_x f(x) f(x+t).  Starting
with an integer time delay t, we maintain in a circular buffer, for each
grid cell, a window of values of the last t time steps.  We also maintain a
window of running correlations for each t' <= t.  When called, the analysis
updates the autocorrelations and the circular buffer.  When the execution
completes, all processes perform a global reduction to determine the top k
autocorrelations for each delay t' <= t. ... Each MPI rank performs O(N^3)
work per time step ... and maintains two circular buffers, each of size
O(t N^3)."

For periodic oscillators the top-k reduction identifies the oscillator
centers, which is the correctness check the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.configurable import register_analysis
from repro.data import Association
from repro.util.timers import timed


@dataclass
class AutocorrelationResult:
    """Top-k autocorrelations per delay (root rank).

    ``top[d]`` is a list of ``(correlation, global_cell_index)`` pairs,
    strongest first, for delay ``d`` in ``0..window-1``.
    """

    window: int
    k: int
    top: list[list[tuple[float, int]]]


class AutocorrelationState:
    """The method itself, independent of SENSEI (the *Original* form).

    Parameters
    ----------
    window:
        The maximum integer delay ``t``; correlations are maintained for
        every delay ``0 <= t' < window``.
    n_local:
        Number of local grid cells.
    global_offset:
        Global index of this rank's first cell, used to report top-k hits
        in global coordinates.  Rank-local cells must be globally
        contiguous under this offset (true for the flattened regular
        decomposition used by the miniapp's analyses).
    """

    def __init__(self, window: int, n_local: int, global_offset: int = 0, memory=None):
        if window <= 0:
            raise ValueError("window must be positive")
        if n_local < 0:
            raise ValueError("n_local must be non-negative")
        self.window = window
        self.n_local = n_local
        self.global_offset = global_offset
        # The two O(window * N^3) circular buffers from the paper.
        self.values = np.zeros((window, n_local), dtype=np.float64)
        self.corr = np.zeros((window, n_local), dtype=np.float64)
        self.steps_seen = 0
        if memory is not None:
            memory.track_array(self.values, label="autocorrelation::values")
            memory.track_array(self.corr, label="autocorrelation::corr")

    def update(self, values: np.ndarray) -> None:
        """Fold one time step's local field into the running correlations."""
        flat = np.asarray(values).reshape(-1)
        if flat.shape[0] != self.n_local:
            raise ValueError(
                f"expected {self.n_local} local values, got {flat.shape[0]}"
            )
        s = self.steps_seen
        slot = s % self.window
        self.values[slot] = flat
        # For each delay d (up to the number of steps actually seen),
        # corr[d] += f(s) * f(s - d).
        max_d = min(s + 1, self.window)
        for d in range(max_d):
            past = self.values[(s - d) % self.window]
            self.corr[d] += flat * past
        self.steps_seen += 1

    def local_top_k(self, k: int) -> list[list[tuple[float, int]]]:
        """Per-delay top-k of the local correlations, in global indices."""
        if k <= 0:
            raise ValueError("k must be positive")
        out: list[list[tuple[float, int]]] = []
        for d in range(self.window):
            row = self.corr[d]
            if row.size == 0:
                out.append([])
                continue
            kk = min(k, row.size)
            idx = np.argpartition(row, -kk)[-kk:]
            idx = idx[np.argsort(row[idx])[::-1]]
            out.append(
                [(float(row[i]), int(i) + self.global_offset) for i in idx]
            )
        return out

    def finalize(self, comm, k: int, root: int = 0) -> AutocorrelationResult | None:
        """Global top-k merge: gather per-rank candidates, merge on root.

        This is the final reduction whose cost shows up as the only
        non-negligible finalize bar in Fig. 5.
        """
        candidates = comm.gather(self.local_top_k(k), root=root)
        if comm.rank != root:
            return None
        merged: list[list[tuple[float, int]]] = []
        for d in range(self.window):
            pool = [item for per_rank in candidates for item in per_rank[d]]
            pool.sort(key=lambda ci: (-ci[0], ci[1]))
            merged.append(pool[:k])
        return AutocorrelationResult(window=self.window, k=k, top=merged)


@register_analysis("autocorrelation")
def _make_autocorrelation(config) -> "AutocorrelationAnalysis":
    return AutocorrelationAnalysis(
        window=config.get_int("window", 10),
        k=config.get_int("k", 3),
        array=config.get("array", "data"),
    )


class AutocorrelationAnalysis(AnalysisAdaptor):
    """SENSEI analysis adaptor over :class:`AutocorrelationState`.

    State allocation is deferred to the first ``execute`` because the local
    cell count is only known once data arrives -- also how the SENSEI
    miniapp's analysis behaves.
    """

    def __init__(self, window: int = 10, k: int = 3, array: str = "data") -> None:
        super().__init__()
        self.window = window
        self.k = k
        self.array = array
        self._state: AutocorrelationState | None = None
        self._comm = None
        self.result: AutocorrelationResult | None = None

    def initialize(self, comm) -> None:
        self._comm = comm

    def execute(self, data: DataAdaptor) -> bool:
        arr = data.get_array(Association.POINT, self.array)
        values = arr.values
        if self._state is None:
            # Global offset via exclusive scan of local sizes.
            n_local = values.size
            before = self._comm.exscan(n_local)
            offset = 0 if before is None else int(before)
            self._state = AutocorrelationState(
                self.window, n_local, global_offset=offset, memory=self.memory
            )
        with timed(self.timers, "autocorrelation::execute"):
            self._state.update(values)
        return True

    def finalize(self) -> AutocorrelationResult | None:
        if self._state is None:
            return None
        with timed(self.timers, "autocorrelation::finalize"):
            self.result = self._state.finalize(self._comm, self.k)
        return self.result
