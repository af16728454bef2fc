"""Hybrid (MPI + threads) analysis kernels.

The thread-parallel counterparts of the flat-MPI analyses: each simulated
rank splits its local values across worker threads (the "OpenMP within a
node" half of the Nyx hybrid model), then the usual MPI reductions combine
across ranks.  Results are bit-identical to the flat versions: integer
histogram counts commute.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.histogram import Histogram, HistogramAnalysis, local_histogram
from repro.core.adaptors import DataAdaptor
from repro.core.configurable import register_analysis
from repro.mpi import MAX, MIN, SUM
from repro.util.parallel import parallel_chunked
from repro.util.timers import timed


def local_histogram_threaded(
    values: np.ndarray, bins: int, vmin: float, vmax: float, n_threads: int
) -> np.ndarray:
    """Thread-chunked :func:`~repro.analysis.histogram.local_histogram`."""
    flat = np.asarray(values).reshape(-1)
    if flat.size == 0 or n_threads == 1:
        return local_histogram(flat, bins, vmin, vmax)
    partials = parallel_chunked(
        lambda lo, hi: local_histogram(flat[lo:hi], bins, vmin, vmax),
        flat.size,
        n_threads,
    )
    out = partials[0]
    for p in partials[1:]:
        out = out + p
    return out


@register_analysis("hybrid_histogram")
def _make_hybrid_histogram(config) -> "HybridHistogramAnalysis":
    return HybridHistogramAnalysis(
        bins=config.get_int("bins", 64),
        array=config.get("array", "data"),
        n_threads=config.get_int("threads", 2),
    )


class HybridHistogramAnalysis(HistogramAnalysis):
    """Histogram with node-level thread parallelism in the binning pass."""

    def __init__(self, bins: int = 64, array: str = "data", n_threads: int = 2) -> None:
        super().__init__(bins=bins, array=array)
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        self.n_threads = n_threads

    def execute(self, data: DataAdaptor) -> bool:
        from repro.data import GHOST_ARRAY_NAME

        arr = data.get_array(self.association, self.array)
        values = arr.values
        if GHOST_ARRAY_NAME in data.available_arrays(self.association):
            levels = data.get_array(self.association, GHOST_ARRAY_NAME).values
            values = values[levels == 0]
        flat = np.asarray(values).reshape(-1)
        local_min = float(flat.min()) if flat.size else float("inf")
        local_max = float(flat.max()) if flat.size else float("-inf")
        with timed(self.timers, "hybrid_histogram::execute"):
            vmin = self._comm.allreduce(local_min, MIN)
            vmax = self._comm.allreduce(local_max, MAX)
            counts = local_histogram_threaded(
                flat, self.bins, vmin, vmax, self.n_threads
            )
            total = self._comm.reduce(counts, SUM, root=0)
        if self._comm.rank == 0:
            edges = (
                np.linspace(vmin, vmax, self.bins + 1)
                if vmax > vmin
                else np.arange(self.bins + 1, dtype=float)
            )
            self.history.append(
                Histogram(edges=edges, counts=total, vmin=vmin, vmax=vmax)
            )
        return True

