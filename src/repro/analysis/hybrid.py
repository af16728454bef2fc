"""Hybrid (MPI + threads) histogram kernel.

The thread-parallel counterpart of the flat binning pass: each simulated
rank splits its local values across worker threads (the "OpenMP within a
node" half of the Nyx hybrid model).  Counts are bit-identical to the flat
kernel's: integer histogram counts commute.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.histogram import local_histogram
from repro.util.parallel import parallel_chunked


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
