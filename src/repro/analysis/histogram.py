"""Parallel histogram (Sec. 3.3).

"At any given time step, the processes perform two reductions to determine
the minimum and maximum values on the grid.  Each processor divides the
range into the prescribed number of bins and fills the histogram of its
local data.  The histograms are reduced to the root process.  The only extra
storage required is proportional to the number of bins."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.configurable import register_analysis
from repro.data import Association
from repro.mpi import MAX, MIN, SUM
from repro.util.timers import timed

# Values binned per pass of :func:`local_histogram`: each of its temporaries
# is then 512 KiB or less and stays in cache.
_BLOCK = 1 << 16


@dataclass
class Histogram:
    """A computed histogram: bin edges and global counts (root rank only)."""

    edges: np.ndarray  # (bins + 1,)
    counts: np.ndarray  # (bins,) int64
    vmin: float
    vmax: float

    @property
    def bins(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def local_histogram(
    values: np.ndarray, bins: int, vmin: float, vmax: float
) -> np.ndarray:
    """Counts of ``values`` over ``bins`` equal bins spanning [vmin, vmax].

    Implemented with integer bin indices + ``np.bincount`` (faster than
    ``np.histogram`` for the uniform-bin case).  Values equal to ``vmax``
    land in the last bin, matching the usual closed-right-edge convention.

    The values are binned in contiguous blocks of ``_BLOCK`` and the integer
    counts summed, so the extra storage is the bins plus one block's
    temporaries (Sec. 3.3's bound), not a multiple of the input; the counts
    do not depend on the block size.

    A value's bin position ``f = (value - vmin) * scale`` is computed in the
    values' own float type and truncated to an index.  Only a value whose
    ``f`` may sit on the wrong side of a bin edge goes through the edge
    fix-up (the two ``edges[idx]`` comparisons ``np.histogram`` applies);
    every other value is provably in bin ``trunc(f)`` already.  In bin
    units, ``f`` is off from the exact position by the roundings of
    ``vmin``, of the subtraction, of ``scale`` and of the product: about
    ``finfo(f).eps * bins * (2 + |vmin| / width)``.  The edges of
    ``np.linspace`` are off by the roundings of their step, product and sum:
    about ``3 * finfo(float64).eps * bins * (1 + max(|vmin|, |vmax|) /
    width)``.  So with ``eps = 64 * finfo(f).eps * bins * (1 +
    max(|vmin|, |vmax|) / width)``, sixteen times their sum, a value with
    ``f`` in ``[0, bins)`` at least ``eps`` from an integer lies strictly
    between ``edges[trunc(f)]`` and ``edges[trunc(f) + 1]``.  Values near an
    edge, out of range or NaN take the fix-up, unchanged; so does every
    value when ``eps >= 0.25`` or the range does not give a finite scale.
    """
    if bins <= 0:
        raise ValueError("bins must be positive")
    flat = np.asarray(values).reshape(-1)
    if flat.size == 0:
        return np.zeros(bins, dtype=np.int64)
    width = vmax - vmin
    if width <= 0:
        # Degenerate range: everything in bin 0 (all values identical).
        counts = np.zeros(bins, dtype=np.int64)
        counts[0] = flat.size
        return counts
    edges = np.linspace(vmin, vmax, bins + 1)
    scale = bins / width
    # A value needs no fix-up when |frac(f) - 1/2| <= limit; -1 sends all.
    limit = -1.0
    ftype = ((flat[:1] - vmin) * scale).dtype
    if ftype.kind == "f" and np.isfinite(width) and np.isfinite(scale):
        eps = 64 * np.finfo(ftype).eps * bins * (1 + max(abs(vmin), abs(vmax)) / width)
        if eps < 0.25:
            limit = 0.5 - eps
    counts = np.zeros(bins, dtype=np.int64)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo:lo + _BLOCK]
        f = (block - vmin) * scale
        idx = f.astype(np.int64)
        if limit < 0:
            _fix_up(block, idx, edges, bins)
        else:
            f -= np.trunc(f)  # the fraction: NaN for NaN and +-inf
            f -= 0.5
            np.abs(f, out=f)
            fix = np.flatnonzero(~(f <= limit) | (idx >= bins))
            if fix.size:
                idx[fix] = _fix_up(block[fix], idx[fix], edges, bins)
        counts += np.bincount(idx, minlength=bins)
    return counts


def _fix_up(
    values: np.ndarray, idx: np.ndarray, edges: np.ndarray, bins: int
) -> np.ndarray:
    """Clip truncated indices into range and correct them at bin edges."""
    np.clip(idx, 0, bins - 1, out=idx)
    # Floating-point correction at bin edges (same fix-up np.histogram
    # applies): an index computed one too high/low is nudged back so
    # values exactly on an edge land in the right bin.
    too_high = values < edges[idx]
    idx[too_high] -= 1
    interior = idx < bins - 1
    too_low = interior & (values >= edges[np.minimum(idx + 1, bins)])
    idx[too_low] += 1
    return idx


def parallel_histogram(
    comm, values: np.ndarray, bins: int, root: int = 0
) -> Histogram | None:
    """The paper's histogram method over a distributed array.

    Two reductions for min/max, local binning, then a sum-reduction of the
    per-rank count arrays to the root.  Non-root ranks return ``None``.
    """
    flat = np.asarray(values).reshape(-1)
    # Empty local block still participates in the collectives.
    local_min = float(flat.min()) if flat.size else float("inf")
    local_max = float(flat.max()) if flat.size else float("-inf")
    vmin = comm.allreduce(local_min, MIN)
    vmax = comm.allreduce(local_max, MAX)
    counts = local_histogram(flat, bins, vmin, vmax)
    total = comm.reduce(counts, SUM, root=root)
    if comm.rank != root:
        return None
    edges = np.linspace(vmin, vmax, bins + 1) if vmax > vmin else np.arange(bins + 1, dtype=float)
    return Histogram(edges=edges, counts=total, vmin=vmin, vmax=vmax)


@register_analysis("histogram")
def _make_histogram(config) -> "HistogramAnalysis":
    return HistogramAnalysis(
        bins=config.get_int("bins", 64),
        array=config.get("array", "data"),
        association=Association(config.get("association", "point")),
    )


class HistogramAnalysis(AnalysisAdaptor):
    """SENSEI analysis adaptor wrapping :func:`parallel_histogram`.

    Keeps the latest histogram (root rank); :meth:`finalize` returns the
    full per-step history so post-run checks can compare against *post hoc*
    recomputation.
    """

    def __init__(
        self,
        bins: int = 64,
        array: str = "data",
        association: Association = Association.POINT,
    ) -> None:
        super().__init__()
        if bins <= 0:
            raise ValueError("bins must be positive")
        self.bins = bins
        self.array = array
        self.association = association
        self.history: list[Histogram] = []
        self._comm = None

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.memory is not None:
            # "The only extra storage required is proportional to the
            # number of bins."
            self.memory.allocate(self.bins * 8, label="histogram::bins")

    def execute(self, data: DataAdaptor) -> bool:
        from repro.data import GHOST_ARRAY_NAME

        arr = data.get_array(self.association, self.array)
        values = arr.values
        # Honor vtkGhostLevels blanking when the simulation exposes it
        # (the Nyx pattern, Sec. 4.2.3).
        if GHOST_ARRAY_NAME in data.available_arrays(self.association):
            levels = data.get_array(self.association, GHOST_ARRAY_NAME).values
            values = values[levels == 0]
        with timed(self.timers, "histogram::execute"):
            result = parallel_histogram(self._comm, values, self.bins)
        if result is not None:
            self.history.append(result)
        return True

    def finalize(self) -> list[Histogram] | None:
        if self.memory is not None:
            self.memory.free(self.bins * 8, label="histogram::bins")
        return self.history if self.history else None
