"""The unblocked histogram kernel the blocked one replaced.

Kept verbatim as the reference :func:`repro.analysis.histogram.local_histogram`
is compared against: the same index arithmetic and edge fix-up over the
whole input at once, with about eight full-size temporaries.  Blocking only
splits the input and sums integer counts, so the two must agree exactly.
"""

import numpy as np


def local_histogram(
    values: np.ndarray, bins: int, vmin: float, vmax: float
) -> np.ndarray:
    """Counts of ``values`` over ``bins`` equal bins spanning [vmin, vmax].

    Implemented with integer bin indices + ``np.bincount`` (faster than
    ``np.histogram`` for the uniform-bin case).  Values equal to ``vmax``
    land in the last bin, matching the usual closed-right-edge convention.
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
    idx = ((flat - vmin) * (bins / width)).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    # Floating-point correction at bin edges (same fix-up np.histogram
    # applies): an index computed one too high/low is nudged back so values
    # exactly on an edge land in the right bin.
    edges = np.linspace(vmin, vmax, bins + 1)
    too_high = flat < edges[idx]
    idx[too_high] -= 1
    interior = idx < bins - 1
    too_low = interior & (flat >= edges[np.minimum(idx + 1, bins)])
    idx[too_low] += 1
    return np.bincount(idx, minlength=bins).astype(np.int64)
