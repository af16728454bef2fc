"""Derived fields computed in situ.

The AVF-LESLIE adaptor "calculates vorticity magnitude" before handing data
to Libsim (Sec. 4.2.2); the proxies use these helpers for that and for
generic gradient-based quantities.  All operators use second-order central
differences in the interior and one-sided differences at block boundaries,
computed with vectorized ``np.gradient``-style slicing (no Python loops over
cells).
"""

from __future__ import annotations

import numpy as np


def gradient_3d(
    field: np.ndarray, spacing: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis partial derivatives of a 3-D scalar field."""
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError("gradient_3d requires a 3-D field")
    if any(s <= 0 for s in spacing):
        raise ValueError("spacing must be positive")
    # np.gradient handles interior central + boundary one-sided differences,
    # but degenerates on axes of length 1; guard those with zeros.
    grads: list[np.ndarray] = []
    for axis in range(3):
        if f.shape[axis] < 2:
            grads.append(np.zeros_like(f))
        else:
            grads.append(np.gradient(f, spacing[axis], axis=axis))
    return grads[0], grads[1], grads[2]


def vorticity_magnitude(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    spacing: tuple[float, float, float],
) -> np.ndarray:
    """|curl (u, v, w)| on a uniform 3-D grid.

    curl = (dw/dy - dv/dz, du/dz - dw/dx, dv/dx - du/dy).
    """
    if not (u.shape == v.shape == w.shape):
        raise ValueError("velocity components must have identical shapes")
    _, du_dy, du_dz = gradient_3d(u, spacing)
    dv_dx, _, dv_dz = gradient_3d(v, spacing)
    dw_dx, dw_dy, _ = gradient_3d(w, spacing)
    wx = dw_dy - dv_dz
    wy = du_dz - dw_dx
    wz = dv_dx - du_dy
    return np.sqrt(wx * wx + wy * wy + wz * wz)
