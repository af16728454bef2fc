"""Ghost-level utilities.

AVF-LESLIE's adaptor "exposes data array slices (to remove ghost cells)"
(Sec. 4.2.2); Nyx instead blanks ghosts with a ``vtkGhostLevels`` byte array
(Sec. 4.2.3, at a cost of ~2 MB per rank).  Both styles are supported:
plain NumPy slicing of the owned extent for the AVF style, and
:func:`ghost_levels_for_extent` for the Nyx style.
"""

from __future__ import annotations

import numpy as np

from repro.util.decomp import Extent


def ghost_levels_for_extent(local_with_ghosts: Extent, owned: Extent) -> np.ndarray:
    """Byte array over ``local_with_ghosts`` marking entries outside ``owned``.

    Value is the Chebyshev distance (in layers) from the owned region, so a
    two-deep ghost shell gets levels 1 and 2 -- matching VTK's ghost-level
    semantics.  Returned flat, in the same (i-fastest ``reshape``-compatible)
    order as field arrays.
    """
    ni, nj, nk = local_with_ghosts.shape
    i = local_with_ghosts.i0 + np.arange(ni)
    j = local_with_ghosts.j0 + np.arange(nj)
    k = local_with_ghosts.k0 + np.arange(nk)

    def axis_dist(coords: np.ndarray, lo: int, hi: int) -> np.ndarray:
        d = np.zeros(coords.shape, dtype=np.int64)
        below = coords < lo
        above = coords > hi
        d[below] = lo - coords[below]
        d[above] = coords[above] - hi
        return d

    di = axis_dist(i, owned.i0, owned.i1)[:, None, None]
    dj = axis_dist(j, owned.j0, owned.j1)[None, :, None]
    dk = axis_dist(k, owned.k0, owned.k1)[None, None, :]
    level = np.maximum(np.maximum(di, dj), dk)
    if level.max() > 255:
        raise ValueError("ghost level exceeds uint8 range")
    return level.astype(np.uint8).reshape(-1)
