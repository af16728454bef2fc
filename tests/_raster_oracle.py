"""The gather/scatter slice rasterizer the run-length one replaced.

Kept verbatim as the reference ``repro.render.rasterize_slice`` is compared
against: every pixel's value is gathered through full-size index grids,
colour-mapped, and scattered with ``np.ix_``.  Nearest-node sampling and
the colormap are pointwise, so the run-length rasterizer's ``rgb`` and
``alpha`` must come out ``np.array_equal``, not merely close.
"""

import numpy as np

from repro.render.colormap import Colormap, VIRIDIS
from repro.render.rasterize import RenderedImage, blank_image


def rasterize_slice(
    values: np.ndarray,
    extent2d: tuple[int, int, int, int],
    global_extent2d: tuple[int, int, int, int],
    width: int,
    height: int,
    colormap: Colormap = VIRIDIS,
    vmin: float | None = None,
    vmax: float | None = None,
) -> RenderedImage:
    """Rasterize one fragment into a fresh viewport-sized framebuffer."""
    u0, u1, v0, v1 = extent2d
    gu0, gu1, gv0, gv1 = global_extent2d
    if values.shape != (u1 - u0 + 1, v1 - v0 + 1):
        raise ValueError("values shape does not match extent2d")
    img = blank_image(width, height)
    gnu = gu1 - gu0
    gnv = gv1 - gv0
    if gnu <= 0 or gnv <= 0:
        return img
    # Pixel centers in global index space.  u maps to x (width), v to y.
    px = (np.arange(width) + 0.5) / width * gnu + gu0
    py = (np.arange(height) + 0.5) / height * gnv + gv0
    # Nearest grid node owns the pixel (floor(x + 0.5): ties break upward,
    # identically on every rank).
    nx = np.floor(px + 0.5).astype(np.int64)
    ny = np.floor(py + 0.5).astype(np.int64)
    in_x = (nx >= u0) & (nx <= u1)
    in_y = (ny >= v0) & (ny <= v1)
    if not in_x.any() or not in_y.any():
        return img
    xs = nx[in_x] - u0
    ys = ny[in_y] - v0
    sampled = values[xs[None, :], ys[:, None]]
    rgb = colormap.map(sampled, vmin=vmin, vmax=vmax)
    rows = np.nonzero(in_y)[0]
    cols = np.nonzero(in_x)[0]
    img.rgb[np.ix_(rows, cols)] = rgb
    img.alpha[np.ix_(rows, cols)] = 255
    return img
