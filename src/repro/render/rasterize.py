"""Orthographic rasterization of slice data and point splats.

Rendering in the paper's slice configurations is "a two-stage process":
ranks intersecting the slice plane rasterize their geometry locally, then a
compositing stage (see :mod:`repro.render.compositing`) merges the partial
images.  :class:`RenderedImage` is the unit those stages exchange: an RGB
framebuffer plus an alpha/coverage mask and an optional depth buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.colormap import Colormap, VIRIDIS


@dataclass
class RenderedImage:
    """A (partial) framebuffer: RGB, coverage alpha, optional depth.

    ``rgb`` is (h, w, 3) uint8; ``alpha`` is (h, w) uint8 where 255 marks a
    rendered pixel and 0 background; ``depth`` (float32, +inf = empty) is
    present when geometry carries view depth.
    """

    rgb: np.ndarray
    alpha: np.ndarray
    depth: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.rgb.ndim != 3 or self.rgb.shape[2] != 3 or self.rgb.dtype != np.uint8:
            raise ValueError("rgb must be (h, w, 3) uint8")
        if self.alpha.shape != self.rgb.shape[:2] or self.alpha.dtype != np.uint8:
            raise ValueError("alpha must be (h, w) uint8")
        if self.depth is not None and self.depth.shape != self.alpha.shape:
            raise ValueError("depth must match the framebuffer shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.alpha.shape  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        n = self.rgb.nbytes + self.alpha.nbytes
        if self.depth is not None:
            n += self.depth.nbytes
        return n

    def coverage(self) -> float:
        """Fraction of pixels rendered."""
        return float((self.alpha > 0).mean())

    def copy(self) -> "RenderedImage":
        return RenderedImage(
            self.rgb.copy(),
            self.alpha.copy(),
            None if self.depth is None else self.depth.copy(),
        )


def blank_image(width: int, height: int, with_depth: bool = False) -> RenderedImage:
    """An empty framebuffer of the given resolution."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    depth = np.full((height, width), np.inf, dtype=np.float32) if with_depth else None
    return RenderedImage(
        np.zeros((height, width, 3), dtype=np.uint8),
        np.zeros((height, width), dtype=np.uint8),
        depth,
    )


def rasterize_slice(
    values: np.ndarray,
    extent2d: tuple[int, int, int, int],
    global_extent2d: tuple[int, int, int, int],
    width: int,
    height: int,
    colormap: Colormap = VIRIDIS,
    vmin: float | None = None,
    vmax: float | None = None,
    out: RenderedImage | None = None,
) -> RenderedImage:
    """Rasterize one rank's slice fragment into its region of the viewport.

    The global slice plane ``global_extent2d = (gu0, gu1, gv0, gv1)`` maps
    onto the full ``width x height`` viewport.  Each pixel is owned by the
    grid node nearest its center and sampled from that node
    (nearest-neighbor): ownership is a pure function of the pixel position,
    so a decomposed render composites to *exactly* the image a single rank
    would produce -- the invariant the compositing tests rely on.  Pixels
    whose nearest node lies outside this fragment remain background (alpha
    0); they belong to other ranks.

    With ``out`` the fragment is painted into that framebuffer instead of a
    fresh one, only where ``out.alpha == 0``: pixels rendered earlier stay
    in front, the rank-order convention of the compositors.
    """
    u0, u1, v0, v1 = extent2d
    gu0, gu1, gv0, gv1 = global_extent2d
    if values.shape != (u1 - u0 + 1, v1 - v0 + 1):
        raise ValueError("values shape does not match extent2d")
    if out is None:
        out = blank_image(width, height)
    elif out.shape != (height, width):
        raise ValueError("out must be a width x height framebuffer")
    gnu = gu1 - gu0
    gnv = gv1 - gv0
    if gnu <= 0 or gnv <= 0:
        return out
    # Pixel centers in global index space.  u maps to x (width), v to y.
    px = (np.arange(width) + 0.5) / width * gnu + gu0
    py = (np.arange(height) + 0.5) / height * gnv + gv0
    # Nearest grid node owns the pixel (floor(x + 0.5): ties break upward,
    # identically on every rank).
    nx = np.floor(px + 0.5).astype(np.int64)
    ny = np.floor(py + 0.5).astype(np.int64)
    # Ownership is monotone in the pixel index: the fragment's pixels are
    # one rectangle and each node owns one run of columns / rows.
    x_lo, x_hi = np.searchsorted(nx, (u0, u1 + 1))
    y_lo, y_hi = np.searchsorted(ny, (v0, v1 + 1))
    if x_lo == x_hi or y_lo == y_hi:
        return out
    cx = np.bincount(nx[x_lo:x_hi] - u0)
    cy = np.bincount(ny[y_lo:y_hi] - v0)
    # Colour only the nodes that own a pixel (the same value set the
    # per-pixel gather saw, so a defaulted vmin/vmax agrees), then expand
    # each node to its run.
    ux, uy = np.flatnonzero(cx), np.flatnonzero(cy)
    rgb = colormap.map(values[np.ix_(ux, uy)].T, vmin=vmin, vmax=vmax)
    rgb = np.repeat(np.repeat(rgb, cx[ux], axis=1), cy[uy], axis=0)
    box = (slice(y_lo, y_hi), slice(x_lo, x_hi))
    free = out.alpha[box] == 0
    if free.all():
        out.rgb[box] = rgb
        out.alpha[box] = 255
    else:
        np.copyto(out.rgb[box], rgb, where=free[..., None])
        np.copyto(out.alpha[box], np.uint8(255), where=free)
    return out


def splat_points(
    points_xy: np.ndarray,
    depths: np.ndarray,
    colors: np.ndarray,
    width: int,
    height: int,
    bounds: tuple[float, float, float, float],
    radius: int = 1,
) -> RenderedImage:
    """Depth-tested point-sprite rendering (isosurface point clouds).

    ``points_xy`` is (n, 2) in world units inside ``bounds = (x0, x1, y0,
    y1)``; nearer (smaller depth) points win per pixel.  ``radius`` grows
    each splat into a square of ``(2r+1)^2`` pixels so sparse clouds read as
    surfaces.
    """
    img = blank_image(width, height, with_depth=True)
    pts = np.asarray(points_xy, dtype=np.float64)
    if pts.size == 0:
        return img
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points_xy must be (n, 2)")
    x0, x1, y0, y1 = bounds
    if x1 <= x0 or y1 <= y0:
        raise ValueError("bounds must be non-degenerate")
    cx = ((pts[:, 0] - x0) / (x1 - x0) * (width - 1)).round().astype(np.int64)
    cy = ((pts[:, 1] - y0) / (y1 - y0) * (height - 1)).round().astype(np.int64)
    keep = (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
    cx, cy = cx[keep], cy[keep]
    d = np.asarray(depths, dtype=np.float32)[keep]
    cols = np.asarray(colors, dtype=np.uint8)[keep]
    # Far-to-near painter ordering: sorting by descending depth makes the
    # final write at each pixel the nearest point.
    order = np.argsort(-d, kind="stable")
    cx, cy, d, cols = cx[order], cy[order], d[order], cols[order]
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            px = cx + dx
            py = cy + dy
            # Mask splat pixels that fall outside the viewport; clamping
            # them instead would re-write border pixels once per
            # out-of-bounds offset and smear sprite edges along the frame.
            ok = (px >= 0) & (px < width) & (py >= 0) & (py < height)
            img.rgb[py[ok], px[ok]] = cols[ok]
            img.alpha[py[ok], px[ok]] = 255
            img.depth[py[ok], px[ok]] = d[ok]
    return img
