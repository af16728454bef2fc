"""Software rendering substrate.

The Catalyst-slice and Libsim-slice configurations render pseudocolored
slice geometry, composite partial images across ranks, and write a PNG on
rank 0 (Secs. 4.1.3, 4.2.1).  This package provides those stages without
OSMesa/VTK:

- :mod:`colormap` -- scalar-to-RGB lookup tables;
- :mod:`rasterize` -- orthographic rasterization of slice data and point
  splats into RGBA framebuffers;
- :mod:`compositing` -- parallel image compositing (binary-swap and
  direct-send, the two algorithm families behind Catalyst's and Libsim's
  different scaling in Fig. 6);
- :mod:`png` -- a real PNG encoder/decoder on stdlib zlib.  PNG encoding is
  serial on rank 0 in the paper's runs and its zlib compression is the
  Table 2 bottleneck, so this is a measured code path, not a detail; the
  sort-last encoder Catalyst uses spreads that deflate over the ranks
  holding the composited rows;
- :mod:`isosurface` -- marching-tetrahedra isosurface extraction for the
  AVF-LESLIE visualization (3 isosurfaces + 3 slice planes, Sec. 4.2.2).
"""

from repro.render.colormap import Colormap, COOL_WARM, GRAY, VIRIDIS
from repro.render.rasterize import (
    RenderedImage,
    rasterize_slice,
    splat_points,
    blank_image,
)
from repro.render.compositing import (
    binary_swap,
    composite_over,
    composite_over_into,
    direct_send,
)
from repro.render.png import encode_png, decode_png
from repro.render.isosurface import marching_tetrahedra

__all__ = [
    "Colormap",
    "VIRIDIS",
    "COOL_WARM",
    "GRAY",
    "RenderedImage",
    "blank_image",
    "rasterize_slice",
    "splat_points",
    "binary_swap",
    "direct_send",
    "composite_over",
    "composite_over_into",
    "encode_png",
    "decode_png",
    "marching_tetrahedra",
]
