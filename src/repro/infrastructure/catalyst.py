"""ParaView Catalyst emulation.

Catalyst "enables using ParaView's visualization capabilities in in situ
workflows" via analysis pipelines; "to minimize memory footprint, Catalyst
libraries are available in various flavors, called Editions" (Sec. 2.2.3).
The Catalyst-slice configuration renders a pseudocolored 2-D slice at
1920x1080, composites hierarchically (binary swap here), and writes the
image from rank 0 (Sec. 4.1.3).  The PNG's zlib compression is the serial
rank-0 bottleneck Table 2 uncovers; here it is sort-last instead: every
rank deflates the rows binary swap left it, and rank 0 gathers compressed
bytes (:func:`~repro.render.png.sort_last_png`).  The slice is stretched
to the frame, so most rows repeat the one above; each long run of them is
written as one deflate copy block rather than compressed again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.analysis.slice_ import SlicePlane, extract_axis_slice, _inplane_axes
from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.configurable import register_analysis
from repro.data import Association, ImageData, MultiBlockDataset
from repro.mpi import MAX, MIN
from repro.render import RenderedImage, blank_image, rasterize_slice
from repro.render.colormap import COOL_WARM
from repro.render.compositing import swap_band
from repro.render.png import sort_last_png
from repro.util.timers import timed


@dataclass(frozen=True)
class CatalystEdition:
    """A Catalyst Edition: capability subset <-> static footprint trade.

    Footprints follow the paper's numbers: the full statically linked
    Edition used with PHASTA was 153 MB (87 MB dynamic); slimmer Editions
    "only enable components of ParaView used in the analysis pipelines".
    """

    name: str
    static_bytes: int
    filters: frozenset[str]

    def supports(self, filter_name: str) -> bool:
        return filter_name in self.filters


EDITIONS: dict[str, CatalystEdition] = {
    "full": CatalystEdition(
        "full", 153 * 1024 * 1024, frozenset({"slice", "contour", "render", "writer"})
    ),
    "rendering": CatalystEdition(
        "rendering", 87 * 1024 * 1024, frozenset({"slice", "render"})
    ),
    "extract": CatalystEdition("extract", 24 * 1024 * 1024, frozenset({"slice", "writer"})),
}


@register_analysis("catalyst")
def _make_catalyst(config) -> "CatalystAdaptor":
    return CatalystAdaptor(
        plane=SlicePlane(config.get_int("axis", 2), config.get_int("index", 0)),
        array=config.get("array", "data"),
        resolution=(
            config.get_int("width", 1920),
            config.get_int("height", 1080),
        ),
        output_dir=config.get("output_dir"),
        edition=config.get("edition", "rendering"),
        compression_level=config.get_int("compression_level", 6),
        frequency=config.get_int("frequency", 1),
    )


class CatalystAdaptor(AnalysisAdaptor):
    """The Catalyst-slice pipeline: slice -> pseudocolor -> binary-swap
    composite -> sort-last PNG, written by rank 0.

    Works with both single-block :class:`ImageData` meshes (the miniapp)
    and :class:`MultiBlockDataset` meshes (the ADIOS endpoint, Nyx).  PNGs
    are written to ``output_dir`` when given; otherwise the encoded bytes
    are kept on ``last_png`` so callers (and tests) can consume them.

    Every rank keeps one partial framebuffer, allocated on first use and
    reused every step; no rank stitches the frame.
    """

    def __init__(
        self,
        plane: SlicePlane,
        array: str = "data",
        resolution: tuple[int, int] = (1920, 1080),
        output_dir: str | None = None,
        edition: str = "rendering",
        compression_level: int = 6,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if edition not in EDITIONS:
            raise ValueError(f"unknown Catalyst edition {edition!r}")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.plane = plane
        self.array = array
        self.resolution = resolution
        self.output_dir = output_dir
        self.edition = EDITIONS[edition]
        if not self.edition.supports("slice") or not self.edition.supports("render"):
            raise ValueError(
                f"edition {edition!r} lacks the filters the slice pipeline needs"
            )
        if not 0 <= compression_level <= 9:
            raise ValueError("compression_level must be in 0..9")
        self.compression_level = compression_level
        self.frequency = frequency
        self._partial: RenderedImage | None = None
        self._comm = None
        self.images_written = 0
        self.last_png: bytes | None = None

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.memory is not None:
            # The Edition's library footprint is a per-rank static cost.
            self.memory.add_static(self.edition.static_bytes, label="catalyst::edition")
        if self.output_dir and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    # -- pipeline stages ---------------------------------------------------
    def _local_fragments(
        self, data: DataAdaptor
    ) -> tuple[list, tuple[int, int, int, int]]:
        """Slice every local block; returns fragments + global 2-D extent."""
        mesh = data.get_mesh()
        if isinstance(mesh, MultiBlockDataset):
            blocks = [b for _, b in mesh.local_blocks()]
            whole = None
            for b in blocks:
                if isinstance(b, ImageData):
                    whole = b.whole_extent
                    break
            if whole is None:
                raise TypeError("Catalyst slice requires ImageData blocks")
        elif isinstance(mesh, ImageData):
            blocks = [mesh]
            whole = mesh.whole_extent
        else:
            raise TypeError("Catalyst slice requires an ImageData mesh")
        u, v = _inplane_axes(self.plane.axis)
        wb = [(whole.i0, whole.i1), (whole.j0, whole.j1), (whole.k0, whole.k1)]
        global2d = (*wb[u], *wb[v])
        single_block = not isinstance(mesh, MultiBlockDataset)
        fragments = []
        for block in blocks:
            ext = block.extent
            lo = (ext.i0, ext.j0, ext.k0)[self.plane.axis]
            hi = (ext.i1, ext.j1, ext.k1)[self.plane.axis]
            if not lo <= self.plane.index <= hi:
                continue
            if single_block and not block.has_array(Association.POINT, self.array):
                # Lazily map simulation data only on intersecting ranks; a
                # multiblock mesh (ADIOS endpoint) arrives with per-block
                # arrays already attached.
                block.add_array(
                    Association.POINT, data.get_array(Association.POINT, self.array)
                )
            frag = extract_axis_slice(block, self.array, self.plane)
            if frag is not None:
                fragments.append(frag)
        return fragments, global2d

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        width, height = self.resolution
        with timed(self.timers, "catalyst::slice"):
            fragments, global2d = self._local_fragments(data)
        # Consistent pseudocolor range needs the slice's global min/max.
        local_min = min((float(f.values.min()) for f in fragments), default=float("inf"))
        local_max = max((float(f.values.max()) for f in fragments), default=float("-inf"))
        vmin = self._comm.allreduce(local_min, MIN)
        vmax = self._comm.allreduce(local_max, MAX)
        with timed(self.timers, "catalyst::render"):
            partial = self._partial
            if partial is None:
                partial = self._partial = blank_image(width, height)
            else:
                partial.rgb.fill(0)
                partial.alpha.fill(0)
            for frag in fragments:
                # Painted straight into the partial; earlier fragments stay
                # in front (rank-order convention).
                rasterize_slice(
                    frag.values,
                    frag.extent2d,
                    global2d,
                    width,
                    height,
                    colormap=COOL_WARM,
                    vmin=vmin,
                    vmax=vmax,
                    out=partial,
                )
            if self.memory is not None:
                # Charged as a per-step peak: into the high-water mark for
                # the composite, then released.
                self.memory.allocate(partial.nbytes, label="catalyst::framebuffer")
                self.memory.free(partial.nbytes, label="catalyst::framebuffer")
        with timed(self.timers, "catalyst::composite"):
            swapped = swap_band(self._comm, partial)
        row0, band = swapped if swapped is not None else (0, None)
        with timed(self.timers, "catalyst::png"):
            blob = sort_last_png(
                self._comm,
                None if band is None else band.rgb,
                row0,
                height,
                self.compression_level,
            )
        if blob is not None:
            self.last_png = blob
            rec = self.timers.trace if self.timers is not None else None
            if rec is not None:
                rec.count("catalyst::png_bytes", len(blob))
            if self.output_dir:
                path = os.path.join(self.output_dir, f"catalyst_{step:06d}.png")
                with open(path, "wb") as fh:
                    fh.write(blob)
            self.images_written += 1
        return True

    def finalize(self) -> dict | None:
        if self._comm is not None and self._comm.rank == 0:
            return {"images_written": self.images_written}
        return None
