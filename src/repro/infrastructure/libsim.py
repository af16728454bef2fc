"""VisIt Libsim emulation.

Libsim "can use VisIt session files, which are XML files saved from the
VisIt GUI, which can specify more complex visualizations" (Sec. 2.2.3).  Our
session files are JSON with the same role: a list of plots (pseudocolor
slices and isosurface contours).  Two measured behaviours are reproduced
deliberately:

- the session file is opened and parsed *on every rank* at initialization
  ("this overhead currently represents per-rank configuration file checks",
  Fig. 5's ~3.5 s Libsim-slice init at 45K);
- compositing is direct-send at 1600x1600 (vs Catalyst's binary swap at
  1920x1080), giving the two slice configurations their different scaling
  signatures in Fig. 6.

The AVF-LESLIE session (3 isosurfaces + 3 slice planes of vorticity
magnitude, run every 5th step) is expressible directly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.analysis.slice_ import SlicePlane, extract_axis_slice, _inplane_axes
from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.configurable import register_analysis
from repro.data import Association, ImageData
from repro.mpi import MAX, MIN
from repro.render import blank_image, composite_over, rasterize_slice, splat_points
from repro.render.colormap import COOL_WARM, GRAY, VIRIDIS, Colormap
from repro.render.compositing import direct_send
from repro.render.isosurface import isosurface_points
from repro.render.png import encode_png
from repro.util.config import ConfigError, Configuration
from repro.util.timers import timed

_COLORMAPS: dict[str, Colormap] = {
    "viridis": VIRIDIS,
    "cool_warm": COOL_WARM,
    "gray": GRAY,
}


def write_session_file(path, plots: list[dict], resolution=(1600, 1600)) -> None:
    """Write a Libsim-style session file describing the visualization."""
    session = {"version": 1, "resolution": list(resolution), "plots": plots}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(session, fh, indent=2)


def _is_finite_number(v) -> bool:
    # type() rather than isinstance(): JSON true/false are not numbers.
    if type(v) not in (int, float):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer literal beyond float range
        return False


def _parse_session(session: Configuration) -> tuple[tuple[int, int], list[dict]]:
    """Validate a session as it is opened.

    A malformed field is a :class:`ConfigError` naming it, raised by every
    rank's ``initialize()`` instead of an untyped error at the first
    ``execute()``.  An unknown ``colormap`` is not an error: it falls back
    to viridis.
    """
    res = session.get_list("resolution", [1600, 1600])
    if len(res) != 2 or not all(type(v) is int and v > 0 for v in res):
        raise ConfigError(f"'resolution' must be two positive integers: {res!r}")
    plots = session.get_list("plots")
    for n, plot in enumerate(plots):
        where = f"plots[{n}]"
        if not isinstance(plot, dict):
            raise ConfigError(f"{where} is not an object: {plot!r}")
        kind = plot.get("type")
        if kind == "pseudocolor_slice":
            axis, index = plot.get("axis", 2), plot.get("index", 0)
            if type(axis) is not int or axis not in (0, 1, 2):
                raise ConfigError(f"{where}.axis must be 0, 1 or 2: {axis!r}")
            if type(index) is not int:
                raise ConfigError(f"{where}.index must be an integer: {index!r}")
        elif kind == "isosurface":
            isovalues = plot.get("isovalues", [0.5])
            if (
                not isinstance(isovalues, list)
                or not isovalues
                or not all(_is_finite_number(v) for v in isovalues)
            ):
                raise ConfigError(
                    f"{where}.isovalues must be a non-empty list of finite "
                    f"numbers: {isovalues!r}"
                )
        else:
            raise ConfigError(f"{where}: unknown Libsim plot type {kind!r}")
    return (res[0], res[1]), plots


@register_analysis("libsim")
def _make_libsim(config) -> "LibsimAdaptor":
    session = config.get("session_file")
    if session is None:
        raise ConfigError("libsim analysis requires 'session_file'")
    return LibsimAdaptor(
        session_file=session,
        array=config.get("array", "data"),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class LibsimAdaptor(AnalysisAdaptor):
    """Session-driven visualization: slices + isosurfaces, direct-send
    compositing, PNG on rank 0.

    ``frequency`` renders every Nth SENSEI invocation (AVF-LESLIE runs
    Libsim "every 5 time steps"), so 4/5 executes cost almost nothing and
    1/5 cost the full pipeline -- Fig. 16's sawtooth.
    """

    #: Static library footprint charged per rank (VisIt + OSMesa order).
    STATIC_BYTES = 120 * 1024 * 1024

    def __init__(
        self,
        session_file,
        array: str = "data",
        output_dir: str | None = None,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.session_file = session_file
        self.array = array
        self.output_dir = output_dir
        self.frequency = frequency
        self._comm = None
        self._session: Configuration | None = None
        self._plots: list[dict] = []
        self.resolution = (1600, 1600)
        self.images_written = 0
        self.last_png: bytes | None = None

    def initialize(self, comm) -> None:
        self._comm = comm
        # Per-rank session parse: every rank opens and parses the file.
        with timed(self.timers, "libsim::session_parse"):
            self._session = Configuration.from_file(self.session_file)
            self.resolution, self._plots = _parse_session(self._session)
        if self.memory is not None:
            self.memory.add_static(self.STATIC_BYTES, label="libsim::library")
        if self.output_dir and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    # -- plot renderers ------------------------------------------------------
    def _render_slice_plot(self, plot: dict, mesh: ImageData, data: DataAdaptor):
        plane = SlicePlane(int(plot.get("axis", 2)), int(plot.get("index", 0)))
        width, height = self.resolution
        ext = mesh.extent
        lo = (ext.i0, ext.j0, ext.k0)[plane.axis]
        hi = (ext.i1, ext.j1, ext.k1)[plane.axis]
        frag = None
        if lo <= plane.index <= hi:
            if not mesh.has_array(Association.POINT, self.array):
                mesh.add_array(
                    Association.POINT, data.get_array(Association.POINT, self.array)
                )
            frag = extract_axis_slice(mesh, self.array, plane)
        local_min = float(frag.values.min()) if frag is not None else float("inf")
        local_max = float(frag.values.max()) if frag is not None else float("-inf")
        vmin = self._comm.allreduce(local_min, MIN)
        vmax = self._comm.allreduce(local_max, MAX)
        cmap = _COLORMAPS.get(plot.get("colormap", "viridis"), VIRIDIS)
        if frag is None:
            return blank_image(width, height)
        u, v = _inplane_axes(plane.axis)
        whole = mesh.whole_extent
        wb = [(whole.i0, whole.i1), (whole.j0, whole.j1), (whole.k0, whole.k1)]
        return rasterize_slice(
            frag.values, frag.extent2d, (*wb[u], *wb[v]), width, height,
            colormap=cmap, vmin=vmin, vmax=vmax,
        )

    def _render_isosurface_plot(self, plot: dict, mesh: ImageData, data: DataAdaptor):
        width, height = self.resolution
        if not mesh.has_array(Association.POINT, self.array):
            mesh.add_array(
                Association.POINT, data.get_array(Association.POINT, self.array)
            )
        field = mesh.point_field_3d(self.array)
        origin = (
            mesh.origin[0] + mesh.spacing[0] * mesh.extent.i0,
            mesh.origin[1] + mesh.spacing[1] * mesh.extent.j0,
            mesh.origin[2] + mesh.spacing[2] * mesh.extent.k0,
        )
        cmap = _COLORMAPS.get(plot.get("colormap", "viridis"), VIRIDIS)
        isovalues = [float(v) for v in plot.get("isovalues", [0.5])]
        partial = blank_image(width, height, with_depth=True)
        whole = mesh.whole_extent
        x0 = mesh.origin[0] + mesh.spacing[0] * whole.i0
        x1 = mesh.origin[0] + mesh.spacing[0] * whole.i1
        y0 = mesh.origin[1] + mesh.spacing[1] * whole.j0
        y1 = mesh.origin[1] + mesh.spacing[1] * whole.j1
        lo, hi = min(isovalues), max(isovalues)
        span = (hi - lo) or 1.0
        for iso in isovalues:
            pts = isosurface_points(field, iso, origin=origin, spacing=mesh.spacing)
            if pts.shape[0] == 0:
                continue
            # Orthographic view down +z: screen = (x, y), depth = z.
            t = (iso - lo) / span
            color = cmap.map(np.full(pts.shape[0], t), vmin=0.0, vmax=1.0)
            layer = splat_points(
                pts[:, :2], pts[:, 2].astype(np.float32), color,
                width, height, (x0, x1, y0, y1), radius=1,
            )
            partial = composite_over(layer, partial)
        return partial

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        with timed(self.timers, "libsim::execute"):
            if step % self.frequency != 0:
                return True
            mesh = data.get_mesh()
            if not isinstance(mesh, ImageData):
                raise TypeError("Libsim emulation requires an ImageData mesh")
            with timed(self.timers, "libsim::render"):
                flat_partial = blank_image(*self.resolution)
                # The depth framebuffer (inf-filled float32, the largest of
                # the three planes) exists only once an isosurface needs it.
                depth_partial = None
                for plot in self._plots:
                    if plot["type"] == "pseudocolor_slice":
                        img = self._render_slice_plot(plot, mesh, data)
                        flat_partial = composite_over(flat_partial, img)
                    else:
                        img = self._render_isosurface_plot(plot, mesh, data)
                        if depth_partial is None:
                            depth_partial = blank_image(*self.resolution, with_depth=True)
                        depth_partial = composite_over(img, depth_partial)
            if self.memory is not None:
                # Framebuffers live for the render+composite span; charge
                # them into the high-water mark then release, mirroring the
                # Catalyst adaptor's accounting.
                fb = flat_partial.nbytes
                if depth_partial is not None:
                    fb += depth_partial.nbytes
                self.memory.allocate(fb, label="libsim::framebuffer")
                self.memory.free(fb, label="libsim::framebuffer")
            with timed(self.timers, "libsim::composite"):
                flat_final = direct_send(self._comm, flat_partial)
                depth_final = None
                if depth_partial is not None:
                    depth_final = direct_send(self._comm, depth_partial)
            if self._comm.rank == 0:
                final = flat_final
                if depth_final is not None:
                    nd = blank_image(*self.resolution)
                    nd.rgb[:] = depth_final.rgb
                    nd.alpha[:] = depth_final.alpha
                    final = composite_over(nd, final)
                with timed(self.timers, "libsim::save"):
                    blob = encode_png(final.rgb)
                self.last_png = blob
                rec = self.timers.trace if self.timers is not None else None
                if rec is not None:
                    rec.count("libsim::png_bytes", len(blob))
                if self.output_dir:
                    path = os.path.join(self.output_dir, f"libsim_{step:06d}.png")
                    with open(path, "wb") as fh:
                        fh.write(blob)
                self.images_written += 1
        return True

    def finalize(self) -> dict | None:
        if self._comm is not None and self._comm.rank == 0:
            return {"images_written": self.images_written}
        return None
