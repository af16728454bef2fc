"""Slice extraction: "a 2D slice from a 3D volume" (Sec. 4.1.1).

The Catalyst-slice and Libsim-slice configurations both "extract a 2D slice
from a 3D volume, then render the result using a pseudocoloring, or heatmap
technique", where "only those ranks whose domains intersect the slice plane
will extract and render the slice geometry" (Sec. 4.1.3).  This module is
the extraction stage; rendering and compositing live in :mod:`repro.render`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.configurable import register_analysis
from repro.data import Association, ImageData
from repro.util.decomp import Extent


@dataclass(frozen=True)
class SlicePlane:
    """An axis-aligned slice plane: normal axis (0/1/2) + global point index."""

    axis: int
    index: int

    def __post_init__(self) -> None:
        if self.axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1, or 2")


@dataclass
class LocalSlice:
    """One rank's piece of the global slice: values + its 2-D global extent.

    ``extent2d`` is ``(u0, u1, v0, v1)`` inclusive indices in the two
    in-plane axes (the axes other than ``plane.axis``, in ascending order).
    """

    plane: SlicePlane
    extent2d: tuple[int, int, int, int]
    values: np.ndarray  # (nu, nv)


def _inplane_axes(axis: int) -> tuple[int, int]:
    return tuple(a for a in range(3) if a != axis)  # type: ignore[return-value]


def extract_axis_slice(
    image: ImageData, field: str, plane: SlicePlane
) -> LocalSlice | None:
    """Extract this block's intersection with the plane, or None if disjoint.

    Returns a *view* into the block's field data (no copy): slicing a 3-D
    numpy array at a fixed index along one axis is a view, which keeps the
    extraction stage zero-copy just like the production slice filters strive
    to be.
    """
    ext = image.extent
    lo = (ext.i0, ext.j0, ext.k0)[plane.axis]
    hi = (ext.i1, ext.j1, ext.k1)[plane.axis]
    if not lo <= plane.index <= hi:
        return None
    f3 = image.point_field_3d(field)
    local_idx = plane.index - lo
    selector: list = [slice(None)] * 3
    selector[plane.axis] = local_idx
    values = f3[tuple(selector)]  # basic indexing: a view, not a copy
    u, v = _inplane_axes(plane.axis)
    bounds = [(ext.i0, ext.i1), (ext.j0, ext.j1), (ext.k0, ext.k1)]
    (u0, u1), (v0, v1) = bounds[u], bounds[v]
    return LocalSlice(plane, (u0, u1, v0, v1), values)


def gather_global_slice(
    comm, local: LocalSlice | None, whole_extent: Extent, plane: SlicePlane, root: int = 0
) -> np.ndarray | None:
    """Assemble the full 2-D slice on ``root`` from per-rank pieces.

    Ranks not intersecting the plane contribute ``None``.  Overlapping
    points on block boundaries (shared grid points) are written by each
    contributor; values agree, so last-writer-wins is safe.
    """
    u, v = _inplane_axes(plane.axis)
    bounds = [
        (whole_extent.i0, whole_extent.i1),
        (whole_extent.j0, whole_extent.j1),
        (whole_extent.k0, whole_extent.k1),
    ]
    (gu0, gu1), (gv0, gv1) = bounds[u], bounds[v]
    payload = None
    if local is not None:
        payload = (local.extent2d, np.ascontiguousarray(local.values))
    pieces = comm.gather(payload, root=root)
    if comm.rank != root:
        return None
    out = np.zeros((gu1 - gu0 + 1, gv1 - gv0 + 1), dtype=np.float64)
    for piece in pieces:
        if piece is None:
            continue
        (u0, u1, v0, v1), vals = piece
        out[u0 - gu0 : u1 - gu0 + 1, v0 - gv0 : v1 - gv0 + 1] = vals
    return out


@register_analysis("slice")
def _make_slice(config) -> "SliceExtractAnalysis":
    return SliceExtractAnalysis(
        plane=SlicePlane(config.get_int("axis", 2), config.get_int("index", 0)),
        array=config.get("array", "data"),
    )


class SliceExtractAnalysis(AnalysisAdaptor):
    """Analysis adaptor that extracts + gathers a global slice each step.

    Used directly by tests; the Catalyst/Libsim infrastructure adaptors use
    the same extraction functions but composite rendered images instead of
    gathering raw values.
    """

    def __init__(self, plane: SlicePlane, array: str = "data") -> None:
        super().__init__()
        self.plane = plane
        self.array = array
        self._comm = None
        self.slices: list[np.ndarray] = []  # root rank only

    def initialize(self, comm) -> None:
        self._comm = comm

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh()
        if not isinstance(mesh, ImageData):
            raise TypeError("slice extraction requires an ImageData mesh")
        # Force the field mapping only on intersecting ranks -- matches
        # "only those ranks whose domains intersect the slice plane will
        # extract" and keeps non-intersecting ranks lazy.
        ext = mesh.extent
        lo = (ext.i0, ext.j0, ext.k0)[self.plane.axis]
        hi = (ext.i1, ext.j1, ext.k1)[self.plane.axis]
        local = None
        if lo <= self.plane.index <= hi:
            arr = data.get_array(Association.POINT, self.array)
            mesh.add_array(Association.POINT, arr)
            local = extract_axis_slice(mesh, self.array, self.plane)
        out = gather_global_slice(
            self._comm, local, mesh.whole_extent, self.plane
        )
        if out is not None:
            self.slices.append(out)
        return True

    def finalize(self) -> list[np.ndarray] | None:
        return self.slices or None
