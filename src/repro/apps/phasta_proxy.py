"""PHASTA proxy: explicit flow solver on an unstructured tetrahedral mesh.

PHASTA "solves the Navier-Stokes equations ... using a stabilized finite
element method" over an unstructured grid, with core routines in Fortran 90
(Sec. 4.2.1).  The proxy preserves what the paper measures:

- an unstructured tetrahedral mesh (each rank's box of a global grid,
  hexes split into 6 tets), with nodal coordinates and solution fields in
  Fortran-style SoA storage so the SENSEI adaptor's zero-copy mapping is
  exercised exactly as described: "the data adaptor uses VTK's zero-copy
  ability to map the nodal coordinates and field variables while the VTK
  grid connectivity is a full copy";
- per-step cost proportional to element count: the solve is emulated by
  edge-smoothing (Jacobi) sweeps over the element connectivity -- the
  memory-access pattern of an explicit FEM residual -- driven by an
  analytic unsteady synthetic-jet-over-tail velocity field;
- Catalyst output: a 2-D slice "pseudo-colored by velocity magnitude",
  composited across ranks, PNG-encoded serially on rank 0 (the Table 2
  zlib bottleneck).
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.generic import SimulationDataAdaptor
from repro.data import Association, CellType, DataArray, UnstructuredGrid
from repro.mpi import MAX, MIN
from repro.render import blank_image, splat_points
from repro.render.colormap import COOL_WARM
from repro.render.compositing import binary_swap
from repro.render.png import encode_png
from repro.util.decomp import block_decompose_1d
from repro.util.timers import TimerRegistry, timed

# The 6-tet decomposition of a hexahedral cell (corner ids i + 2j + 4k).
_HEX_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 1, 7, 5],
        [0, 5, 7, 4],
        [0, 3, 2, 7],
        [0, 2, 6, 7],
        [0, 6, 4, 7],
    ],
    dtype=np.int64,
)


def build_rank_mesh(
    comm, global_cells: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This rank's tet mesh of its x-slab of the global box.

    Returns ``(x, y, z, tets)`` where the coordinates are separate 1-D
    arrays (Fortran-style SoA nodal storage) and ``tets`` is an
    ``(ncells, 4)`` connectivity array in *local* node numbering.
    """
    ncx, ncy, ncz = global_cells
    lo, hi = block_decompose_1d(ncx, comm.size, comm.rank)
    if hi <= lo:
        raise ValueError("more ranks than x-cell planes")
    npx = hi - lo + 1  # local node planes (shared boundary nodes duplicated)
    npy, npz = ncy + 1, ncz + 1
    xs = np.linspace(lo / ncx, hi / ncx, npx)
    ys = np.linspace(0.0, 1.0, npy)
    zs = np.linspace(0.0, 1.0, npz)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    x = np.ascontiguousarray(X.reshape(-1))
    y = np.ascontiguousarray(Y.reshape(-1))
    z = np.ascontiguousarray(Z.reshape(-1))

    def node(i, j, k):
        return (i * npy + j) * npz + k

    ci, cj, ck = np.meshgrid(
        np.arange(npx - 1), np.arange(npy - 1), np.arange(npz - 1), indexing="ij"
    )
    ci, cj, ck = ci.reshape(-1), cj.reshape(-1), ck.reshape(-1)
    corners = np.empty((ci.size, 8), dtype=np.int64)
    for c in range(8):
        oi, oj, ok = (c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1
        corners[:, c] = node(ci + oi, cj + oj, ck + ok)
    tets = corners[:, _HEX_TETS].reshape(-1, 4)
    return x, y, z, tets


def tail_flow(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, t: float, jet_freq: float = 8.0,
    jet_amplitude: float = 0.4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic unsteady flow over a vertical tail with a pulsing jet.

    Free stream in +x deflected around a thin vertical "tail" at
    x ~ 0.45, plus a synthetic jet near the separation point whose
    frequency/amplitude are the flow-control knobs the paper's engineers
    tuned interactively through SENSEI imagery.
    """
    tail_dist2 = (x - 0.45) ** 2 / 0.002 + (z - 0.5) ** 2 / 0.08
    blockage = np.exp(-tail_dist2)
    u = 1.0 - 0.9 * blockage
    v = 0.15 * np.sin(2 * np.pi * (x - 0.3 * t)) * blockage
    jet = jet_amplitude * np.sin(2 * np.pi * jet_freq * t) * np.exp(
        -((x - 0.47) ** 2 + (y - 0.3) ** 2 + (z - 0.5) ** 2) / 0.004
    )
    w = 0.3 * (z - 0.5) * blockage + jet
    return u, v, w


class PhastaSimulation:
    """One rank's share of the PHASTA proxy.

    Two Jacobi passes over the tet connectivity emulate
    the per-element solver cost (the production code's implicit solve costs
    far more per element; the proxy's cost still scales as O(elements)).
    """

    def __init__(
        self,
        comm,
        global_cells: tuple[int, int, int] = (16, 8, 8),
        jet_freq: float = 8.0,
        jet_amplitude: float = 0.4,
    ) -> None:
        self.comm = comm
        self.timers = TimerRegistry()
        self.jet_freq = jet_freq
        self.jet_amplitude = jet_amplitude
        with timed(self.timers, "phasta::mesh"):
            self.x, self.y, self.z, self.tets = build_rank_mesh(comm, global_cells)
        # Fortran-style SoA solution storage: one array per component.
        n = self.x.shape[0]
        self.vel_u = np.zeros(n)
        self.vel_v = np.zeros(n)
        self.vel_w = np.zeros(n)
        self.pressure = np.zeros(n)
        self.time = 0.0
        self.step = 0
        self.dt = 0.01

    def advance(self) -> None:
        """One pseudo-step: analytic field update + element-driven smoothing."""
        with timed(self.timers, "phasta::solve"):
            self.time += self.dt
            self.step += 1
            u, v, w = tail_flow(
                self.x, self.y, self.z, self.time,
                jet_freq=self.jet_freq, jet_amplitude=self.jet_amplitude,
            )
            self.vel_u[:] = u
            self.vel_v[:] = v
            self.vel_w[:] = w
            # Element-loop cost: Jacobi smoothing through tet connectivity.
            for _ in range(2):  # Jacobi sweeps
                for comp in (self.vel_u, self.vel_v, self.vel_w):
                    elem_mean = comp[self.tets].mean(axis=1)
                    acc = np.zeros_like(comp)
                    cnt = np.zeros_like(comp)
                    np.add.at(acc, self.tets.reshape(-1), np.repeat(elem_mean, 4))
                    np.add.at(cnt, self.tets.reshape(-1), 1.0)
                    comp += 0.05 * (acc / np.maximum(cnt, 1.0) - comp)
            self.pressure[:] = 1.0 - 0.5 * (u * u + v * v + w * w)

    def run(self, n_steps: int, bridge=None) -> None:
        for _ in range(n_steps):
            self.advance()
            if bridge is not None:
                if not bridge.execute(self.time, self.step):
                    break

    def mesh(self) -> UnstructuredGrid:
        """This rank's tet mesh, rebuilt on each call: "the grid and fields
        are constructed as needed but the pointers to the PHASTA grid data
        structures are passed every time in situ is accessed"."""
        # column_stack is the one unavoidable copy for point coordinates
        # because VTK-style points are interleaved; the attribute arrays stay
        # zero-copy SoA.  Connectivity is a deliberate full copy, matching
        # the paper's PHASTA adaptor.
        points = np.column_stack((self.x, self.y, self.z))
        return UnstructuredGrid.from_cells(points, CellType.TETRA, self.tets.copy())

    def make_data_adaptor(self) -> SimulationDataAdaptor:
        """Zero-copy SoA nodal fields over a per-step mesh."""
        adaptor = SimulationDataAdaptor(self.comm, self.mesh)
        adaptor.register_array(
            Association.POINT,
            "velocity",
            lambda: DataArray.from_soa("velocity", [self.vel_u, self.vel_v, self.vel_w]),
        )
        adaptor.register_array(Association.POINT, "pressure", lambda: self.pressure)
        return adaptor


class PhastaSliceRender(AnalysisAdaptor):
    """Catalyst-style slice of the unstructured mesh, colored by |velocity|.

    Nodes within half a cell of the slice plane are splatted (depth-tested
    by distance to the plane), partial images are binary-swap composited,
    and rank 0 encodes the PNG -- serially, with zlib, as in the paper.
    """

    def __init__(
        self,
        axis: int = 1,
        coordinate: float = 0.3,
        resolution: tuple[int, int] = (800, 200),
        compression_level: int = 6,
        output_dir=None,
    ) -> None:
        super().__init__()
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1, or 2")
        self.axis = axis
        self.coordinate = coordinate
        self.resolution = resolution
        self.compression_level = compression_level
        self.output_dir = output_dir
        self._comm = None
        self.images_written = 0
        self.last_png: bytes | None = None

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.output_dir is not None and comm.rank == 0:
            import os

            os.makedirs(self.output_dir, exist_ok=True)

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh()
        if not isinstance(mesh, UnstructuredGrid):
            raise TypeError("PhastaSliceRender requires an UnstructuredGrid")
        with timed(self.timers, "phasta_slice::extract"):
            coords = (mesh.points[:, 0], mesh.points[:, 1], mesh.points[:, 2])
            dist = np.abs(coords[self.axis] - self.coordinate)
            near = dist < 0.08
            vel = data.get_array(Association.POINT, "velocity")
            vmag_local = vel.magnitude()
            local_min = float(vmag_local.min()) if vmag_local.size else float("inf")
            local_max = float(vmag_local.max()) if vmag_local.size else float("-inf")
        vmin = self._comm.allreduce(local_min, MIN)
        vmax = self._comm.allreduce(local_max, MAX)
        with timed(self.timers, "phasta_slice::render"):
            w, h = self.resolution
            if near.any():
                u_ax, v_ax = [a for a in range(3) if a != self.axis]
                pts2d = np.column_stack((coords[u_ax][near], coords[v_ax][near]))
                colors = COOL_WARM.map(vmag_local[near], vmin=vmin, vmax=vmax)
                partial = splat_points(
                    pts2d,
                    dist[near].astype(np.float32),
                    colors,
                    w,
                    h,
                    (0.0, 1.0, 0.0, 1.0),
                    radius=2,
                )
            else:
                partial = blank_image(w, h, with_depth=True)
        with timed(self.timers, "phasta_slice::composite"):
            final = binary_swap(self._comm, partial)
        if final is not None:
            with timed(self.timers, "phasta_slice::png"):
                blob = encode_png(final.rgb, self.compression_level)
            self.last_png = blob
            if self.output_dir is not None:
                import os

                path = os.path.join(
                    self.output_dir, f"phasta_{data.get_data_time_step():06d}.png"
                )
                with open(path, "wb") as fh:
                    fh.write(blob)
            self.images_written += 1
        return True

    def finalize(self):
        if self._comm is not None and self._comm.rank == 0:
            return {"images_written": self.images_written}
        return None
