"""Generic structured halo (ghost) exchange.

The point-sampling analyses of :mod:`repro.analysis.probe` (oblique slice,
sensor probes) interpolate across block faces and so need their face
neighbors' boundary layers; they are this module's users (AVF-LESLIE
exchanges its one slab axis by hand, the particle apps replicate their
grid).  This is the reusable form: a :class:`HaloExchanger` built from a
rank's block in a regular 3-D decomposition, exchanging ``depth`` ghost
layers along every decomposed axis, with periodic or clamped boundaries.

The exchange posts one sendrecv per face per axis (the standard
dimension-by-dimension scheme); exchanging axis by axis also fills edge and
corner ghosts correctly, because later axes forward the ghost layers
received on earlier ones.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.communicator import Communicator
from repro.util.decomp import Extent, regular_decompose_3d


class HaloExchanger:
    """Exchanges ghost layers for one rank's block of a regular grid.

    Parameters
    ----------
    comm:
        The communicator the decomposition was built over.
    global_dims:
        Global point dimensions.
    depth:
        Ghost layers on each decomposed face.
    periodic:
        Per-axis periodicity.  Non-periodic domain edges are *clamped*:
        the ghost layer replicates the boundary plane, which is the
        convention the derived-field stencils expect.
    """

    def __init__(
        self,
        comm: Communicator,
        global_dims: tuple[int, int, int],
        depth: int = 1,
        periodic: tuple[bool, bool, bool] = (True, True, True),
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.comm = comm
        self.depth = depth
        self.periodic = periodic
        self.global_dims = global_dims
        self.extent, self.proc_grid, self.proc_coord = regular_decompose_3d(
            global_dims, comm.size, comm.rank
        )
        for axis in range(3):
            # A periodic axis with a single block still exchanges: the rank
            # is its own neighbor through _neighbor()'s wrap, and the same
            # shape >= depth bound applies -- with fewer owned planes than
            # ghost depth, own_lo/own_hi extend into ghost planes and the
            # self-wrap fills ghosts with stale garbage instead of field
            # values.  Only a non-periodic undecomposed axis (pure clamp,
            # no exchange) is exempt.
            exchanges = self.proc_grid[axis] > 1 or periodic[axis]
            if exchanges and self.extent.shape[axis] < depth:
                raise ValueError(
                    f"axis {axis}: block has {self.extent.shape[axis]} planes, "
                    f"need >= depth ({depth}) for the exchange"
                    + (
                        " (periodic axis self-wraps even with a single block)"
                        if self.proc_grid[axis] == 1
                        else ""
                    )
                )

    # -- geometry ----------------------------------------------------------
    @property
    def ghosted_shape(self) -> tuple[int, int, int]:
        ni, nj, nk = self.extent.shape
        d = self.depth
        return (ni + 2 * d, nj + 2 * d, nk + 2 * d)

    def interior(self) -> tuple[slice, slice, slice]:
        """Slices selecting the owned region of a ghosted array."""
        d = self.depth
        return (slice(d, -d), slice(d, -d), slice(d, -d))

    def allocate_ghosted(self, dtype=np.float64) -> np.ndarray:
        return np.zeros(self.ghosted_shape, dtype=dtype)

    def _neighbor(self, axis: int, direction: int) -> int | None:
        """Rank of the face neighbor, or None at a non-periodic edge."""
        coord = list(self.proc_coord)
        coord[axis] += direction
        n = self.proc_grid[axis]
        if coord[axis] < 0 or coord[axis] >= n:
            if not self.periodic[axis]:
                return None
            coord[axis] %= n
        px, py = self.proc_grid[0], self.proc_grid[1]
        return coord[0] + coord[1] * px + coord[2] * px * py

    def _rank_of_coord(self) -> int:
        px, py = self.proc_grid[0], self.proc_grid[1]
        cx, cy, cz = self.proc_coord
        return cx + cy * px + cz * px * py

    # -- the exchange ----------------------------------------------------------
    def exchange(self, ghosted: np.ndarray) -> None:
        """Fill all ghost layers of ``ghosted`` (in place).

        ``ghosted`` must have :attr:`ghosted_shape`; its interior must hold
        the owned values.
        """
        if ghosted.shape[:3] != self.ghosted_shape:
            raise ValueError(
                f"ghosted array shape {ghosted.shape[:3]} != {self.ghosted_shape}"
            )
        d = self.depth
        for axis in range(3):
            lo_n = self._neighbor(axis, -1)
            hi_n = self._neighbor(axis, +1)

            def face(index_range) -> tuple:
                sl: list = [slice(None)] * ghosted.ndim
                sl[axis] = index_range
                return tuple(sl)

            own_lo = face(slice(d, 2 * d))
            own_hi = face(slice(-2 * d, -d))
            ghost_lo = face(slice(0, d))
            ghost_hi = face(slice(-d, None))

            # Low-direction pass: send my low owned planes to the low
            # neighbor; receive my high ghosts from the high neighbor.
            got_hi = self._sendrecv(lo_n, hi_n, ghosted[own_lo], tag=70 + axis)
            if got_hi is not None:
                ghosted[ghost_hi] = got_hi
            elif hi_n is None:
                ghosted[ghost_hi] = ghosted[face(slice(-d - 1, -d))]
            # High-direction pass.
            got_lo = self._sendrecv(hi_n, lo_n, ghosted[own_hi], tag=80 + axis)
            if got_lo is not None:
                ghosted[ghost_lo] = got_lo
            elif lo_n is None:
                ghosted[ghost_lo] = ghosted[face(slice(d, d + 1))]

    def _sendrecv(self, dest: int | None, source: int | None, payload, tag: int):
        """Sendrecv tolerating absent (non-periodic edge) partners.

        Face views are strided; they are packed contiguous before the send.
        """
        if dest is not None:
            self.comm.send(np.ascontiguousarray(payload), dest=dest, tag=tag)
        if source is not None:
            return self.comm.recv(source=source, tag=tag)
        return None

    # -- convenience -----------------------------------------------------------
    def scatter_field(self, ghosted: np.ndarray, owned: np.ndarray) -> None:
        """Place owned values into the interior and fill ghosts."""
        if owned.shape[:3] != self.extent.shape:
            raise ValueError("owned array does not match the local extent")
        ghosted[self.interior()] = owned
        self.exchange(ghosted)
