"""Nyx proxy: lattice initial conditions and a ghost-blanked, zero-copy
presentation over the shared particle-mesh engine.

Nyx is a "massively parallel ... code for computational cosmology" whose
SENSEI study ran single-level (no AMR) simulations on axis-aligned boxes,
avoided data replication by passing BoxLib pointers straight to VTK, and
blanked ghost cells with a ``vtkGhostLevels`` byte array (Sec. 4.2.3).
What that section measures is the SENSEI side -- the histogram and slice
cost nothing next to the solver (Fig. 17) -- not the solver, so the proxy
owns only what is Nyx about it: dark-matter particles on a perturbed
lattice, the ``nyx::deposit|poisson|push|migrate`` phases Fig. 17 sums,
and the overdensity slab with one ghost plane each side in x.  Deposit,
Poisson solve, force interpolation, slab ownership, migration and the
periodic wrap are the ones :mod:`repro.apps.nbody` runs, so slices,
histograms and densities are bit-identical across rank counts and SPMD
backends.

The SENSEI adaptor exposes the density field *including one ghost layer*
plus the vtkGhostLevels byte array -- the Nyx blanking pattern the
histogram analysis honours -- at ~``2 * ny * nz * 1`` bytes per rank
(Nyx's reported ~2 MB/rank ghost-array overhead at production sizes).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.apps.nbody import ParticleMeshSimulation, gravity_field, wrap_periodic
from repro.core.generic import SimulationDataAdaptor
from repro.data import Association, GHOST_ARRAY_NAME, ImageData
from repro.data.ghost import ghost_levels_for_extent
from repro.data.particles import DEPOSIT_SCALE, cic_deposit_int, cic_gather
from repro.mpi import SUM
from repro.util.decomp import Extent
from repro.util.timers import timed


class NyxSimulation(ParticleMeshSimulation):
    """One rank's share of the PM proxy.

    Parameters
    ----------
    grid:
        Global cells per axis (``grid^3`` total); must be divisible by
        nothing in particular -- uneven slabs are handled.  One dark-matter
        particle starts in each cell.
    """

    namespace = "nyx"

    def __init__(
        self,
        comm,
        grid: int = 32,
        dt: float = 0.05,
        gravity: float = 1.0,
        seed: int = 42,
    ) -> None:
        super().__init__(comm, grid, dt, gravity, None)
        self.h = 1.0 / grid
        self.nx_local = self.x_hi - self.x_lo

        # Perturbed-lattice initial particles (unit mass, at rest).
        with timed(self.timers, "nyx::init"):
            rng = np.random.default_rng(seed)  # same lattice on every rank
            lattice = (np.arange(grid) + 0.5) / grid
            cells = np.meshgrid(lattice, lattice, lattice, indexing="ij")
            pos = np.stack(cells, axis=-1).reshape(-1, 3)
            pos += 0.2 * self.h * rng.standard_normal(pos.shape)
            wrap_periodic(pos)
            self.total_particles = pos.shape[0]
            self._adopt(pos, np.zeros_like(pos), np.ones(self.total_particles))
            #: Overdensity on the owned slab + 1 ghost plane each side in x.
            self.density = np.zeros((self.nx_local + 2, grid, grid))

    @property
    def positions(self) -> np.ndarray:
        return self.particles.positions

    def deposit(self) -> np.ndarray:
        """Exact CIC deposit, replicated, into the haloed overdensity slab;
        returns the replicated mass grid the Poisson solve consumes."""
        with timed(self.timers, "nyx::deposit"):
            p, g = self.particles, self.grid
            total = self.comm.allreduce(
                cic_deposit_int(p.positions, p.masses, g), SUM
            )
            mass = total.astype(np.float64) / DEPOSIT_SCALE
            # Plane 0 holds cell x_lo - 1 and plane -1 cell x_hi, wrapped
            # periodically: a ghost plane is its neighbour's owned plane.
            planes = np.arange(self.x_lo - 1, self.x_hi + 1) % g
            np.divide(mass[planes], self.total_particles / g**3, out=self.density)
            return mass

    def advance(self) -> None:
        """One deposit-solve-push-migrate cycle."""
        mass = self.deposit()
        with timed(self.timers, "nyx::poisson"):
            acc = gravity_field(mass, self.gravity)
        with timed(self.timers, "nyx::push"):
            self._kick_drift(cic_gather(acc, self.particles.positions))
        with timed(self.timers, "nyx::migrate"):
            self._migrate()
        self.time += self.dt
        self.step += 1

    # -- SENSEI adaptor ----------------------------------------------------------
    def ghosted_extent(self) -> Extent:
        """Owned cells plus the one-cell x halo, clamped to the domain edge
        in index space (periodic wrap is represented as clamp for ghosting
        purposes -- ghost flags, not geometry, are what the analyses use)."""
        return self.owned_extent().grow(1, self.whole_extent())

    @functools.cached_property
    def ghost_levels(self) -> np.ndarray:
        """The vtkGhostLevels byte array over :meth:`ghosted_extent`, built
        once: the slab never changes."""
        return ghost_levels_for_extent(self.ghosted_extent(), self.owned_extent())

    def make_data_adaptor(self) -> SimulationDataAdaptor:
        """The haloed density slab with vtkGhostLevels blanking.

        "We avoid data replication by directly passing a pointer to the
        BoxLib data to VTK and blanking out ghost cells ... by associating a
        vtkGhostLevels attribute -- a byte array of flags marking ghost
        cells."  The density is a zero-copy slice of the haloed array, whose
        plane 0 holds cell ``x_lo - 1``.
        """
        ext = self.ghosted_extent()
        planes = slice(ext.i0 - (self.x_lo - 1), ext.i1 - (self.x_lo - 1) + 1)
        adaptor = SimulationDataAdaptor(
            self.comm,
            lambda: ImageData(ext, spacing=(self.h,) * 3, whole_extent=self.whole_extent()),
        )
        adaptor.register_array(Association.POINT, "density", lambda: self.density[planes])
        adaptor.register_array(Association.POINT, GHOST_ARRAY_NAME, lambda: self.ghost_levels)
        return adaptor
