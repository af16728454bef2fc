"""Particle populations with variable per-rank counts.

Every other mesh in the data model is grid-shaped; a :class:`ParticleSet`
is the ragged counterpart the paper's Nyx use case needs: each rank owns
however many particles currently live in its domain slab, the count
changes every step as particles migrate, and a rank legitimately owning
*zero* particles must flow through adaptors, transports, and reductions
without special-casing.

The geometry (positions) doubles as a point attribute, VTK-vertex style:
``num_points`` is the particle count and the ``position`` / ``velocity`` /
``mass`` / ``id`` attributes are zero-copy :class:`DataArray` views of the
simulation's storage, so the sanitizer's write/retention guards apply to
particle data exactly as they do to grids.

The deposit/gather kernels at the bottom are the particle <-> grid bridge
(cloud-in-cell).  Deposit accumulates in *fixed-point int64*: per-particle
contributions are quantized once, and integer addition is exact and
order-independent, so a deposited grid -- and everything derived from it
(density projections, power spectra, forces) -- is bit-identical across
rank counts, SPMD backends, and migration-induced reorderings.  That is
what lets the equivalence tests assert byte-equal analysis artifacts for
1/2/4-rank runs instead of tolerance comparisons.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.array import DataArray
from repro.data.dataset import Association, Dataset

#: Fixed-point scale for integer deposits: contributions are quantized to
#: multiples of 2**-32 mass units.  Small enough to be invisible next to
#: float64 dynamics, large enough that ~1e7 particle-corner contributions
#: stay far from int64 overflow.
DEPOSIT_SCALE = 2**32

POSITION = "position"
VELOCITY = "velocity"
MASS = "mass"
PARTICLE_ID = "id"

#: Attribute names every ParticleSet exposes, in adaptor listing order.
PARTICLE_ARRAYS = (PARTICLE_ID, POSITION, VELOCITY, MASS)


class ParticleSet(Dataset):
    """One rank's particle population: ids, positions, velocities, masses.

    ``ids`` are persistent int64 labels assigned at initialization; they
    ride along through migration, which is what lets tests assert exact
    ownership replay after a checkpoint restore and lets the FoF analysis
    impose a canonical global order independent of the decomposition.

    The constructor wraps the given arrays by reference (zero-copy); use
    :meth:`copy` for an owning snapshot.
    """

    def __init__(
        self,
        ids: np.ndarray,
        positions: np.ndarray,
        velocities: np.ndarray,
        masses: np.ndarray,
    ) -> None:
        super().__init__()
        ids = np.asarray(ids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.float64)
        velocities = np.asarray(velocities, dtype=np.float64)
        masses = np.asarray(masses, dtype=np.float64)
        n = ids.shape[0]
        if positions.shape != (n, 3) or velocities.shape != (n, 3):
            raise ValueError(
                f"positions/velocities must be ({n}, 3), got "
                f"{positions.shape} / {velocities.shape}"
            )
        if masses.shape != (n,):
            raise ValueError(f"masses must be ({n},), got {masses.shape}")
        self.ids = ids
        self.positions = positions
        self.velocities = velocities
        self.masses = masses
        self.add_point_array(DataArray.from_soa(PARTICLE_ID, [ids]))
        self.add_point_array(DataArray.from_aos(POSITION, positions))
        self.add_point_array(DataArray.from_aos(VELOCITY, velocities))
        self.add_point_array(DataArray.from_soa(MASS, [masses]))

    # -- construction ---------------------------------------------------------
    @classmethod
    def empty(cls) -> "ParticleSet":
        """A population of zero particles (a legitimate per-rank state)."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty((0, 3), dtype=np.float64),
            np.empty((0, 3), dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def concatenate(cls, parts: Sequence["ParticleSet"]) -> "ParticleSet":
        """Owning concatenation in the given order (migration assembly)."""
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.ids for p in parts]),
            np.concatenate([p.positions for p in parts]),
            np.concatenate([p.velocities for p in parts]),
            np.concatenate([p.masses for p in parts]),
        )

    # -- Dataset geometry contract --------------------------------------------
    @property
    def num_points(self) -> int:
        return int(self.ids.shape[0])

    @property
    def num_cells(self) -> int:
        return 0

    @property
    def num_particles(self) -> int:
        return self.num_points

    # -- ragged views ---------------------------------------------------------
    def slice_view(self, start: int, stop: int) -> "ParticleSet":
        """A zero-copy sub-population over ``[start, stop)``.

        Every attribute of the view shares memory with this set's storage
        (``DataArray.is_zero_copy_of`` holds), which is what the
        sanitizer's write guard needs to police per-rank slices.
        """
        start, stop, _ = slice(start, stop).indices(self.num_points)
        return ParticleSet(
            self.ids[start:stop],
            self.positions[start:stop],
            self.velocities[start:stop],
            self.masses[start:stop],
        )

    def select(self, mask: np.ndarray) -> "ParticleSet":
        """An owning subset (fancy indexing copies) -- migration outboxes."""
        mask = np.asarray(mask)
        return ParticleSet(
            self.ids[mask],
            np.ascontiguousarray(self.positions[mask]),
            np.ascontiguousarray(self.velocities[mask]),
            self.masses[mask],
        )

    def copy(self) -> "ParticleSet":
        """An owning deep copy (checkpoint snapshots)."""
        return ParticleSet(
            self.ids.copy(),
            self.positions.copy(),
            self.velocities.copy(),
            self.masses.copy(),
        )

    def sorted_by_id(self) -> "ParticleSet":
        """An owning copy in canonical (ascending id) order.

        Decomposition- and migration-independent: the canonical order in
        which a gathered global population must be compared or analyzed.
        """
        order = np.argsort(self.ids, kind="stable")
        return ParticleSet(
            self.ids[order],
            np.ascontiguousarray(self.positions[order]),
            np.ascontiguousarray(self.velocities[order]),
            self.masses[order],
        )

    # -- invariants the conservation tests assert ------------------------------
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def momentum(self) -> np.ndarray:
        """Total momentum, a (3,) vector."""
        if self.num_points == 0:
            return np.zeros(3)
        return (self.masses[:, None] * self.velocities).sum(axis=0)

    def fingerprint(self) -> int:
        """Order-sensitive content fingerprint over all four attributes."""
        h = 0
        for name in PARTICLE_ARRAYS:
            h ^= self.get_array(Association.POINT, name).fingerprint()
        return h

    def state_tuple(self) -> tuple:
        """Canonically ordered bytes of the full state (equality checks)."""
        s = self.sorted_by_id()
        return (
            s.ids.tobytes(),
            s.positions.tobytes(),
            s.velocities.tobytes(),
            s.masses.tobytes(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParticleSet(n={self.num_points})"


# -- particle <-> grid kernels -------------------------------------------------


def _cic_corners(
    positions: np.ndarray, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Base cell indices and fractional offsets for CIC on a periodic grid."""
    s = positions * grid
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    return i0, frac


def cic_deposit_int(
    positions: np.ndarray,
    masses: np.ndarray,
    grid: int,
) -> np.ndarray:
    """Cloud-in-cell mass deposit onto a periodic ``grid**3`` int64 field.

    Each particle spreads ``mass * wx * wy * wz`` to its eight enclosing
    cell corners; every contribution is rounded to an integer multiple of
    ``1/DEPOSIT_SCALE`` *before* accumulation, so the summed grid is exact in
    int64 and therefore independent of particle order, rank count, and
    reduction topology.  Callers allreduce the int64 grid and divide by
    :data:`DEPOSIT_SCALE` once at the end.
    """
    out = np.zeros((grid, grid, grid), dtype=np.int64)
    n = positions.shape[0]
    if n == 0:
        return out
    i0, frac = _cic_corners(positions, grid)
    i1 = (i0 + 1) % grid
    w0 = 1.0 - frac
    for cx, wx in ((i0[:, 0], w0[:, 0]), (i1[:, 0], frac[:, 0])):
        for cy, wy in ((i0[:, 1], w0[:, 1]), (i1[:, 1], frac[:, 1])):
            for cz, wz in ((i0[:, 2], w0[:, 2]), (i1[:, 2], frac[:, 2])):
                contrib = np.rint(masses * wx * wy * wz * DEPOSIT_SCALE).astype(
                    np.int64
                )
                np.add.at(out, (cx, cy, cz), contrib)
    return out


def cic_deposit_int_2d(
    positions: np.ndarray,
    masses: np.ndarray,
    grid: int,
    axis: int = 0,
) -> np.ndarray:
    """CIC deposit of the projection along ``axis`` onto a ``grid**2``
    int64 plane -- the density-projection analysis kernel, with the same
    exact-integer accumulation guarantees as :func:`cic_deposit_int`."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0..2, got {axis}")
    out = np.zeros((grid, grid), dtype=np.int64)
    n = positions.shape[0]
    if n == 0:
        return out
    keep = [a for a in (0, 1, 2) if a != axis]
    plane = positions[:, keep]
    i0, frac = _cic_corners(plane, grid)
    i1 = (i0 + 1) % grid
    w0 = 1.0 - frac
    for cu, wu in ((i0[:, 0], w0[:, 0]), (i1[:, 0], frac[:, 0])):
        for cv, wv in ((i0[:, 1], w0[:, 1]), (i1[:, 1], frac[:, 1])):
            contrib = np.rint(masses * wu * wv * DEPOSIT_SCALE).astype(np.int64)
            np.add.at(out, (cu, cv), contrib)
    return out


def cic_gather(fields: Sequence[np.ndarray], positions: np.ndarray) -> np.ndarray:
    """Trilinear (CIC) interpolation of grid fields at particle positions.

    ``fields`` is a sequence of ``(g, g, g)`` arrays sampled on the same
    periodic grid; returns ``(n, len(fields))``.  Pure per-particle
    arithmetic: no accumulation, hence deterministic regardless of order.
    """
    first = fields[0]
    grid = first.shape[0]
    n = positions.shape[0]
    out = np.empty((n, len(fields)), dtype=np.float64)
    if n == 0:
        return out
    i0, frac = _cic_corners(positions, grid)
    i1 = (i0 + 1) % grid
    w0 = 1.0 - frac
    for fi, field in enumerate(fields):
        acc = np.zeros(n, dtype=np.float64)
        for cx, wx in ((i0[:, 0], w0[:, 0]), (i1[:, 0], frac[:, 0])):
            for cy, wy in ((i0[:, 1], w0[:, 1]), (i1[:, 1], frac[:, 1])):
                for cz, wz in ((i0[:, 2], w0[:, 2]), (i1[:, 2], frac[:, 2])):
                    acc += field[cx, cy, cz] * wx * wy * wz
        out[:, fi] = acc
    return out
