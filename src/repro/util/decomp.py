"""Regular domain decomposition.

The oscillator miniapp partitions its grid "between the processes using
regular decomposition" (Sec. 3.3); AVF-LESLIE and Nyx use Cartesian block
decompositions as well.  These helpers compute balanced 1-D block ranges and
near-cubic 3-D process grids, and carry local/global extents in the
VTK-style inclusive-index convention used throughout the data model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Extent:
    """Inclusive index extent ``[i0, i1] x [j0, j1] x [k0, k1]`` (VTK style)."""

    i0: int
    i1: int
    j0: int
    j1: int
    k0: int
    k1: int

    @property
    def shape(self) -> tuple[int, int, int]:
        """Number of points along (i, j, k)."""
        return (self.i1 - self.i0 + 1, self.j1 - self.j0 + 1, self.k1 - self.k0 + 1)

    @property
    def num_points(self) -> int:
        ni, nj, nk = self.shape
        return ni * nj * nk

    @property
    def num_cells(self) -> int:
        ni, nj, nk = self.shape
        return max(ni - 1, 0) * max(nj - 1, 0) * max(nk - 1, 0)

    def intersect(self, other: "Extent") -> "Extent | None":
        e = Extent(
            max(self.i0, other.i0),
            min(self.i1, other.i1),
            max(self.j0, other.j0),
            min(self.j1, other.j1),
            max(self.k0, other.k0),
            min(self.k1, other.k1),
        )
        if e.i0 > e.i1 or e.j0 > e.j1 or e.k0 > e.k1:
            return None
        return e

    def grow(self, n: int, bounds: "Extent") -> "Extent":
        """Grow by ``n`` ghost layers, clamped to ``bounds``."""
        return Extent(
            max(self.i0 - n, bounds.i0),
            min(self.i1 + n, bounds.i1),
            max(self.j0 - n, bounds.j0),
            min(self.j1 + n, bounds.j1),
            max(self.k0 - n, bounds.k0),
            min(self.k1 + n, bounds.k1),
        )


def block_decompose_1d(n: int, parts: int, index: int) -> tuple[int, int]:
    """Balanced contiguous block ``[lo, hi)`` of ``range(n)`` for ``index``.

    The first ``n % parts`` blocks get one extra element, matching common
    MPI block decompositions.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if not 0 <= index < parts:
        raise ValueError(f"index {index} out of range for {parts} parts")
    base, extra = divmod(n, parts)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


def slab_bounds(n: int, size: int) -> list[tuple[int, int]]:
    """Every rank's ``[lo, hi)`` block of ``range(n)``, in rank order."""
    return [block_decompose_1d(n, size, r) for r in range(size)]


def factor_ranks(nranks: int, dims: int = 3) -> tuple[int, ...]:
    """Factor ``nranks`` into a near-cubic ``dims``-dimensional process grid.

    Greedy prime-factor assignment to the currently smallest dimension,
    mirroring ``MPI_Dims_create`` behaviour closely enough for regular
    decomposition studies.
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    grid = [1] * dims
    n = nranks
    factors: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        grid[grid.index(min(grid))] *= f
    return tuple(sorted(grid, reverse=True))


def regular_decompose_3d(
    global_dims: tuple[int, int, int], nranks: int, rank: int
) -> tuple[Extent, tuple[int, int, int], tuple[int, int, int]]:
    """Block decomposition of a point grid of ``global_dims`` points.

    Returns ``(local_extent, proc_grid, proc_coord)`` for ``rank``.  The
    process grid is chosen with :func:`factor_ranks`; ranks are laid out in
    row-major (i fastest) order.
    """
    px, py, pz = factor_ranks(nranks, 3)
    if rank < 0 or rank >= nranks:
        raise ValueError(f"rank {rank} out of range for {nranks} ranks")
    cx = rank % px
    cy = (rank // px) % py
    cz = rank // (px * py)
    i0, i1 = block_decompose_1d(global_dims[0], px, cx)
    j0, j1 = block_decompose_1d(global_dims[1], py, cy)
    k0, k1 = block_decompose_1d(global_dims[2], pz, cz)
    ext = Extent(i0, i1 - 1, j0, j1 - 1, k0, k1 - 1)
    return ext, (px, py, pz), (cx, cy, cz)
