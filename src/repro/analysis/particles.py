"""In situ analyses over ragged particle populations.

The three methods the ROADMAP names for the particle workload family,
each stressing a different reduction topology over variable-per-rank
data:

- :class:`DensityProjectionAnalysis` -- CIC mass deposit onto an axis
  projection plane, summed with an exact int64 ``allreduce`` and rendered
  through the same colormap + PNG encoder as the Catalyst/libsim slice
  path.  PNG bytes are identical across rank counts and SPMD backends.
- :class:`PowerSpectrumAnalysis` -- 3-D CIC deposit, int64 ``allreduce``,
  FFT of the (replicated, bit-identical) density contrast, radially
  binned ``P(k)``.
- :class:`FriendsOfFriendsAnalysis` -- ragged ``allgather`` of the global
  population, canonical id-order clustering on a periodic cell-linked
  grid with the pair search split across the ranks
  (:func:`friends_of_friends`), and an ``allgather`` of the halo count
  that doubles as a cross-rank divergence check.

All three consume ``position`` / ``mass`` / ``id`` attributes from any
data adaptor exposing a :class:`~repro.data.ParticleSet`-shaped
population; none mutates adaptor data, so they run unmodified under the
sanitizer's write guard.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.data import Association
from repro.data.particles import (
    DEPOSIT_SCALE,
    MASS,
    PARTICLE_ID,
    POSITION,
    cic_deposit_int,
    cic_deposit_int_2d,
)
from repro.core.configurable import register_analysis
from repro.mpi import SUM
from repro.render import VIRIDIS, encode_png
from repro.util.timers import timed


class ParticleAnalysisError(RuntimeError):
    """An analysis-level invariant broke (e.g. rank-divergent halo counts)."""


def _particle_inputs(data: DataAdaptor) -> tuple[np.ndarray, np.ndarray]:
    """(positions (n,3), masses (n,)) from the adaptor, possibly empty."""
    pos = data.get_array(Association.POINT, POSITION).as_aos()
    mass = data.get_array(Association.POINT, MASS).values
    return pos, mass


@register_analysis("density_projection")
def _make_density_projection(config) -> "DensityProjectionAnalysis":
    return DensityProjectionAnalysis(
        grid=config.get_int("grid", 32),
        axis=config.get_int("axis", 0),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class DensityProjectionAnalysis(AnalysisAdaptor):
    """Project particle mass along one axis and render it as a PNG.

    The projection plane is deposited in fixed-point int64 and summed
    with one ``allreduce``, so every rank holds the identical plane and
    the encoded PNG bytes are a pure function of the global particle
    population -- the property the 1/2/4-rank equivalence tests assert.
    """

    def __init__(
        self,
        grid: int = 32,
        axis: int = 0,
        output_dir: str | None = None,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if grid <= 0:
            raise ValueError("grid must be positive")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.grid = grid
        self.axis = axis
        self.output_dir = output_dir
        self.frequency = frequency
        self._comm = None
        #: PNG bytes of the most recent projection (every rank).
        self.last_png: bytes | None = None
        #: Per-executed-step CRC-32 of the PNG bytes, in step order.
        self.png_crcs: list[int] = []
        self.images_written = 0

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.output_dir is not None and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        pos, mass = _particle_inputs(data)
        with timed(self.timers, "density_projection::deposit"):
            local = cic_deposit_int_2d(pos, mass, self.grid, axis=self.axis)
        with timed(self.timers, "density_projection::reduce"):
            total = self._comm.allreduce(local, SUM)
        with timed(self.timers, "density_projection::render"):
            plane = total.astype(np.float64) / DEPOSIT_SCALE
            self.last_png = encode_png(VIRIDIS.map(plane))
        self.png_crcs.append(zlib.crc32(self.last_png))
        if self.output_dir is not None and self._comm.rank == 0:
            path = os.path.join(
                self.output_dir, f"density_proj_{step:06d}.png"
            )
            with open(path, "wb") as fh:
                fh.write(self.last_png)
            self.images_written += 1
        return True

    def finalize(self) -> dict:
        return {"steps": len(self.png_crcs), "png_crcs": list(self.png_crcs)}


@register_analysis("power_spectrum")
def _make_power_spectrum(config) -> "PowerSpectrumAnalysis":
    return PowerSpectrumAnalysis(
        grid=config.get_int("grid", 32),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class PowerSpectrumAnalysis(AnalysisAdaptor):
    """Radially binned density power spectrum ``P(k)``.

    Deposit (int64, exact) -> ``allreduce`` -> FFT of the density
    contrast on the replicated grid -> spherical-shell average over
    integer wavenumber bins.  Every rank computes the identical spectrum;
    the per-step spectra are kept and written as JSON at finalize.
    """

    def __init__(
        self,
        grid: int = 32,
        output_dir: str | None = None,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if grid <= 0:
            raise ValueError("grid must be positive")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.grid = grid
        self.output_dir = output_dir
        self.frequency = frequency
        self._comm = None
        self._bin_index: np.ndarray | None = None
        self._bin_counts: np.ndarray | None = None
        #: Per-executed-step spectra: list of (step, P(k) list).
        self.history: list[tuple[int, list[float]]] = []

    def initialize(self, comm) -> None:
        self._comm = comm
        g = self.grid
        kx = np.fft.fftfreq(g, d=1.0 / g)
        kz = np.fft.rfftfreq(g, d=1.0 / g)
        kmag = np.sqrt(
            kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
        )
        self._bin_index = np.floor(kmag).astype(np.int64).reshape(-1)
        self._bin_counts = np.bincount(
            self._bin_index, minlength=self.n_bins
        ).astype(np.float64)
        if self.output_dir is not None and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    @property
    def n_bins(self) -> int:
        # Nyquist shell: |k| runs to grid/2 per axis.
        return self.grid // 2 + 1

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        pos, mass = _particle_inputs(data)
        with timed(self.timers, "power_spectrum::deposit"):
            local = cic_deposit_int(pos, mass, self.grid)
        with timed(self.timers, "power_spectrum::reduce"):
            total = self._comm.allreduce(local, SUM)
        with timed(self.timers, "power_spectrum::fft"):
            rho = total.astype(np.float64) / DEPOSIT_SCALE
            mean = rho.mean()
            delta = rho / mean - 1.0 if mean > 0 else rho
            fk = np.fft.rfftn(delta)
            power = (fk.real**2 + fk.imag**2).reshape(-1)
            shell = np.bincount(
                self._bin_index, weights=power, minlength=self._bin_counts.size
            )
            spectrum = shell[: self.n_bins] / self._bin_counts[: self.n_bins]
        self.history.append((step, [float(v) for v in spectrum]))
        return True

    def finalize(self) -> dict:
        result = {
            "k": list(range(self.n_bins)),
            "steps": [s for s, _ in self.history],
            "power": [p for _, p in self.history],
        }
        if self.output_dir is not None and self._comm.rank == 0:
            path = os.path.join(self.output_dir, "power_spectrum.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
        return result


# -- friends-of-friends --------------------------------------------------------


#: Candidate pairs expanded per distance test.  A chunk holds this many
#: pairs plus at most one particle's neighbour list, so a population that
#: has collapsed into one cell degrades to blocked brute force, never to
#: an n-squared allocation.
_PAIR_CHUNK = 1 << 15

#: The particle's own cell, then the 13 lexicographically "forward"
#: neighbours: every unordered pair of adjacent cells is swept once.
_HALF_SHELL = np.array(
    [(0, 0, 0)]
    + [
        (dx, dy, dz)
        for dx in (0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) > (0, 0, 0)
    ]
)


def _require_linking_length(linking_length: float) -> float:
    """``linking_length`` as a float; NaN, infinities and <= 0 are refused
    (``nan <= 0`` is False, so a plain sign test lets NaN through)."""
    ll = float(linking_length)
    if not (np.isfinite(ll) and ll > 0):
        raise ValueError("linking_length must be finite and positive")
    return ll


def _cells_per_side(pos: np.ndarray, ll: float) -> int:
    """Cells per box side: edge >= every separation the link test accepts.

    The link test runs in floating point on the unwrapped coordinates,
    the binning on wrapped ones; ``reach`` pads the linking length by
    far more than both roundings (a few ulps of the largest coordinate)
    so two linked particles always land in adjacent cells.  The count is
    capped at O(n^(1/3)) -- a cell only has to be *at least* that wide --
    which keeps the cell table O(n) for any linking length.  Fewer than
    three cells would alias the half shell under the periodic wrap, so
    that case is one cell holding every pair.
    """
    reach = ll + 2.0**-40 * max(1.0, ll, float(np.abs(pos).max()))
    m = min(int(1.0 / reach), 2 * int(np.ceil(pos.shape[0] ** (1.0 / 3.0))))
    while m * reach > 1.0:
        m -= 1
    return m if m >= 3 else 1


def _shell_runs(cell: np.ndarray, starts: np.ndarray, m: int) -> list:
    """``(first, counts)`` per half-shell offset: particle ``p`` pairs with
    the run ``first[p] .. first[p] + counts[p]`` of the same order.

    ``cell`` holds the ``(n, 3)`` cell indices of the particles in
    cell-key order and ``starts[k]`` the position of cell ``k``'s first
    particle in that order.  In its own cell a particle pairs only with
    the members after it, so every unordered pair is counted once.
    """
    n = cell.shape[0]
    # Each axis's wrapped neighbour coordinate at steps -1, 0, +1, already
    # scaled to its digit of the cell key: a neighbour's key is three adds.
    wrap = np.arange(-1, m + 1) % m  # wrap[c + 1 + step] for step -1, 0, 1
    digits = []
    for axis in range(3):
        column, scale = cell[:, axis], m ** (2 - axis)
        digits.append([(wrap[s : s + m] * scale)[column] for s in range(3)])
    runs = []
    for offset in _HALF_SHELL if m > 1 else _HALF_SHELL[:1]:
        dx, dy, dz = offset + 1
        near_key = digits[0][dx] + digits[1][dy] + digits[2][dz]
        first = starts[near_key] if offset.any() else np.arange(1, n + 1)
        runs.append((first, starts[near_key + 1] - first))
    return runs


def _share_bounds(weight: np.ndarray, size: int) -> np.ndarray:
    """Cuts ``b`` so that ``b[r]:b[r + 1]`` of the cell-key order holds
    about ``1/size`` of the candidate pairs.

    ``weight[p]`` is particle ``p``'s exact pair count.  A particle goes
    to the share its pair range's midpoint falls in; everything here is
    integer arithmetic, so every rank cuts identically.
    """
    ends = np.cumsum(weight)
    mid2 = (2 * ends - weight) * size  # 2 * size * midpoint, non-decreasing
    targets = 2 * int(ends[-1]) * np.arange(1, size)
    return np.concatenate(([0], np.searchsorted(mid2, targets), [weight.size]))


def _candidate_pairs(runs: list, lo: int, hi: int):
    """Yield ``(i, j)`` chunks of the candidate pairs whose first particle
    lies in ``lo:hi`` of the cell-key order (``runs`` from
    :func:`_shell_runs`); ``i`` and ``j`` index that order.  Each unordered
    pair comes out once, at most ``_PAIR_CHUNK + n`` at a time."""
    if lo == hi:
        return
    for first, counts in runs:
        first, counts = first[lo:hi], counts[lo:hi]
        ends = np.cumsum(counts)
        begins = ends - counts
        cuts = np.searchsorted(
            begins, np.arange(0, ends[-1] + _PAIR_CHUNK, _PAIR_CHUNK)
        )
        for p0, p1 in zip(cuts[:-1], cuts[1:]):
            if p0 == p1:
                continue
            reps = counts[p0:p1]
            i = np.repeat(np.arange(lo + p0, lo + p1), reps)
            j = np.arange(begins[p0], ends[p1 - 1]) - np.repeat(
                begins[p0:p1] - first[p0:p1], reps
            )
            yield i, j


def _union(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components joined by links ``a[k]--b[k]`` into ``labels``.

    ``labels`` is a flat forest (``labels[labels] == labels``) with
    ``labels[x] <= x``; each round hooks the larger root of every still
    active link under the smallest root it touches, then pointer-jumps
    back to a flat forest.  Both invariants survive, so the fixed point
    labels every component with its smallest member.
    """
    while True:
        la, lb = labels[a], labels[b]
        active = la != lb
        if not active.any():
            return
        a, b, la, lb = a[active], b[active], la[active], lb[active]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            roots = labels[labels]
            if np.array_equal(roots, labels):
                break
            labels[:] = roots


def _link_share(
    pos: np.ndarray, ll: float, forest: np.ndarray, rank: int, size: int
) -> int:
    """Union into ``forest`` the links of share ``rank`` of ``size``;
    returns how many candidate pairs the share distance-tested."""
    n = pos.shape[0]
    m = _cells_per_side(pos, ll)
    wrapped = pos - np.floor(pos)  # in [0, 1]: -1e-20 wraps to exactly 1.0
    cell = np.minimum((wrapped * m).astype(np.int64), m - 1)
    key = (cell[:, 0] * m + cell[:, 1]) * m + cell[:, 2]
    order = np.argsort(key, kind="stable")
    starts = np.searchsorted(key[order], np.arange(m**3 + 1))
    runs = _shell_runs(cell[order], starts, m)
    weight = np.zeros(n, dtype=np.int64)
    for _, counts in runs:
        weight += counts
    bounds = _share_bounds(weight, size)
    columns = np.ascontiguousarray(pos[order].T)
    ll2 = ll**2
    tested = 0
    for i, j in _candidate_pairs(runs, bounds[rank], bounds[rank + 1]):
        d2 = np.zeros(i.size)
        for x in columns:  # (x^2 + y^2) + z^2, the order ``sum`` adds in
            d = x[i] - x[j]
            d -= np.rint(d)  # minimum image on the periodic unit box
            d *= d
            d2 += d
        close = d2 <= ll2
        _union(forest, order[i[close]], order[j[close]])
        tested += i.size
    return tested


def friends_of_friends(
    positions: np.ndarray, linking_length: float, comm=None
) -> np.ndarray:
    """Periodic friends-of-friends labels over a unit box.

    Particles closer than ``linking_length`` (minimum-image metric) are
    linked; connected components are halos.  Returns an ``(n,)`` int64
    label array where each particle's label is the smallest input index
    in its halo -- a canonical labeling, so the result is independent of
    traversal order.  Candidates come from a periodic cell-linked grid
    (cells at least a linking length wide, particles sorted by cell, the
    14-cell half shell expanded into index pairs in bounded chunks); the
    exact distance test decides the links and a vectorised min-label
    union merges them.  Work is O(n + candidate pairs), memory O(n).

    With a communicator, every rank passes the same ``positions`` and the
    pair search is split: rank ``r`` tests only the candidate pairs whose
    first particle lies in share ``r``, a contiguous run of the cell-key
    order cut to hold about ``1/size`` of the exact pair count.  Each rank
    unions its own links into a partial min-label forest; one
    ``allgather`` of the forests follows, and merging them in rank order
    gives every rank the canonical labels.  ``comm=None`` is one share.
    Each rank adds the pairs it tested to the ``fof::pairs`` trace
    counter.
    """
    ll = _require_linking_length(linking_length)
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    n = pos.shape[0]
    rank, size = (0, 1) if comm is None else (comm.rank, comm.size)
    forest = np.arange(n, dtype=np.int64)
    tested = _link_share(pos, ll, forest, rank, size) if n >= 2 else 0
    rec = comm.trace_recorder if comm is not None else None
    if rec is not None:
        rec.count("fof::pairs", tested)
    forests = [forest] if comm is None else comm.allgather(forest)
    index = np.arange(n, dtype=np.int64)
    labels = index.copy()
    for links in forests:
        _union(labels, index, links)
    return labels


def halo_sizes(labels: np.ndarray, min_members: int = 2) -> list[int]:
    """Halo populations (descending) with at least ``min_members``."""
    if labels.size == 0:
        return []
    counts = np.bincount(labels)
    sizes = counts[counts >= min_members]
    return sorted((int(s) for s in sizes), reverse=True)


@register_analysis("fof")
def _make_fof(config) -> "FriendsOfFriendsAnalysis":
    return FriendsOfFriendsAnalysis(
        linking_length=config.get_float("linking_length", 0.05),
        min_members=config.get_int("min_members", 2),
        output_dir=config.get("output_dir"),
        frequency=config.get_int("frequency", 1),
    )


class FriendsOfFriendsAnalysis(AnalysisAdaptor):
    """Friends-of-friends halo finder over the gathered global population.

    The per-rank populations are ragged (and may be empty); an
    ``allgather`` assembles the global set, a stable sort by persistent
    particle id imposes the canonical order, and the min-index labels of
    :func:`friends_of_friends` (cell-linked grid, O(n + candidate pairs))
    are decomposition-independent by construction.  The communicator is
    passed on, so each rank tests only its share of the candidate pairs
    and one ``allgather`` merges the shares.  The halo *count* is then
    allgathered -- a cheap cross-rank agreement check that turns any
    divergence into an immediate error instead of silently inconsistent
    artifacts.  A step enters three collectives at every rank count.
    """

    def __init__(
        self,
        linking_length: float = 0.05,
        min_members: int = 2,
        output_dir: str | None = None,
        frequency: int = 1,
    ) -> None:
        super().__init__()
        if min_members < 1:
            raise ValueError("min_members must be >= 1")
        _require_linking_length(linking_length)
        self.linking_length = linking_length
        self.min_members = min_members
        self.output_dir = output_dir
        self.frequency = frequency
        self._comm = None
        #: Per-executed-step (step, halo_count, sizes descending).
        self.history: list[tuple[int, int, list[int]]] = []

    def initialize(self, comm) -> None:
        self._comm = comm
        if self.output_dir is not None and comm.rank == 0:
            os.makedirs(self.output_dir, exist_ok=True)

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        if step % self.frequency != 0:
            return True
        pos = data.get_array(Association.POINT, POSITION).as_aos()
        ids = data.get_array(Association.POINT, PARTICLE_ID).values
        with timed(self.timers, "fof::gather"):
            # Ragged gather: each rank contributes its own (possibly
            # zero-length) block; payload sizes differ per rank.
            parts = self._comm.allgather(
                (np.ascontiguousarray(ids), np.ascontiguousarray(pos))
            )
        with timed(self.timers, "fof::cluster"):
            all_ids = np.concatenate([p[0] for p in parts])
            all_pos = np.concatenate([p[1] for p in parts])
            bad = int((~np.isfinite(all_pos)).any(axis=1).sum())
            if bad:
                # Every rank holds the same gathered set, so every rank
                # raises: no rank is left waiting in the reduction below.
                raise ParticleAnalysisError(
                    f"{bad} particle(s) with a non-finite position at "
                    f"step {step}"
                )
            order = np.argsort(all_ids, kind="stable")
            labels = friends_of_friends(
                all_pos[order], self.linking_length, self._comm
            )
            sizes = halo_sizes(labels, self.min_members)
        count = len(sizes)
        with timed(self.timers, "fof::reduce"):
            counts = self._comm.allgather(count)
        if min(counts) != max(counts):
            raise ParticleAnalysisError(
                f"rank-divergent halo counts at step {step}: {counts}"
            )
        self.history.append((step, count, sizes))
        return True

    def finalize(self) -> dict:
        result = {
            "steps": [s for s, _, _ in self.history],
            "halo_counts": [c for _, c, _ in self.history],
            "halo_sizes": [sz for _, _, sz in self.history],
            "linking_length": self.linking_length,
            "min_members": self.min_members,
        }
        if self.output_dir is not None and self._comm.rank == 0:
            path = os.path.join(self.output_dir, "halos.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
        return result
