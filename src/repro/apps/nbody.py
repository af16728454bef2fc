"""Leapfrog particle-mesh N-body miniapp over a ragged particle population.

The missing workload family from the ROADMAP: every other app is
grid-shaped, while the paper's Nyx use case is fundamentally
particle-based, with per-rank payload sizes that vary step to step as
particles migrate between domain slabs.  This miniapp makes that shape a
first-class citizen:

- particle state lives in a :class:`~repro.data.ParticleSet` (ids,
  positions, velocities, masses) with a *variable* per-rank count --
  including legitimately zero;
- domain decomposition is by x-slab; migration after each drift moves
  departing particles over the point-to-point reliable transport
  (``comm.send``/``recv``), so outboxes are gatherv-style ragged ndarray
  payloads that ride the shared-memory path when large enough and inline
  pickling when tiny or empty;
- gravity is cloud-in-cell particle-mesh: masses deposit in *fixed-point
  int64* (exact, order-independent sums), one ``allreduce`` replicates
  the global density, and an FFT Poisson solve + CIC gather produce
  per-particle accelerations.  Because the deposit is exact-integer, the
  density grid -- and everything downstream of it, including particle
  trajectories -- is bit-identical across rank counts and SPMD backends.

The injected ``sim.step`` fault site sits *inside* migration, after the
ownership decision but before the first send of the step: a death there
leaves no torn communication, so checkpoint restore plus one re-issued
step replays particle ownership exactly while surviving peers simply
block until the recovered rank's sends arrive.

Everything but the initial conditions lives in
:class:`ParticleMeshSimulation`, which :mod:`repro.apps.nyx_proxy` runs on
as well.  Its Poisson solve is replicated because a slab-transposed FFT
batches its lines by decomposition and cannot promise the same bits at
every rank count.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.core.generic import SimulationDataAdaptor
from repro.data import Association, ImageData
from repro.data.particles import (
    DEPOSIT_SCALE,
    PARTICLE_ARRAYS,
    ParticleSet,
    cic_deposit_int,
    cic_gather,
)
from repro.mpi import SUM
from repro.util.decomp import Extent, slab_bounds
from repro.util.timers import TimerRegistry, timed

#: Point-to-point tag for migration payloads (outside the collective range).
TAG_MIGRATE = 77

#: Dyadic quantum for initial conditions: positions, velocities, and masses
#: start as exact multiples of ``1/IC_QUANT``, so conservation tests can
#: assert *exact* (not approximate) mass totals under any summation order.
IC_QUANT = 4096


def gravity_field(rho: np.ndarray, gravity: float) -> list[np.ndarray]:
    """Acceleration grids ``-grad(phi)`` of a periodic ``(g, g, g)`` mass grid.

    Solves ``laplacian(phi) = gravity * delta`` spectrally for the
    overdensity ``delta = rho / mean(rho) - 1`` and differentiates in
    k-space, one grid per axis -- what :func:`cic_gather` interpolates.
    """
    g = rho.shape[0]
    mean = rho.mean()
    delta = rho / mean - 1.0 if mean > 0 else rho
    fk = np.fft.rfftn(delta)
    kx = 2.0 * np.pi * np.fft.fftfreq(g, d=1.0 / g)
    kz = 2.0 * np.pi * np.fft.rfftfreq(g, d=1.0 / g)
    k2 = (
        kx[:, None, None] ** 2
        + kx[None, :, None] ** 2
        + kz[None, None, :] ** 2
    )
    k2[0, 0, 0] = 1.0  # zero mode: potential gauge, forced to 0
    phi_k = -gravity * fk / k2
    phi_k[0, 0, 0] = 0.0
    return [
        np.fft.irfftn(-1j * k * phi_k, s=(g, g, g), axes=(0, 1, 2))
        for k in (kx[:, None, None], kx[None, :, None], kz[None, None, :])
    ]


def wrap_periodic(pos: np.ndarray) -> None:
    """Wrap positions into ``[0, 1)`` in place."""
    pos %= 1.0
    # float64 wrap pitfall: (x % 1.0) rounds to exactly 1.0
    # for tiny negative x; clamp back into [0, 1).
    pos[pos >= 1.0] = 0.0


class ParticleMeshSimulation:
    """Slab ownership, migration and the leapfrog push over a ragged
    :class:`~repro.data.ParticleSet`.

    Subclasses generate their initial conditions *globally* on every rank
    from the seed and hand them to :meth:`_adopt`, which keeps the local
    slab's share, so the global population is identical for any rank
    count -- the precondition for the 1/2/4-rank equivalence battery.
    """

    #: Prefix of the subclass's timers and trace counters.
    namespace: str

    def __init__(
        self,
        comm,
        grid: int,
        dt: float,
        gravity: float,
        timers: TimerRegistry | None,
    ) -> None:
        if grid < comm.size:
            raise ValueError("need at least one x-plane of cells per rank")
        self.comm = comm
        self.grid = grid
        self.dt = float(dt)
        self.gravity = float(gravity)
        self.timers = timers if timers is not None else TimerRegistry()
        self.bounds = slab_bounds(grid, comm.size)
        self.x_lo, self.x_hi = self.bounds[comm.rank]
        #: Slab boundaries in position space; owner via searchsorted.
        self._edges = np.array(
            [lo / grid for lo, _ in self.bounds] + [1.0], dtype=np.float64
        )
        self.time = 0.0
        self.step = 0
        #: Cumulative particles sent away / received by this rank.
        self.migrated_out = 0
        self.migrated_in = 0

    def _adopt(self, pos: np.ndarray, vel: np.ndarray, mass: np.ndarray) -> None:
        """Keep this slab's share of the global initial population."""
        ids = np.arange(pos.shape[0], dtype=np.int64)
        mine = self._owner_ranks(pos[:, 0]) == self.comm.rank
        self.particles = ParticleSet(ids[mine], pos[mine], vel[mine], mass[mine])

    # -- ownership -------------------------------------------------------------
    def _owner_ranks(self, x: np.ndarray) -> np.ndarray:
        """Owning rank per x coordinate (slab decomposition)."""
        return np.searchsorted(self._edges, x, side="right") - 1

    def owned_extent(self) -> Extent:
        g = self.grid
        return Extent(self.x_lo, self.x_hi - 1, 0, g - 1, 0, g - 1)

    def whole_extent(self) -> Extent:
        g = self.grid
        return Extent(0, g - 1, 0, g - 1, 0, g - 1)

    # -- fault hook ------------------------------------------------------------
    def _consult_injector(self) -> None:
        inj = getattr(self.comm, "fault_injector", None)
        if inj is None:
            return
        action = inj.draw(
            "sim.step",
            self.comm._draw_rank(),
            step=self.step + 1,
            trace=self.timers.trace,
        )
        if action is None:
            return
        if action.kind == "die":
            from repro.faults.injector import InjectedRankDeath

            raise InjectedRankDeath(self.comm.rank, self.step + 1)
        if action.kind == "stall":
            _time.sleep(float(action.params.get("seconds", 0.002)))

    # -- migration -------------------------------------------------------------
    def _migrate(self) -> None:
        """Exchange particles that drifted out of the local slab.

        Outboxes are computed first (the ownership decision), then the
        fault site is consulted -- *before the first send* -- so an
        injected death leaves zero bytes on the wire for this step: after
        a checkpoint restore, re-running the step regenerates the exact
        same outboxes and the surviving ranks' blocked receives complete
        with the payloads they were always going to get.  Sends are
        buffered, so send-all-then-receive-all cannot deadlock, and a
        rank owning zero particles still sends its (empty) outboxes.
        """
        p = self.particles
        owner = self._owner_ranks(p.positions[:, 0])
        outboxes = {
            dest: p.select(owner == dest)
            for dest in range(self.comm.size)
            if dest != self.comm.rank
        }
        self._consult_injector()
        if self.comm.size == 1:
            return
        for dest in range(self.comm.size):
            if dest == self.comm.rank:
                continue
            out = outboxes[dest]
            self.comm.send(
                (out.ids, out.positions, out.velocities, out.masses),
                dest,
                tag=TAG_MIGRATE,
            )
        parts = [p.select(owner == self.comm.rank)]
        sent = sum(o.num_particles for o in outboxes.values())
        received = 0
        for src in range(self.comm.size):
            if src == self.comm.rank:
                continue
            ids, pos, vel, mass = self.comm.recv(src, tag=TAG_MIGRATE)
            parts.append(ParticleSet(ids, pos, vel, mass))
            received += parts[-1].num_particles
        self.particles = ParticleSet.concatenate(parts)
        self.migrated_out += sent
        self.migrated_in += received
        rec = self.timers.trace
        if rec is not None:
            rec.count(f"{self.namespace}::migrated_out", sent)
            rec.count(f"{self.namespace}::migrated_in", received)

    # -- time integration ------------------------------------------------------
    def _kick_drift(self, a: np.ndarray) -> None:
        """Leapfrog kick by accelerations ``a``, drift, periodic wrap."""
        p = self.particles
        p.velocities += a * self.dt
        pos = p.positions
        pos += p.velocities * self.dt
        wrap_periodic(pos)

    def advance(self) -> None:
        """One step; each app orders, names and times its own phases."""
        raise NotImplementedError

    def run(self, n_steps: int, bridge=None) -> None:
        """Advance up to ``n_steps``; stop early when an analysis asks to."""
        for _ in range(n_steps):
            self.advance()
            if bridge is not None and not bridge.execute(self.time, self.step):
                break


class NBodySimulation(ParticleMeshSimulation):
    """Leapfrog PM gravity from dyadic random initial conditions, at
    ``dt = 0.05`` and gravity strength 0.5."""

    namespace = "nbody"

    def __init__(
        self,
        comm,
        grid: int = 16,
        n_particles: int = 512,
        seed: int = 42,
        velocity_scale: float = 1.0 / 16,
        timers: TimerRegistry | None = None,
    ) -> None:
        super().__init__(comm, grid, 0.05, 0.5, timers)
        if n_particles < 1:
            raise ValueError("need at least one particle")

        with timed(self.timers, "nbody::init"):
            rng = np.random.Generator(np.random.PCG64(seed))
            q = rng.integers(0, IC_QUANT, size=(n_particles, 3))
            pos = q / IC_QUANT
            v = rng.integers(
                -IC_QUANT // 4, IC_QUANT // 4, size=(n_particles, 3)
            )
            vel = (v / IC_QUANT) * float(velocity_scale)
            mass = rng.integers(1, 17, size=n_particles) / 16.0
            self._adopt(pos, vel, mass)
            #: Replicated global density of the last completed deposit.
            self.density = np.zeros((grid, grid, grid), dtype=np.float64)

    @property
    def n_local(self) -> int:
        return self.particles.num_particles

    # -- gravity ---------------------------------------------------------------
    def _solve_gravity(self) -> np.ndarray:
        """Accelerations at local particle positions from the global grid.

        Deposit is exact int64 (order-independent), the allreduce
        replicates the global grid, and the FFT Poisson solve runs
        identically on every rank -- so ``self.density`` and the returned
        accelerations are bit-identical functions of the global
        population, independent of decomposition.
        """
        p = self.particles
        with timed(self.timers, "nbody::deposit"):
            local = cic_deposit_int(p.positions, p.masses, self.grid)
        with timed(self.timers, "nbody::reduce"):
            total = self.comm.allreduce(local, SUM)
        with timed(self.timers, "nbody::solve"):
            rho = total.astype(np.float64) / DEPOSIT_SCALE
            np.copyto(self.density, rho)
            acc = gravity_field(rho, self.gravity)
        with timed(self.timers, "nbody::gather"):
            return cic_gather(acc, p.positions)

    # -- time integration ------------------------------------------------------
    def advance(self) -> None:
        """One leapfrog step: migrate, deposit+solve, kick, drift.

        Migration runs *first* (and holds the fault site) so that a death
        recovery never has to replay a partially communicated step; see
        :meth:`ParticleMeshSimulation._migrate`.
        """
        rec = self.timers.trace
        if rec is not None:
            rec.set_step(self.step + 1)
        with timed(self.timers, "nbody::advance"):
            with timed(self.timers, "nbody::migrate"):
                self._migrate()
            a = self._solve_gravity()
            with timed(self.timers, "nbody::kick_drift"):
                self._kick_drift(a)
            self.time += self.dt
            self.step += 1

    # -- checkpoint/restart ----------------------------------------------------
    def snapshot(self) -> dict:
        """Value-semantics checkpoint, including exact particle ownership."""
        return {
            "time": self.time,
            "step": self.step,
            "particles": self.particles.copy(),
            "density": self.density.copy(),
            "migrated_out": self.migrated_out,
            "migrated_in": self.migrated_in,
        }

    def restore(self, snap: dict) -> None:
        self.time = snap["time"]
        self.step = snap["step"]
        self.particles = snap["particles"].copy()
        np.copyto(self.density, snap["density"])
        self.migrated_out = snap["migrated_out"]
        self.migrated_in = snap["migrated_in"]

    def make_data_adaptor(self) -> "NBodyDataAdaptor":
        return NBodyDataAdaptor(self)


class NBodyDataAdaptor(SimulationDataAdaptor):
    """SENSEI adaptor over the nbody state: grid mesh + ragged particles.

    Two kinds of data behind one adaptor:

    - the mesh is this rank's x-slab of the (replicated) density grid as
      an :class:`ImageData` -- the shape all four infrastructure
      endpoints (Catalyst slice, libsim session, ADIOS BP/FlexPath,
      GLEAN aggregation) already consume;
    - the ``position`` / ``velocity`` / ``mass`` / ``id`` point arrays
      are zero-copy views of the rank's *ragged* particle population,
      whose length has nothing to do with the mesh and varies per rank
      and per step.  Particle analyses fetch them by name; the
      sanitizer's write guard leases and fingerprints them like any
      other array.  Migration replaces the population every step, so each
      provider reads ``sim.particles`` when it is called.
    """

    #: Mesh-attached scalar the infrastructure endpoints render/ship.
    DENSITY = "density"

    def __init__(self, sim: NBodySimulation) -> None:
        h = 1.0 / sim.grid
        super().__init__(
            sim.comm,
            lambda: ImageData(
                sim.owned_extent(), spacing=(h, h, h), whole_extent=sim.whole_extent()
            ),
        )
        self.register_array(
            Association.POINT, self.DENSITY, lambda: sim.density[sim.x_lo : sim.x_hi]
        )
        for name in PARTICLE_ARRAYS:
            self.register_array(
                Association.POINT,
                name,
                lambda name=name: sim.particles.get_array(Association.POINT, name),
            )


#: The four infrastructure endpoints the harness can attach.
INFRASTRUCTURES = ("catalyst", "libsim", "adios", "glean")


def run_nbody(
    out_dir: str,
    ranks: int = 2,
    steps: int = 4,
    grid: int = 16,
    n_particles: int = 400,
    seed: int = 42,
    backend: str | None = None,
    infrastructures: tuple[str, ...] = INFRASTRUCTURES,
    sanitize: bool = True,
    trace=None,
) -> dict:
    """The nbody miniapp through the bridge with every requested endpoint.

    One SPMD world runs the simulation with the three particle analyses
    plus any of the four infrastructure endpoints, all behind a single
    (optionally sanitized) SENSEI bridge.  Returns a manifest of artifact
    checksums -- density-projection PNG CRCs, the final power spectrum,
    per-step halo counts, and the Catalyst/libsim image CRCs -- which is
    what the cross-backend / cross-rank-count equivalence tests compare,
    and writes it to ``out_dir/manifest.json``.
    """
    import json
    import os
    import zlib

    from repro.analysis.particles import (
        DensityProjectionAnalysis,
        FriendsOfFriendsAnalysis,
        PowerSpectrumAnalysis,
    )
    from repro.analysis.slice_ import SlicePlane
    from repro.core.bridge import Bridge
    from repro.mpi import run_spmd

    unknown = set(infrastructures) - set(INFRASTRUCTURES)
    if unknown:
        raise ValueError(f"unknown infrastructures: {sorted(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    session_path = os.path.join(out_dir, "libsim_session.json")
    if "libsim" in infrastructures:
        from repro.infrastructure.libsim import write_session_file

        write_session_file(
            session_path,
            [{"type": "pseudocolor_slice", "axis": 2, "index": grid // 2}],
            resolution=(200, 200),
        )

    def program(comm):
        timers = TimerRegistry()
        sim = NBodySimulation(
            comm,
            grid=grid,
            n_particles=n_particles,
            seed=seed,
            timers=timers,
        )
        bridge = Bridge(
            comm, sim.make_data_adaptor(), timers=timers, sanitize=sanitize
        )
        projection = DensityProjectionAnalysis(
            grid=grid, output_dir=out_dir
        )
        bridge.add_analysis(projection)
        bridge.add_analysis(
            PowerSpectrumAnalysis(grid=grid, output_dir=out_dir)
        )
        bridge.add_analysis(
            FriendsOfFriendsAnalysis(linking_length=0.06, output_dir=out_dir)
        )
        catalyst = None
        if "catalyst" in infrastructures:
            from repro.infrastructure.catalyst import CatalystAdaptor

            catalyst = CatalystAdaptor(
                plane=SlicePlane(2, grid // 2),
                array=NBodyDataAdaptor.DENSITY,
                resolution=(200, 200),
                output_dir=os.path.join(out_dir, "catalyst"),
            )
            bridge.add_analysis(catalyst)
        libsim = None
        if "libsim" in infrastructures:
            from repro.infrastructure.libsim import LibsimAdaptor

            libsim = LibsimAdaptor(
                session_path,
                array=NBodyDataAdaptor.DENSITY,
                output_dir=os.path.join(out_dir, "libsim"),
            )
            bridge.add_analysis(libsim)
        if "adios" in infrastructures:
            from repro.infrastructure.adios import AdiosBPAdaptor

            bridge.add_analysis(
                AdiosBPAdaptor(
                    os.path.join(out_dir, "steps.bp"),
                    array=NBodyDataAdaptor.DENSITY,
                )
            )
        if "glean" in infrastructures:
            from repro.infrastructure.glean import GleanAdaptor

            bridge.add_analysis(
                GleanAdaptor(
                    os.path.join(out_dir, "glean"),
                    array=NBodyDataAdaptor.DENSITY,
                    ranks_per_aggregator=2,
                )
            )
        bridge.initialize()
        sim.run(steps, bridge)
        results = bridge.finalize()
        out = {
            "rank": comm.rank,
            "n_local": sim.n_local,
            "migrated_out": sim.migrated_out,
            "migrated_in": sim.migrated_in,
            "results": results,
        }
        if catalyst is not None and catalyst.last_png is not None:
            out["catalyst_png_crc"] = zlib.crc32(catalyst.last_png)
        if libsim is not None and getattr(libsim, "last_png", None) is not None:
            out["libsim_png_crc"] = zlib.crc32(libsim.last_png)
        return out

    per_rank = run_spmd(ranks, program, backend=backend, trace=trace)
    root = per_rank[0]
    manifest = {
        "ranks": ranks,
        "steps": steps,
        "grid": grid,
        "n_particles": n_particles,
        "seed": seed,
        "infrastructures": sorted(infrastructures),
        "density_png_crcs": root["results"]["DensityProjectionAnalysis"][
            "png_crcs"
        ],
        "power_spectrum": root["results"]["PowerSpectrumAnalysis"]["power"][-1],
        "halo_counts": root["results"]["FriendsOfFriendsAnalysis"][
            "halo_counts"
        ],
        "halo_sizes": root["results"]["FriendsOfFriendsAnalysis"]["halo_sizes"][
            -1
        ],
        "migrated": sum(r["migrated_out"] for r in per_rank),
        "final_counts": [r["n_local"] for r in per_rank],
    }
    for key in ("catalyst_png_crc", "libsim_png_crc"):
        if key in root:
            manifest[key] = root[key]
    with open(
        os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
