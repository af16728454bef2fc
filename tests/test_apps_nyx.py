"""Tests for the Nyx proxy (lattice initial conditions over the shared
particle-mesh engine, ghost-blanked SENSEI exposure) and for the engine
pieces no n-body test holds directly: the Poisson solve, the one position
wrap and the one ``run`` loop."""

import functools

import numpy as np
import pytest

from repro.analysis import HistogramAnalysis
from repro.analysis.slice_ import SlicePlane
from repro.apps.nbody import NBodySimulation, gravity_field
from repro.apps.nyx_proxy import NyxSimulation
from repro.core import Bridge
from repro.core.adaptors import AnalysisAdaptor
from repro.data import Association, GHOST_ARRAY_NAME
from repro.data.particles import DEPOSIT_SCALE
from repro.infrastructure.catalyst import CatalystAdaptor
from repro.mpi import SUM, run_spmd
from repro.render import decode_png

#: Both simulations that run on the particle-mesh engine, for the tests of
#: what they share.
BOTH_SIMS = pytest.mark.parametrize(
    "make_sim",
    [
        lambda comm, **kw: NyxSimulation(comm, grid=8, **kw),
        lambda comm, **kw: NBodySimulation(comm, grid=8, n_particles=64, **kw),
    ],
    ids=["nyx", "nbody"],
)


def _owned_density(pieces):
    """Global density assembled from per-rank ``(x_lo, haloed slab)``."""
    return np.concatenate([d[1:-1] for _, d in sorted(pieces, key=lambda p: p[0])])


class TestDeposit:
    def test_mass_conserved(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=16, seed=1)
            sim.deposit()
            return sim.x_lo, sim.density.copy()

        # Owned (non-halo) mass, in overdensity units: the mean is 1 up to
        # the fixed-point rounding of 8 corner contributions per particle,
        # and that defect is the same double whatever the decomposition.
        means = [_owned_density(run_spmd(n, prog)).sum() / 16**3 for n in (1, 2, 4)]
        assert abs(means[0] - 1.0) <= 4 / DEPOSIT_SCALE
        assert means == [means[0]] * 3

    def test_parallel_density_matches_serial(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=5)
            sim.deposit()
            return sim.x_lo, sim.density.copy()

        serial = _owned_density(run_spmd(1, prog))
        for n in (2, 3):
            assert np.array_equal(_owned_density(run_spmd(n, prog)), serial)

    def test_uniform_lattice_gives_uniform_density(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=8, seed=0)
            # Undo the perturbation: particle id i started at lattice site i.
            p = sim.particles
            sites = np.stack(np.unravel_index(p.ids, (8, 8, 8)), axis=1)
            p.positions[:] = (sites + 0.5) / 8
            sim.deposit()
            d = sim.density[1:-1]
            return float(d.min()), float(d.max())

        dmin, dmax = run_spmd(2, prog)[0]
        assert dmin == pytest.approx(1.0, rel=1e-9)
        assert dmax == pytest.approx(1.0, rel=1e-9)


def _reference_potential(rho, gravity):
    """phi_k of laplacian(phi) = gravity * delta by a plain complex FFT."""
    g = rho.shape[0]
    delta = rho / rho.mean() - 1.0
    k = 2 * np.pi * np.fft.fftfreq(g, d=1.0 / g)
    kvec = (k[:, None, None], k[None, :, None], k[None, None, :])
    k2 = kvec[0] ** 2 + kvec[1] ** 2 + kvec[2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_k = np.where(k2 > 0, -gravity * np.fft.fftn(delta) / k2, 0.0)
    return delta, phi_k, kvec


def _nyx_density(grid, seed):
    """A deposited Nyx overdensity, band-limited below the Nyquist planes:
    the derivative of a Nyquist mode is a convention (the solve's
    half-spectrum ``irfftn`` and a full ``ifftn(...).real`` pick different
    ones), so the reference comparisons use a source without any."""

    def prog(comm):
        sim = NyxSimulation(comm, grid=grid, seed=seed)
        sim.deposit()
        return sim.density[1:-1].copy()

    fk = np.fft.fftn(run_spmd(1, prog)[0])
    if grid % 2 == 0:
        fk[grid // 2, :, :] = fk[:, grid // 2, :] = fk[:, :, grid // 2] = 0.0
    return np.fft.ifftn(fk).real


class TestPoisson:
    """The shared solve (``gravity_field``) against an independent
    ``np.fft.fftn`` reference."""

    def test_matches_serial_fft(self):
        """Accelerations equal -grad(phi) of a plain 3-D FFT solve."""
        for grid in (12, 9):
            rho = _nyx_density(grid, seed=7)
            _, phi_k, kvec = _reference_potential(rho, gravity=3.0)
            for a, k in zip(gravity_field(rho, 3.0), kvec):
                minus_grad_phi = np.fft.ifftn(-1j * k * phi_k).real
                assert np.abs(minus_grad_phi).max() > 1e-3
                np.testing.assert_allclose(a, minus_grad_phi, atol=1e-10)

    def test_poisson_residual_small(self):
        """div(a) = -gravity * (delta - mean delta), and the zero mode is
        exactly zero: a uniform grid exerts no force at all."""
        for grid in (16, 15):
            rho = _nyx_density(grid, seed=2)
            delta, _, kvec = _reference_potential(rho, gravity=2.0)
            acc = gravity_field(rho, 2.0)
            div = sum(
                np.fft.ifftn(1j * k * np.fft.fftn(a)).real
                for a, k in zip(acc, kvec)
            )
            np.testing.assert_allclose(
                div, -2.0 * (delta - delta.mean()), atol=1e-8
            )
        for a in gravity_field(np.full((8, 8, 8), 0.75), 2.0):
            assert np.array_equal(a, np.zeros((8, 8, 8)))


class TestDynamics:
    def test_particle_count_conserved_through_migration(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=3, gravity=6.0, dt=0.1)
            for _ in range(4):
                sim.advance()
            return (
                comm.allreduce(sim.positions.shape[0], SUM),
                sim.total_particles,
                comm.allreduce(sim.migrated_out, SUM),
            )

        got, expected, migrated = run_spmd(3, prog)[0]
        assert got == expected
        assert migrated > 0  # otherwise this test proves nothing

    def test_positions_stay_periodic(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=3, dt=0.2)
            for _ in range(5):
                sim.advance()
            return float(sim.positions.min()), float(sim.positions.max())

        lo, hi = run_spmd(2, prog)[0]
        assert lo >= 0.0 and hi < 1.0

    @BOTH_SIMS
    def test_tiny_negative_drift_wraps_into_the_box(self, make_sim):
        """``x % 1.0`` rounds to exactly 1.0 for a tiny negative ``x``; the
        one wrap clamps it, so the particle keeps an owner and is not lost."""

        def prog(comm):
            sim = make_sim(comm)
            sim.gravity, sim.dt = 0.0, 1.0
            p = sim.particles
            p.velocities[:] = 0.0
            if comm.rank == 0:
                p.positions[0, 0] = 0.0
                p.velocities[0, 0] = -1e-18
            before = comm.allreduce(p.num_particles, SUM)
            sim.run(2)
            x = sim.particles.positions[:, 0]
            owners = sim._owner_ranks(x)
            in_box = bool((x >= 0.0).all() and (x < 1.0).all())
            owned = bool((owners >= 0).all() and (owners < comm.size).all())
            return in_box, owned, comm.allreduce(x.shape[0], SUM) == before

        assert run_spmd(2, prog) == [(True, True, True)] * 2

    @BOTH_SIMS
    def test_run_honours_stop_request(self, make_sim):
        class StopAtStepTwo(AnalysisAdaptor):
            def execute(self, data):
                return data.get_data_time_step() < 2

        def prog(comm):
            sim = make_sim(comm)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(StopAtStepTwo())
            bridge.initialize()
            sim.run(5, bridge)
            bridge.finalize()
            return sim.step

        assert run_spmd(2, prog) == [2, 2]

    def test_gravity_clusters_overdensity(self):
        """Structure formation: density variance grows under self-gravity."""

        def prog(comm):
            sim = NyxSimulation(comm, grid=16, seed=9, gravity=6.0, dt=0.1)
            sim.deposit()
            v0 = float(np.var(sim.density[1:-1]))
            for _ in range(8):
                sim.advance()
            sim.deposit()
            return v0, float(np.var(sim.density[1:-1]))

        v0, v1 = run_spmd(1, prog)[0]
        assert v1 > v0

    def test_parallel_evolution_matches_serial(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=11)
            for _ in range(2):
                sim.advance()
            sim.deposit()
            return sim.x_lo, sim.density.copy()

        serial = _owned_density(run_spmd(1, prog))
        assert np.array_equal(_owned_density(run_spmd(3, prog)), serial)


def _insitu_run(comm):
    """Four steps (enough for particles to change slabs) through a sanitized
    bridge: slices along and across the decomposition axis, a histogram, and
    the haloed slab itself."""
    sim = NyxSimulation(comm, grid=16, seed=4, gravity=6.0, dt=0.1)
    bridge = Bridge(comm, sim.make_data_adaptor(), sanitize=True)
    slices = [
        CatalystAdaptor(
            plane=SlicePlane(axis=axis, index=8), array="density", resolution=(64, 64)
        )
        for axis in (2, 0)
    ]
    hist = HistogramAnalysis(bins=16, array="density")
    for analysis in (*slices, hist):
        bridge.add_analysis(analysis)
    bridge.initialize()
    sim.run(4, bridge)
    bridge.finalize()
    root = comm.rank == 0
    return {
        "slab": (sim.x_lo, sim.density.copy()),
        "migrated": sim.migrated_out,
        "pngs": [c.last_png for c in slices] if root else None,
        "counts": hist.history[-1].counts.tolist() if root else None,
    }


@functools.lru_cache(maxsize=None)
def _serial_insitu_run():
    return run_spmd(1, _insitu_run, backend="thread")[0]


@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
def test_parallel_insitu_equals_serial(ranks, spmd_backend):
    """The paper's "parallel image == serial image", byte for byte, on both
    backends, for even and uneven (3-rank) slabs."""
    serial = _serial_insitu_run()
    out = run_spmd(ranks, _insitu_run)
    assert ranks == 1 or sum(r["migrated"] for r in out) > 0
    assert out[0]["pngs"] == serial["pngs"]
    assert out[0]["counts"] == serial["counts"]
    density = _owned_density([r["slab"] for r in out])
    assert np.array_equal(density, _owned_density([serial["slab"]]))
    # A ghost plane holds what the neighbour it shadows owns.
    for x_lo, slab in (r["slab"] for r in out):
        assert np.array_equal(slab[0], density[(x_lo - 1) % 16])
        assert np.array_equal(slab[-1], density[(x_lo + slab.shape[0] - 2) % 16])


class TestNyxAdaptor:
    def test_density_view_zero_copy(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=1)
            sim.deposit()
            ad = sim.make_data_adaptor()
            arr = ad.get_array(Association.POINT, "density")
            return arr.is_zero_copy_of(sim.density)

        assert all(run_spmd(2, prog))

    def test_ghost_array_marks_halo_planes(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=1)
            ad = sim.make_data_adaptor()
            levels = ad.get_array(Association.POINT, GHOST_ARRAY_NAME).values
            ext = sim.ghosted_extent()
            lv = levels.reshape(ext.shape)
            owned_planes = (lv == 0).all(axis=(1, 2)).sum()
            ghost_planes = (lv == 1).all(axis=(1, 2)).sum()
            return owned_planes, ghost_planes, sim.nx_local

        for owned, ghost, nxl in run_spmd(3, prog):
            assert owned == nxl
            assert ghost in (1, 2)  # interior ranks have 2, edge ranks 1

    def test_histogram_excludes_ghosts(self):
        """In situ histogram over the ghosted slab counts each cell once."""

        def prog(comm):
            sim = NyxSimulation(comm, grid=12, seed=1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            hist = HistogramAnalysis(bins=16, array="density")
            bridge.add_analysis(hist)
            bridge.initialize()
            sim.run(1, bridge)
            bridge.finalize()
            return hist.history[-1] if comm.rank == 0 else None

        for n in (1, 2, 4):
            h = run_spmd(n, prog)[0]
            assert h.total == 12**3, f"{n} ranks counted ghosts"

    def test_catalyst_slice_over_nyx(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=16, seed=4, gravity=5.0)
            bridge = Bridge(comm, sim.make_data_adaptor())
            cat = CatalystAdaptor(
                plane=SlicePlane(axis=2, index=8),
                array="density",
                resolution=(48, 48),
            )
            bridge.add_analysis(cat)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return cat.last_png

        png = run_spmd(2, prog)[0]
        img = decode_png(png)
        assert img.shape == (48, 48, 3)
        assert img.std() > 1.0

    def test_unknown_array(self):
        def prog(comm):
            sim = NyxSimulation(comm, grid=8)
            ad = sim.make_data_adaptor()
            with pytest.raises(KeyError):
                ad.get_array(Association.POINT, "temperature")

        run_spmd(1, prog)

    def test_validation(self):
        from repro.mpi import SPMDError

        def prog(comm):
            NyxSimulation(comm, grid=2)

        with pytest.raises(SPMDError):
            run_spmd(4, prog)
