"""NBody miniapp: migration conservation, equivalence, adaptor contract.

The conservation battery asserts *exact* invariants (dyadic initial
conditions sum exactly; fixed-point deposits are order-independent), so
every comparison here is equality, not tolerance.
"""

import numpy as np
import pytest

from repro.apps.nbody import NBodyDataAdaptor, NBodySimulation
from repro.data import Association, PARTICLE_ARRAYS
from repro.mpi import run_spmd

pytestmark = pytest.mark.usefixtures("spmd_backend")


def _final_state(nranks, steps=4, grid=16, n=400, seed=42, **kw):
    """Global (state_tuple, mass, count, momentum, density bytes) tuple."""

    def prog(comm):
        sim = NBodySimulation(comm, grid=grid, n_particles=n, seed=seed, **kw)
        sim.run(steps)
        gathered = comm.allgather(
            (sim.particles.ids, sim.particles.positions,
             sim.particles.velocities, sim.particles.masses)
        )
        from repro.data import ParticleSet

        world = ParticleSet.concatenate(
            [ParticleSet(*part) for part in gathered]
        )
        return {
            "state": world.state_tuple(),
            "mass": world.total_mass(),
            "count": world.num_particles,
            "momentum": world.momentum().tobytes(),
            "density": sim.density.tobytes(),
            "migrated_out": sim.migrated_out,
        }

    return run_spmd(nranks, prog, timeout=90.0)


class TestConservation:
    def test_count_and_mass_exact_across_migration(self):
        results = _final_state(3, steps=5, velocity_scale=0.25)
        ref = results[0]
        assert ref["count"] == 400
        # Dyadic masses: the global sum is exact under any order.
        sim_mass = ref["mass"]
        for r in results:
            assert r["mass"] == sim_mass
            assert r["count"] == 400
        # Migration actually happened (otherwise this test proves nothing).
        assert sum(r["migrated_out"] for r in results) > 0

    def test_momentum_exact_when_forces_off(self):
        """gravity=0: pure drift + migration; total momentum must be
        bit-identical before and after."""

        def prog(comm):
            sim = NBodySimulation(comm, grid=16, n_particles=300, seed=9)
            sim.gravity = 0.0
            before = comm.allreduce(sim.particles.momentum())
            sim.run(5)
            after = comm.allreduce(sim.particles.momentum())
            return before.tobytes(), after.tobytes(), sim.migrated_out

        results = run_spmd(3, prog, timeout=90.0)
        for before, after, _ in results:
            assert before == after
        assert sum(r[2] for r in results) > 0

    def test_positions_stay_in_unit_box(self):
        def prog(comm):
            sim = NBodySimulation(
                comm, grid=8, n_particles=200, seed=5, velocity_scale=0.25
            )
            sim.run(6)
            p = sim.particles.positions
            return bool(np.all(p >= 0.0) and np.all(p < 1.0))

        assert all(run_spmd(2, prog, timeout=90.0))


class TestRankCountEquivalence:
    def test_global_state_bit_identical_1_2_4_ranks(self):
        states = {
            nr: _final_state(nr, steps=4)[0]["state"] for nr in (1, 2, 4)
        }
        assert states[1] == states[2] == states[4]

    def test_density_grid_bit_identical_across_ranks(self):
        grids = {
            nr: _final_state(nr, steps=3)[0]["density"] for nr in (1, 2, 4)
        }
        assert grids[1] == grids[2] == grids[4]


class TestEdgeCases:
    def test_zero_particle_ranks_do_not_deadlock(self):
        """2 particles over 4 slabs: at least two ranks own nothing, and
        the step loop (sends, receives, collectives) must still complete."""

        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=2, seed=1)
            sim.run(3)
            return sim.n_local

        counts = run_spmd(4, prog, timeout=90.0)
        assert sum(counts) == 2
        assert counts.count(0) >= 2

    def test_grid_must_cover_world(self):
        def prog(comm):
            with pytest.raises(ValueError):
                NBodySimulation(comm, grid=1, n_particles=4)
            return True

        assert all(run_spmd(2, prog, timeout=60.0))

    def test_owner_ranks_match_slabs(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=2)
            owners = sim._owner_ranks(sim.particles.positions[:, 0])
            return bool(np.all(owners == comm.rank))

        assert all(run_spmd(4, prog, timeout=60.0))

    def test_snapshot_restore_roundtrip_exact(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=100, seed=3)
            sim.run(2)
            snap = sim.snapshot()
            fp = sim.particles.fingerprint()
            sim.run(2)
            assert sim.particles.fingerprint() != fp or sim.n_local == 0
            sim.restore(snap)
            return (
                sim.step == snap["step"]
                and sim.particles.fingerprint() == fp
                and sim.density.tobytes() == snap["density"].tobytes()
            )

        assert all(run_spmd(2, prog, timeout=90.0))


class TestDataAdaptor:
    def test_density_view_is_zero_copy_slab(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=4)
            sim.advance()
            adaptor = sim.make_data_adaptor()
            arr = adaptor.get_array(Association.POINT, NBodyDataAdaptor.DENSITY)
            ok = arr.is_zero_copy and arr.is_zero_copy_of(sim.density)
            mesh = adaptor.get_mesh()
            x_cells = sim.x_hi - sim.x_lo
            return ok and arr.num_tuples == x_cells * 8 * 8 and mesh is not None

        assert all(run_spmd(2, prog, timeout=60.0))

    def test_particle_arrays_are_sim_storage(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=4)
            adaptor = sim.make_data_adaptor()
            pos = adaptor.get_array(Association.POINT, "position")
            return pos.is_zero_copy_of(sim.particles.positions)

        assert all(run_spmd(2, prog, timeout=60.0))

    def test_release_data_drops_stale_views(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=4)
            adaptor = sim.make_data_adaptor()
            sim.advance()
            before = adaptor.get_array(Association.POINT, "position")
            adaptor.release_data()
            sim.advance()  # migration may replace the arrays
            after = adaptor.get_array(Association.POINT, "position")
            return after.is_zero_copy_of(sim.particles.positions) and (
                before is not after
            )

        assert all(run_spmd(2, prog, timeout=60.0))

    def test_array_listing_and_unknown_name(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=16, seed=4)
            adaptor = sim.make_data_adaptor()
            n = adaptor.get_number_of_arrays(Association.POINT)
            names = [
                adaptor.get_array_name(Association.POINT, i) for i in range(n)
            ]
            assert names == ["density", *PARTICLE_ARRAYS]
            with pytest.raises(KeyError):
                adaptor.get_array(Association.POINT, "nope")
            with pytest.raises(KeyError):
                adaptor.get_array(Association.CELL, "density")
            return True

        assert all(run_spmd(1, prog, timeout=60.0))
