"""Tests for the AVF-LESLIE proxy (compressible TML solver + adaptor)."""

import numpy as np
import pytest

from repro.apps.avf_leslie_proxy import (
    AVFLeslieSimulation,
    _conserved_to_primitive,
    _primitive_to_conserved,
    mixing_layer_state,
)
from repro.core import Bridge
from repro.data import Association
from repro.infrastructure import LibsimAdaptor, write_session_file
from repro.mpi import run_spmd
from repro.render import decode_png


class TestMixingLayerState:
    def _coords(self, n=16):
        ax = (np.arange(n) + 0.5) / n
        return np.meshgrid(ax, ax, ax, indexing="ij")

    def test_double_shear_profile(self):
        x, y, z = self._coords()
        prim = mixing_layer_state(x, y, z, mach=0.4)
        # Fast stream between the layers, slow outside.
        u_mid = prim["u"][0, 8, 0]  # y ~ 0.53
        u_edge = prim["u"][0, 0, 0]  # y ~ 0.03
        assert u_mid > 0.3
        assert u_edge < -0.3

    def test_periodic_compatible(self):
        """u at y=0+ and y=1- match (periodic-box TML)."""
        x, y, z = self._coords(32)
        prim = mixing_layer_state(x, y, z)
        np.testing.assert_allclose(prim["u"][0, 0, 0], prim["u"][0, -1, 0], atol=0.01)

    def test_uniform_thermo(self):
        x, y, z = self._coords()
        prim = mixing_layer_state(x, y, z)
        assert np.allclose(prim["rho"], 1.0)
        assert np.allclose(prim["p"], prim["p"][0, 0, 0])

    def test_scalar_marks_fast_stream(self):
        x, y, z = self._coords()
        prim = mixing_layer_state(x, y, z)
        assert prim["scalar"].min() >= -0.01
        assert prim["scalar"].max() <= 1.01


class TestConservedPrimitiveRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        prim = {
            "rho": 0.5 + rng.random((4, 4, 4)),
            "u": rng.standard_normal((4, 4, 4)),
            "v": rng.standard_normal((4, 4, 4)),
            "w": rng.standard_normal((4, 4, 4)),
            "p": 0.5 + rng.random((4, 4, 4)),
            "scalar": rng.random((4, 4, 4)),
        }
        back = _conserved_to_primitive(_primitive_to_conserved(prim))
        for k in prim:
            np.testing.assert_allclose(back[k], prim[k], rtol=1e-12)


class TestSolver:
    def test_conservation_of_mass_energy(self):
        """Periodic box + conservative fluxes => global invariants hold."""

        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(16, 16, 8))
            owned = sim.q[:, 1:-1]
            before = (float(owned[0].sum()), float(owned[4].sum()))
            for _ in range(5):
                sim.advance()
            owned = sim.q[:, 1:-1]
            after = (float(owned[0].sum()), float(owned[4].sum()))
            from repro.mpi import SUM

            return (
                comm.allreduce(before[0], SUM),
                comm.allreduce(before[1], SUM),
                comm.allreduce(after[0], SUM),
                comm.allreduce(after[1], SUM),
            )

        m0, e0, m1, e1 = run_spmd(2, prog)[0]
        assert m1 == pytest.approx(m0, rel=1e-10)
        assert e1 == pytest.approx(e0, rel=1e-10)

    def test_parallel_matches_serial(self):
        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(12, 8, 4))
            for _ in range(3):
                sim.advance()
            return sim.x_lo, sim.x_hi, sim.q[:, 1:-1].copy()

        serial = run_spmd(1, prog)[0][2]
        for n in (2, 3):
            pieces = run_spmd(n, prog)
            assembled = np.concatenate([q for _, _, q in pieces], axis=1)
            np.testing.assert_allclose(assembled, serial, rtol=1e-10, atol=1e-13)

    def test_mixing_layer_thickens(self):
        """The scalar interface mixes: the fraction of partially mixed
        cells (0.1 < scalar < 0.9) grows as the layers interact."""

        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(16, 16, 8), mach=0.5)

            def mixed_fraction():
                prim = _conserved_to_primitive(sim.q[:, 1:-1])
                s = prim["scalar"]
                return float(((s > 0.1) & (s < 0.9)).mean())

            f0 = mixed_fraction()
            for _ in range(20):
                sim.advance()
            return f0, mixed_fraction()

        f0, f1 = run_spmd(1, prog)[0]
        assert f1 > f0

    def test_state_stays_physical(self):
        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(12, 12, 6), mach=0.3)
            for _ in range(10):
                sim.advance()
            prim = _conserved_to_primitive(sim.q[:, 1:-1])
            return float(prim["rho"].min()), float(prim["p"].min())

        rho_min, p_min = run_spmd(2, prog)[0]
        assert rho_min > 0
        assert p_min > 0

    def test_too_many_ranks_rejected(self):
        def prog(comm):
            with pytest.raises(ValueError):
                AVFLeslieSimulation(comm, global_dims=(2, 4, 4))

        run_spmd(4, prog)


class TestAVFAdaptor:
    def test_fields_exposed_without_ghosts(self):
        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(12, 8, 4))
            ad = sim.make_data_adaptor()
            sim.advance()
            rho = ad.get_array(Association.POINT, "rho")
            mesh = ad.get_mesh()
            return rho.num_tuples, mesh.num_points, sim.nx_local * 8 * 4

        for n_tuples, mesh_pts, expected in run_spmd(2, prog):
            assert n_tuples == expected  # halo planes removed
            assert mesh_pts == expected

    def test_vorticity_derived_lazily_once(self):
        """At most once per step, however often the adaptor re-maps."""

        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(8, 8, 4))
            ad = sim.make_data_adaptor()
            sim.advance()
            ad.get_array(Association.POINT, "rho")
            n0 = sim.vorticity_computations
            ad.get_array(Association.POINT, "vorticity")
            ad.get_array(Association.POINT, "vorticity")
            ad.release_data()
            ad.get_array(Association.POINT, "vorticity")
            n1 = sim.vorticity_computations
            sim.advance()
            ad.release_data()
            ad.get_array(Association.POINT, "vorticity")
            return n0, n1, sim.vorticity_computations

        assert run_spmd(1, prog)[0] == (0, 1, 2)

    def test_vorticity_nonzero_in_shear_layer(self):
        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(16, 16, 8))
            ad = sim.make_data_adaptor()
            sim.advance()
            vort = ad.get_array(Association.POINT, "vorticity")
            return float(vort.values.max())

        assert run_spmd(1, prog)[0] > 1.0

    def test_unknown_field_raises(self):
        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(8, 8, 4))
            ad = sim.make_data_adaptor()
            with pytest.raises(KeyError):
                ad.get_array(Association.POINT, "temperature")

        run_spmd(1, prog)

    def test_enumeration(self):
        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(8, 8, 4))
            ad = sim.make_data_adaptor()
            return ad.available_arrays(Association.POINT)

        assert run_spmd(1, prog)[0] == list(AVFLeslieSimulation.FIELDS)


class TestAVFWithLibsim:
    def test_avf_study_configuration(self, tmp_path):
        """The Sec. 4.2.2 setup: SENSEI every step, Libsim (3 isosurfaces +
        3 slices of vorticity) every 5th step; sawtooth timings."""
        session = tmp_path / "avf_session.json"
        write_session_file(
            session,
            [
                {"type": "isosurface", "isovalues": [1.0, 3.0, 6.0]},
                {"type": "pseudocolor_slice", "axis": 0, "index": 4},
                {"type": "pseudocolor_slice", "axis": 1, "index": 4},
                {"type": "pseudocolor_slice", "axis": 2, "index": 2},
            ],
            resolution=(64, 64),
        )

        def prog(comm):
            sim = AVFLeslieSimulation(comm, global_dims=(12, 12, 6))
            bridge = Bridge(comm, sim.make_data_adaptor(), timers=sim.timers)
            lib = LibsimAdaptor(
                session_file=session, array="vorticity", frequency=5
            )
            bridge.add_analysis(lib)
            bridge.initialize()
            sim.run(10, bridge)
            bridge.finalize()
            return (
                lib.images_written,
                sim.timers.timer("avf_insitu::analyze").count,
                lib.last_png,
            )

        out = run_spmd(2, prog)
        written, analyze_calls, png = out[0]
        assert written == 2
        assert analyze_calls == 10
        img = decode_png(png)
        assert img.shape == (64, 64, 3)
        assert img.std() > 1.0
