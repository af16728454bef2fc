"""Tests for the PHASTA proxy (unstructured mesh, zero-copy adaptor,
Catalyst-style slice render with the serial PNG path)."""

import numpy as np
import pytest

from repro.apps.phasta_proxy import (
    PhastaSimulation,
    PhastaSliceRender,
    build_rank_mesh,
    tail_flow,
)
from repro.core import Bridge
from repro.data import Association, CellType
from repro.mpi import run_spmd
from repro.render import decode_png
from repro.util import TimerRegistry


class TestMeshBuild:
    def test_serial_mesh_counts(self):
        def prog(comm):
            x, y, z, tets = build_rank_mesh(comm, (4, 3, 2))
            return x.size, tets.shape

        nodes, tshape = run_spmd(1, prog)[0]
        assert nodes == 5 * 4 * 3
        assert tshape == (4 * 3 * 2 * 6, 4)

    def test_parallel_element_total(self):
        """Tet count is conserved across decompositions."""

        def prog(comm):
            _, _, _, tets = build_rank_mesh(comm, (8, 4, 4))
            return tets.shape[0]

        assert sum(run_spmd(1, prog)) == 8 * 4 * 4 * 6
        assert sum(run_spmd(4, prog)) == 8 * 4 * 4 * 6

    def test_valid_connectivity(self):
        def prog(comm):
            x, y, z, tets = build_rank_mesh(comm, (4, 4, 4))
            assert tets.min() >= 0
            assert tets.max() < x.size
            return True

        assert all(run_spmd(2, prog))

    def test_tets_have_positive_volume(self):
        def prog(comm):
            x, y, z, tets = build_rank_mesh(comm, (3, 3, 3))
            pts = np.column_stack((x, y, z))
            p = pts[tets]
            vol = np.einsum(
                "ij,ij->i",
                np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                p[:, 3] - p[:, 0],
            ) / 6.0
            return float(np.abs(vol).sum()), float(np.abs(vol).min())

        total, vmin = run_spmd(1, prog)[0]
        assert vmin > 0
        assert total == pytest.approx(1.0)  # tets tile the unit cube

    def test_too_many_ranks_rejected(self):
        from repro.mpi import SPMDError

        def prog(comm):
            build_rank_mesh(comm, (2, 4, 4))

        with pytest.raises(SPMDError):
            run_spmd(4, prog)


class TestTailFlow:
    def test_free_stream_far_from_tail(self):
        u, v, w = tail_flow(np.array([0.0]), np.array([0.5]), np.array([0.5]), 0.1)
        assert u[0] == pytest.approx(1.0, abs=0.01)

    def test_blockage_at_tail(self):
        u, _, _ = tail_flow(np.array([0.45]), np.array([0.5]), np.array([0.5]), 0.1)
        assert u[0] < 0.2

    def test_jet_pulses_in_time(self):
        x = np.array([0.47])
        y = np.array([0.3])
        z = np.array([0.5])
        _, _, w1 = tail_flow(x, y, z, t=1.0 / 32.0, jet_freq=8.0)
        _, _, w2 = tail_flow(x, y, z, t=3.0 / 32.0, jet_freq=8.0)
        assert w1[0] * w2[0] < 0  # opposite phases of the jet cycle

    def test_amplitude_knob(self):
        x, y, z = np.array([0.47]), np.array([0.3]), np.array([0.5])
        _, _, small = tail_flow(x, y, z, 1.0 / 32.0, jet_amplitude=0.1)
        _, _, big = tail_flow(x, y, z, 1.0 / 32.0, jet_amplitude=0.8)
        assert abs(big[0]) > abs(small[0])


class TestPhastaSimulation:
    def test_advance_updates_fields(self):
        def prog(comm):
            sim = PhastaSimulation(comm, global_cells=(8, 4, 4))
            sim.advance()
            return float(np.abs(sim.vel_u).max()), sim.step

        vmax, step = run_spmd(2, prog)[0]
        assert vmax > 0.5
        assert step == 1



class TestPhastaAdaptor:
    def test_nodal_arrays_zero_copy(self):
        def prog(comm):
            sim = PhastaSimulation(comm, (6, 4, 4))
            sim.advance()
            ad = sim.make_data_adaptor()
            vel = ad.get_array(Association.POINT, "velocity")
            p = ad.get_array(Association.POINT, "pressure")
            return (
                bool(np.shares_memory(vel.component(0), sim.vel_u)),
                bool(np.shares_memory(vel.component(1), sim.vel_v)),
                bool(np.shares_memory(vel.component(2), sim.vel_w)),
                p.is_zero_copy_of(sim.pressure),
            )

        assert run_spmd(2, prog)[0] == (True, True, True, True)

    def test_connectivity_full_copy(self):
        """'the VTK grid connectivity is a full copy'"""

        def prog(comm):
            sim = PhastaSimulation(comm, (6, 4, 4))
            ad = sim.make_data_adaptor()
            mesh = ad.get_mesh()
            return bool(np.shares_memory(mesh.connectivity, sim.tets))

        assert run_spmd(1, prog)[0] is False

    def test_mesh_rebuilt_each_step(self):
        """'pointers ... are passed every time in situ is accessed'"""

        def prog(comm):
            sim = PhastaSimulation(comm, (6, 4, 4))
            ad = sim.make_data_adaptor()
            ad.get_mesh()
            ad.release_data()
            ad.get_mesh()
            return ad.mesh_constructions

        assert run_spmd(1, prog)[0] == 2

    def test_velocity_magnitude(self):
        def prog(comm):
            sim = PhastaSimulation(comm, (6, 4, 4))
            sim.advance()
            ad = sim.make_data_adaptor()
            vel = ad.get_array(Association.POINT, "velocity")
            mag = vel.magnitude()
            expected = np.sqrt(sim.vel_u**2 + sim.vel_v**2 + sim.vel_w**2)
            return np.allclose(mag, expected)

        assert run_spmd(1, prog)[0]


class TestPhastaSliceRender:
    def _run(self, nranks, steps=1, **kw):
        def prog(comm):
            timers = TimerRegistry()
            sim = PhastaSimulation(comm, (8, 6, 6))
            bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
            sl = PhastaSliceRender(resolution=kw.pop("resolution", (80, 20)), **kw)
            bridge.add_analysis(sl)
            bridge.initialize()
            sim.run(steps, bridge)
            bridge.finalize()
            return sl.last_png, sl.images_written, timers

        return run_spmd(nranks, prog)

    def test_image_produced(self):
        png, n, _ = self._run(1)[0]
        assert n == 1
        img = decode_png(png)
        assert img.shape == (20, 80, 3)
        assert img.std() > 1.0  # the tail wake is visible

    def test_parallel_image_close_to_serial(self):
        """Node splatting at block seams can differ by a pixel; images must
        agree almost everywhere."""
        serial = decode_png(self._run(1)[0][0]).astype(int)
        par = decode_png(self._run(2)[0][0]).astype(int)
        frac_same = (np.abs(serial - par).max(axis=2) == 0).mean()
        assert frac_same > 0.9

    def test_phase_timers(self):
        _, _, timers = self._run(1)[0]
        for phase in (
            "phasta_slice::extract",
            "phasta_slice::render",
            "phasta_slice::composite",
            "phasta_slice::png",
        ):
            assert timers.total(phase) >= 0
            assert timers.timer(phase).count == 1

    def test_compression_level_zero_smaller_time_bigger_file(self):
        """The Table 2 finding, natively: skipping compression shrinks
        encode time and grows the file."""
        png_c, _, _ = self._run(1, compression_level=6, resolution=(256, 128))[0]
        png_s, _, _ = self._run(1, compression_level=0, resolution=(256, 128))[0]
        assert len(png_s) > len(png_c)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            PhastaSliceRender(axis=5)

    def test_output_dir(self, tmp_path):
        self._run(1, steps=2, output_dir=str(tmp_path))
        assert len(list(tmp_path.glob("phasta_*.png"))) == 2
