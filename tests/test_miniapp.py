"""Tests for the oscillator miniapplication."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.miniapp import Oscillator, OscillatorKind, OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.util import MemoryTracker, TimerRegistry


class TestOscillator:
    def test_periodic_signal(self):
        o = Oscillator(OscillatorKind.PERIODIC, (0, 0, 0), 0.1, 2 * math.pi)
        assert o.time_value(0.0) == pytest.approx(1.0)
        assert o.time_value(0.5) == pytest.approx(-1.0)
        assert o.time_value(1.0) == pytest.approx(1.0)

    def test_decaying_signal_monotone(self):
        o = Oscillator(OscillatorKind.DECAYING, (0, 0, 0), 0.1, 3.0)
        ts = [o.time_value(t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert ts[0] == pytest.approx(1.0)
        assert all(a > b > 0 for a, b in zip(ts, ts[1:]))

    def test_damped_envelope_decays(self):
        o = Oscillator(OscillatorKind.DAMPED, (0, 0, 0), 0.1, 2 * math.pi, 0.2)
        assert o.time_value(0.0) == pytest.approx(1.0)
        # After several periods the envelope must have shrunk.
        assert abs(o.time_value(5.0)) < 0.05

    def test_gaussian_peak_at_center(self):
        o = Oscillator(OscillatorKind.PERIODIC, (0.5, 0.5, 0.5), 0.1, 1.0)
        x = np.array([0.5, 0.6])
        g = o.gaussian(x, np.full_like(x, 0.5), np.full_like(x, 0.5))
        assert g[0] == pytest.approx(1.0)
        assert g[1] == pytest.approx(math.exp(-0.01 / 0.02))
        assert g[1] < g[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Oscillator(OscillatorKind.PERIODIC, (0, 0, 0), -1.0, 1.0)
        with pytest.raises(ValueError):
            Oscillator(OscillatorKind.PERIODIC, (0, 0, 0), 1.0, 0.0)
        with pytest.raises(ValueError):
            Oscillator(OscillatorKind.DAMPED, (0, 0, 0), 1.0, 1.0, 1.5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(0.05, 1.0), st.floats(0.5, 20.0))
    def test_signal_bounded_property(self, t, radius, omega):
        """All oscillator kinds produce |signal| <= ~1 for t >= 0."""
        for kind, zeta in (
            (OscillatorKind.PERIODIC, 0.0),
            (OscillatorKind.DECAYING, 0.0),
            (OscillatorKind.DAMPED, 0.3),
        ):
            o = Oscillator(kind, (0, 0, 0), radius, omega, zeta)
            assert abs(o.time_value(t)) <= 1.0 + 1e-9


class TestSimulation:
    def test_serial_matches_analytic_sum(self):
        oscs = default_oscillators()

        def prog(comm):
            sim = OscillatorSimulation(comm, (8, 8, 8), oscs, dt=0.05)
            sim.advance()
            return sim.field.copy(), sim.time

        field, t = run_spmd(1, prog)[0]
        # Independent evaluation at one grid point.
        i, j, k = 3, 4, 5
        h = 1.0 / 7
        x, y, z = i * h, j * h, k * h
        expected = sum(
            o.evaluate(np.array(x), np.array(y), np.array(z), t) for o in oscs
        )
        assert field[i, j, k] == pytest.approx(float(expected))

    def test_parallel_matches_serial(self):
        """Weak invariant behind every study: decomposition doesn't change
        the computed field."""
        oscs = default_oscillators()
        dims = (12, 10, 8)

        def serial(comm):
            sim = OscillatorSimulation(comm, dims, oscs, dt=0.1)
            sim.run(3)
            return sim.field.copy()

        reference = run_spmd(1, serial)[0]

        def parallel(comm):
            sim = OscillatorSimulation(comm, dims, oscs, dt=0.1)
            sim.run(3)
            return sim.extent, sim.field.copy()

        for nranks in (2, 4, 8):
            pieces = run_spmd(nranks, parallel)
            assembled = np.zeros(dims)
            for ext, block in pieces:
                assembled[
                    ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
                ] = block
            np.testing.assert_allclose(assembled, reference, rtol=1e-12)

    def test_memory_tracked(self):
        def prog(comm):
            mem = MemoryTracker()
            sim = OscillatorSimulation(
                comm, (8, 8, 8), default_oscillators(), memory=mem
            )
            return mem.named("miniapp::field"), sim.field.nbytes

        named, nbytes = run_spmd(1, prog)[0]
        assert named == nbytes

    def test_timers_record_phases(self):
        def prog(comm):
            timers = TimerRegistry()
            sim = OscillatorSimulation(
                comm, (6, 6, 6), default_oscillators(), timers=timers
            )
            sim.run(4)
            return (
                timers.timer("simulation::advance").count,
                timers.timer("simulation::initialize").count,
            )

        assert run_spmd(1, prog)[0] == (4, 1)

    def test_validation(self):
        def prog(comm):
            with pytest.raises(ValueError):
                OscillatorSimulation(comm, (4, 4, 4), [])
            with pytest.raises(ValueError):
                OscillatorSimulation(comm, (4, 4, 4), default_oscillators(), dt=0)

        run_spmd(1, prog)

    def test_data_adaptor_zero_copy(self):
        from repro.data import Association

        def prog(comm):
            sim = OscillatorSimulation(comm, (6, 6, 6), default_oscillators())
            ad = sim.make_data_adaptor()
            sim.advance()
            arr = ad.get_array(Association.POINT, "data")
            return arr.is_zero_copy_of(sim.field)

        assert run_spmd(2, prog) == [True, True]

