"""Tests for live connection + computational steering (the PHASTA loop)."""

import threading

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _thread_backend(monkeypatch):
    """Live steering is an in-memory, shared-address-space channel, so its
    tests always run on the thread backend; the process backend refuses a
    LiveConnection with a diagnostic (covered in
    test_mpi_process_backend.py)."""
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "thread")

from repro.apps.phasta_proxy import PhastaSimulation, PhastaSliceRender
from repro.core import Bridge, Frame, LiveConnection, SteeringAnalysis
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import SPMDError, run_spmd


class TestLiveConnection:
    def test_update_roundtrip(self):
        conn = LiveConnection()
        conn.submit_update(freq=4.0)
        conn.submit_update(amp=0.2, freq=8.0)
        assert conn.drain_updates() == [{"freq": 4.0}, {"amp": 0.2, "freq": 8.0}]
        assert conn.drain_updates() == []

    def test_empty_update_rejected(self):
        with pytest.raises(ValueError):
            LiveConnection().submit_update()

    def test_stop_request(self):
        conn = LiveConnection()
        assert not conn.stop_requested()
        conn.request_stop()
        assert conn.stop_requested()

    def test_frame_ring_buffer(self):
        conn = LiveConnection(max_frames=2)
        for s in range(5):
            conn.publish_frame(Frame(step=s, time=float(s), png=bytes([s])))
        assert conn.wait_for_frame(0, timeout=0).step == 4

    def test_wait_for_frame_timeout(self):
        conn = LiveConnection()
        assert conn.wait_for_frame(min_step=1, timeout=0.05) is None

    def test_wait_for_frame_cross_thread(self):
        conn = LiveConnection()

        def publisher():
            conn.publish_frame(Frame(step=3, time=0.3, png=b"x"))

        t = threading.Timer(0.02, publisher)
        t.start()
        frame = conn.wait_for_frame(min_step=2, timeout=5.0)
        t.join()
        assert frame is not None and frame.step == 3

    def test_metrics_accumulate(self):
        conn = LiveConnection()
        conn.publish_metric(1, 0.1, 5.0)
        conn.publish_metric(2, 0.2, 6.0)
        assert conn.metrics() == [(1, 0.1, 5.0), (2, 0.2, 6.0)]

    def test_invalid_max_frames(self):
        with pytest.raises(ValueError):
            LiveConnection(max_frames=0)


class TestSteeringAnalysis:
    def test_updates_applied_on_all_ranks(self):
        conn = LiveConnection()
        conn.submit_update(dt=0.5)

        def prog(comm):
            sim = OscillatorSimulation(comm, (6, 6, 6), default_oscillators())
            steering = SteeringAnalysis(
                conn, parameters={"dt": lambda v: setattr(sim, "dt", v)}
            )
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(steering)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return sim.dt

        # Every rank applies the same update at the same step.
        assert run_spmd(4, prog) == [0.5, 0.5, 0.5, 0.5]

    def test_unknown_parameter_raises(self):
        conn = LiveConnection()
        conn.submit_update(zeta=0.1)

        def prog(comm):
            sim = OscillatorSimulation(comm, (6, 6, 6), default_oscillators())
            steering = SteeringAnalysis(conn, parameters={"dt": lambda v: None})
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(steering)
            bridge.initialize()
            sim.run(1, bridge)

        with pytest.raises(SPMDError):
            run_spmd(2, prog)

    def test_stop_request_halts_simulation(self):
        conn = LiveConnection()
        conn.request_stop()

        def prog(comm):
            sim = OscillatorSimulation(comm, (6, 6, 6), default_oscillators())
            steering = SteeringAnalysis(conn, parameters={})
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(steering)
            bridge.initialize()
            sim.run(10, bridge)
            bridge.finalize()
            return sim.step

        # The bridge returns False on the first step; run() breaks.
        assert run_spmd(2, prog) == [1, 1]

    def test_metric_published(self):
        conn = LiveConnection()

        def prog(comm):
            sim = OscillatorSimulation(comm, (6, 6, 6), default_oscillators())
            from repro.data import Association

            steering = SteeringAnalysis(
                conn,
                parameters={},
                metric=lambda data: float(
                    data.get_array(Association.POINT, "data").values.max()
                ),
            )
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(steering)
            bridge.initialize()
            sim.run(3, bridge)
            bridge.finalize()

        run_spmd(2, prog)
        assert len(conn.metrics()) == 3

    def test_closed_loop_phasta_jet_tuning(self):
        """The Sec. 4.2.1 scenario end to end: a controller watches frames
        and a metric, then retunes the jet mid-run; the change takes effect
        and new imagery reflects it."""
        conn = LiveConnection()

        def prog(comm):
            sim = PhastaSimulation(comm, (8, 6, 6), jet_amplitude=0.0)
            slicer = PhastaSliceRender(resolution=(60, 16))
            steering = SteeringAnalysis(
                conn,
                parameters={
                    "jet_amplitude": lambda v: setattr(sim, "jet_amplitude", v)
                },
                metric=lambda data: float(np.abs(sim.vel_w).max()),
                frame_source=slicer,
            )
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(slicer)
            bridge.add_analysis(steering)
            bridge.initialize()
            for i in range(4):
                sim.advance()
                bridge.execute(sim.time, sim.step)
                if comm.rank == 0 and i == 1:
                    # "Engineer" reacts to the live imagery: crank the jet.
                    conn.submit_update(jet_amplitude=0.8)
            bridge.finalize()
            return sim.jet_amplitude, len(steering.applied)

        out = run_spmd(2, prog)
        assert all(amp == 0.8 for amp, _ in out)
        assert all(n == 1 for _, n in out)
        metrics = [v for _, _, v in conn.metrics()]
        # Jet off -> near-zero w; after the update, |w| jumps.
        assert metrics[-1] > metrics[0] * 5
        assert conn.wait_for_frame(0, timeout=0) is not None
