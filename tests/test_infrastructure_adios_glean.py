"""Tests for the ADIOS (BP + FlexPath staging) and GLEAN emulations.

Parametrized over both execution backends (``spmd_backend``): BP subfile
writes, FlexPath staging rounds, GLEAN aggregation, and the rendered
Catalyst PNGs must come out identical whether ranks are threads or OS
processes.
"""

import threading

import numpy as np
import pytest


@pytest.fixture(scope="module", autouse=True)
def _backend(spmd_backend):
    """Run this whole module under each execution backend."""
    return spmd_backend

from repro.analysis import HistogramAnalysis
from repro.analysis.autocorrelation import AutocorrelationAnalysis
from repro.analysis.slice_ import SlicePlane
from repro.core import Bridge
from repro.infrastructure import GleanAdaptor
from repro.infrastructure.adios import (
    AdiosBPAdaptor,
    AdiosFlexPathWriter,
    endpoint_for_writer,
    run_flexpath_job,
    writers_for_endpoint,
)
from repro.infrastructure.catalyst import CatalystAdaptor
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.render import decode_png
from repro.storage import BPReader
from repro.trace import TraceSession
from tests._glean_reader import read_glean_step


class TestWriterEndpointMapping:
    def test_balanced_mapping(self):
        assert [endpoint_for_writer(w, 4, 2) for w in range(4)] == [0, 0, 1, 1]
        assert writers_for_endpoint(0, 4, 2) == [0, 1]
        assert writers_for_endpoint(1, 4, 2) == [2, 3]

    def test_uneven_mapping_covers_all(self):
        n_writers, n_endpoints = 5, 2
        assigned = [
            w
            for e in range(n_endpoints)
            for w in writers_for_endpoint(e, n_writers, n_endpoints)
        ]
        assert sorted(assigned) == list(range(n_writers))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            endpoint_for_writer(7, 4, 2)


class TestAdiosBP:
    def test_bp_mode_roundtrip(self, tmp_path):
        dims = (8, 6, 4)
        path = tmp_path / "sim"

        def prog(comm):
            sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(AdiosBPAdaptor(path))
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return sim.extent, sim.field.copy()

        out = run_spmd(4, prog)
        expected = np.zeros(dims)
        for ext, block in out:
            expected[
                ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
            ] = block
        reader = BPReader(path)
        assert reader.num_steps == 2
        np.testing.assert_allclose(reader.read("data", 1), expected, rtol=1e-12)


def _writer_program_factory(dims, steps):
    def writer_program(comm, writer):
        sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor())
        bridge.add_analysis(writer)
        bridge.initialize()
        sim.run(steps, bridge)
        bridge.finalize()
        return {
            "extent": sim.extent,
            "field": sim.field.copy(),
            "steps_sent": writer.steps_sent,
        }

    return writer_program


def _insitu_histograms(dims, steps):
    """The in situ reference: 4 ranks, a 16-bin histogram per step."""

    def insitu(comm):
        sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor())
        hist = HistogramAnalysis(bins=16)
        bridge.add_analysis(hist)
        bridge.initialize()
        sim.run(steps, bridge)
        bridge.finalize()
        return hist.history

    return run_spmd(4, insitu)[0]


class TestFlexPathStaging:
    def test_histogram_in_transit_matches_in_situ(self):
        """The staged histogram equals the histogram computed in situ."""
        dims = (10, 8, 6)
        steps = 2
        reference = _insitu_histograms(dims, steps)

        result = run_flexpath_job(
            n_writers=4,
            n_endpoints=2,
            writer_program=_writer_program_factory(dims, steps),
            analysis_factory=lambda comm: HistogramAnalysis(bins=16),
        )
        assert all(w["steps_sent"] == steps for w in result.writer_results)
        staged_history = result.endpoint_results[0]["result"]
        assert staged_history is not None
        assert len(staged_history) == steps
        for ref, staged in zip(reference, staged_history):
            assert np.array_equal(ref.counts, staged.counts)
            assert ref.vmin == pytest.approx(staged.vmin)
            assert ref.vmax == pytest.approx(staged.vmax)

    def test_writer_overwrites_field_after_execute(self):
        """The one staging copy is the transport's capture at ``send``: a
        simulation that overwrites its field as soon as the bridge returns
        must not change what the endpoint bins, and ``adios::bytes_copied``
        counts every shipped byte exactly once."""
        dims = (10, 8, 6)
        steps = 3
        reference = _insitu_histograms(dims, steps)

        def writer_program(comm, writer):
            sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(writer)
            bridge.initialize()
            for _ in range(steps):
                sim.advance()
                bridge.execute(sim.time, sim.step)
                # ``advance`` refills the field, so this clobbers only what
                # an uncaptured send would still be reading.
                sim.field.fill(1.0e9)
            bridge.finalize()
            return sim.field.nbytes

        session = TraceSession()
        result = run_flexpath_job(
            n_writers=4,
            n_endpoints=2,
            writer_program=writer_program,
            analysis_factory=lambda comm: HistogramAnalysis(bins=16),
            trace=session,
        )
        staged_history = result.endpoint_results[0]["result"]
        assert len(staged_history) == steps
        for ref, staged in zip(reference, staged_history):
            assert np.array_equal(ref.counts, staged.counts)
            assert ref.vmin == staged.vmin and ref.vmax == staged.vmax
        for rank, nbytes in enumerate(result.writer_results):
            copied = session.recorder(rank).total("adios::bytes_copied")
            assert copied == nbytes * steps

    def test_autocorrelation_in_transit(self):
        dims = (8, 8, 8)
        result = run_flexpath_job(
            n_writers=4,
            n_endpoints=2,
            writer_program=_writer_program_factory(dims, 6),
            analysis_factory=lambda comm: AutocorrelationAnalysis(window=3, k=2),
        )
        res = result.endpoint_results[0]["result"]
        assert res is not None
        assert res.window == 3
        assert all(len(t) == 2 for t in res.top)

    def test_catalyst_slice_in_transit_matches_in_situ(self):
        """Fig. 2's chain: simulation -> ADIOS -> Catalyst, image-identical
        to running Catalyst inline."""
        dims = (10, 10, 8)
        plane = SlicePlane(axis=2, index=4)

        def insitu(comm):
            sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            cat = CatalystAdaptor(plane=plane, resolution=(40, 32))
            bridge.add_analysis(cat)
            bridge.initialize()
            sim.run(1, bridge)
            bridge.finalize()
            return cat.last_png

        reference = decode_png(run_spmd(4, insitu)[0])

        result = run_flexpath_job(
            n_writers=4,
            n_endpoints=2,
            writer_program=_writer_program_factory(dims, 1),
            analysis_factory=lambda comm: CatalystAdaptor(
                plane=plane, resolution=(40, 32)
            ),
        )
        png = result.endpoint_results[0]["result"]
        # Endpoint group root holds the image.
        cat_result = png
        assert cat_result["images_written"] == 1

    def test_writer_timers_report_advance_and_analysis(self):
        dims = (8, 8, 8)

        def writer_program(comm, writer):
            from repro.util import TimerRegistry

            timers = TimerRegistry()
            sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
            bridge.add_analysis(writer)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return timers.as_dict()

        result = run_flexpath_job(
            n_writers=2,
            n_endpoints=1,
            writer_program=writer_program,
            analysis_factory=lambda comm: HistogramAnalysis(bins=8),
        )
        t = result.writer_results[0]
        assert t["adios::advance"]["count"] == 2
        assert t["adios::analysis"]["count"] == 2

    def test_endpoint_timers(self):
        result = run_flexpath_job(
            n_writers=2,
            n_endpoints=1,
            writer_program=_writer_program_factory((6, 6, 6), 3),
            analysis_factory=lambda comm: HistogramAnalysis(bins=8),
        )
        t = result.endpoint_results[0]["timers"]
        assert t["endpoint::initialize"]["count"] == 1
        assert t["endpoint::analysis"]["count"] == 3

    def test_failed_send_frees_staging_charge(self):
        """A send that raises must not leave ``adios::staging`` charged."""
        from repro.data import DataArray, ImageData
        from repro.mpi.communicator import MPIError
        from repro.util.decomp import Extent
        from repro.util.memory import MemoryTracker

        class DeadWorld:
            def send(self, payload, dest, tag):
                raise MPIError("endpoint gone")

        writer = AdiosFlexPathWriter(DeadWorld(), 0, n_writers=1, n_endpoints=1)
        memory = MemoryTracker()
        writer.set_instrumentation(None, memory)
        mesh = ImageData(Extent(0, 3, 0, 2, 0, 1))
        arr = DataArray.from_numpy("data", np.zeros(mesh.dims))
        with pytest.raises(MPIError):
            writer._ship(arr, mesh)
        assert memory.named("adios::staging") == 0
        assert memory.peak == arr.values.nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            run_flexpath_job(0, 1, lambda c, w: None, lambda c: None)
        with pytest.raises(ValueError):
            run_flexpath_job(2, 4, lambda c, w: None, lambda c: None)


class TestGlean:
    def _run(self, tmp_path, nranks, rpa, asynchronous=False, steps=2, dims=(8, 6, 4)):
        def prog(comm):
            sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            glean = GleanAdaptor(
                tmp_path, ranks_per_aggregator=rpa, asynchronous=asynchronous
            )
            bridge.add_analysis(glean)
            bridge.initialize()
            sim.run(steps, bridge)
            results = bridge.finalize()
            return sim.extent, sim.field.copy(), results

        return run_spmd(nranks, prog)

    def test_aggregated_write_roundtrip(self, tmp_path):
        out = self._run(tmp_path, 4, rpa=2)
        blocks = read_glean_step(tmp_path, 2)
        assert sorted(blocks) == [0, 1, 2, 3]
        for rank, (ext, data) in blocks.items():
            expected_ext, expected_field, _ = out[rank]
            assert ext == expected_ext
            np.testing.assert_array_equal(data, expected_field)

    def test_aggregator_count(self, tmp_path):
        self._run(tmp_path, 4, rpa=2, steps=1)
        import os

        files = [f for f in os.listdir(tmp_path) if f.startswith("glean_step")]
        assert len(files) == 2  # 4 ranks / 2 per aggregator

    def test_async_mode_equivalent(self, tmp_path):
        out = self._run(tmp_path, 4, rpa=4, asynchronous=True, steps=3)
        blocks = read_glean_step(tmp_path, 3)
        assert sorted(blocks) == [0, 1, 2, 3]
        for rank, (ext, data) in blocks.items():
            _, expected_field, _ = out[rank]
            np.testing.assert_array_equal(data, expected_field)

    @pytest.mark.parametrize("failing_step", [2, 3])
    def test_async_drain_failure_surfaces(self, tmp_path, failing_step):
        """A write that fails on the drain thread must fail the run -- from
        the next ``execute()`` (step 2 of 3) or from ``finalize()`` (the
        last step) -- not be reported as staged."""
        from repro.mpi import SPMDError

        class DiskFull(GleanAdaptor):
            def _write_aggregate(self, step, blocks):
                if step == failing_step:
                    raise OSError(28, "No space left on device")
                super()._write_aggregate(step, blocks)

        def prog(comm):
            sim = OscillatorSimulation(comm, (8, 6, 4), default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(
                DiskFull(tmp_path, ranks_per_aggregator=2, asynchronous=True)
            )
            bridge.initialize()
            sim.run(3, bridge)
            return bridge.finalize()

        with pytest.raises(SPMDError) as err:
            run_spmd(2, prog)
        assert "No space left on device" in str(err.value)
        assert sorted(err.value.failures) == [0]  # the aggregator

    def test_hung_drain_times_out_naming_the_step(self, tmp_path, monkeypatch):
        """A drain write that never returns fails the next ``execute()``
        within the bounded join, and the error names the drained step."""
        from repro.infrastructure import glean
        from repro.mpi import SPMDError

        monkeypatch.setattr(glean, "_DRAIN_TIMEOUT_S", 0.2)
        release = threading.Event()

        class StuckDisk(GleanAdaptor):
            def _write_aggregate(self, step, blocks):
                if step == 1:
                    release.wait(30.0)
                super()._write_aggregate(step, blocks)

        def prog(comm):
            sim = OscillatorSimulation(comm, (8, 6, 4), default_oscillators(), dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(StuckDisk(tmp_path, asynchronous=True))
            bridge.initialize()
            sim.run(3, bridge)
            return bridge.finalize()

        try:
            with pytest.raises(SPMDError) as err:
                run_spmd(1, prog)
        finally:
            release.set()
        assert "drain write of step 1 did not finish within 0.2 s" in str(err.value)

    def test_results_report_roles(self, tmp_path):
        out = self._run(tmp_path, 4, rpa=2, steps=1)
        roles = [o[2]["GleanAdaptor"]["aggregator"] for o in out]
        assert roles == [True, False, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            GleanAdaptor("x", ranks_per_aggregator=0)
