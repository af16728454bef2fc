"""Tests for the post hoc pipeline: write with N ranks, analyze with N/k
readers, and check the products agree with the in situ path.  The Catalyst
slice, and every analysis at 1-3 readers, is in tests/test_placements.py."""

import numpy as np
import pytest

from repro.analysis import AutocorrelationAnalysis, HistogramAnalysis
from repro.core import Bridge
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.posthoc import run_posthoc_analysis
from repro.storage import write_timestep
from repro.util import ConfigError

DIMS = (12, 10, 8)
STEPS = 3


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    """A 4-writer miniapp run with every step stored, plus the in situ
    histogram/autocorrelation products for comparison."""
    directory = tmp_path_factory.mktemp("sim_output")

    def writer(comm):
        sim = OscillatorSimulation(comm, DIMS, default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor())
        hist = HistogramAnalysis(bins=16)
        ac = AutocorrelationAnalysis(window=4, k=3)
        bridge.add_analysis(hist)
        bridge.add_analysis(ac)
        bridge.initialize()
        for _ in range(STEPS):
            sim.advance()
            bridge.execute(sim.time, sim.step)
            img = sim.make_data_adaptor().get_mesh()
            from repro.data import Association

            img.add_array(
                Association.POINT,
                sim.make_data_adaptor().get_array(Association.POINT, "data"),
            )
            write_timestep(comm, directory, sim.step, sim.time, img, "data")
        bridge.finalize()
        return hist.history, ac.result

    results = run_spmd(4, writer)
    return directory, results[0]


class TestPosthocHistogram:
    def test_matches_insitu(self, written_run):
        directory, (insitu_hist, _) = written_run

        def reader(comm):
            return run_posthoc_analysis(
                comm, directory, steps=[1, 2, 3], analysis="histogram", bins=16
            )

        # 1 reader vs the 4 writers (the few-readers pattern).
        res = run_spmd(1, reader)[0]
        assert len(res.histograms) == STEPS
        for mine, ref in zip(res.histograms, insitu_hist):
            assert np.array_equal(mine.counts, ref.counts)
            assert mine.vmin == pytest.approx(ref.vmin)
            assert mine.vmax == pytest.approx(ref.vmax)

    def test_reader_count_invariance(self, written_run):
        directory, (insitu_hist, _) = written_run

        def reader(comm):
            res = run_posthoc_analysis(
                comm, directory, steps=[3], analysis="histogram", bins=16
            )
            return res.histograms[0] if comm.rank == 0 else None

        h1 = run_spmd(1, reader)[0]
        h2 = run_spmd(2, reader)[0]
        assert np.array_equal(h1.counts, h2.counts)

    def test_timers_split(self, written_run):
        directory, _ = written_run

        def reader(comm):
            return run_posthoc_analysis(
                comm, directory, steps=[1, 2, 3], analysis="histogram"
            )

        res = run_spmd(2, reader)[0]
        assert res.read_time > 0
        assert res.process_time > 0


class TestPosthocAutocorrelation:
    def test_topk_values_match_insitu(self, written_run):
        directory, (_, insitu_ac) = written_run

        def reader(comm):
            res = run_posthoc_analysis(
                comm, directory, steps=[1, 2, 3], analysis="autocorrelation",
                window=4,
            )
            return res.results.get("AutocorrelationAnalysis")

        post = run_spmd(2, reader)[0]
        assert post is not None
        for d in range(STEPS):
            post_vals = [c for c, _ in post.top[d]]
            insitu_vals = [c for c, _ in insitu_ac.top[d]]
            assert post_vals == pytest.approx(insitu_vals)


class TestValidation:
    def test_unknown_analysis(self, written_run):
        directory, _ = written_run

        def reader(comm):
            with pytest.raises(ConfigError, match="unknown analysis type 'fourier'"):
                run_posthoc_analysis(comm, directory, [1], "fourier")

        run_spmd(1, reader)
