"""Tests for the in situ statistics analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import (
    Moments,
    StatisticsAnalysis,
    parallel_moments,
    quantiles_from_histogram,
)
from repro.core import Bridge
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd


class TestMoments:
    def test_from_values_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, 1000)
        m = Moments.from_values(x)
        assert m.count == 1000
        assert m.mean == pytest.approx(x.mean())
        assert m.variance == pytest.approx(x.var())
        assert m.vmin == x.min() and m.vmax == x.max()

    def test_empty(self):
        m = Moments.from_values(np.array([]))
        assert m.count == 0
        assert m.variance == 0.0
        assert m.skewness == 0.0

    def test_merge_with_empty_identity(self):
        x = Moments.from_values(np.arange(10.0))
        assert vars(x.merge(Moments())) == vars(x)
        assert vars(Moments().merge(x)) == vars(x)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=100),
        st.lists(st.floats(-100, 100), min_size=1, max_size=100),
    )
    def test_merge_equals_concatenation_property(self, a, b):
        """Chan merge == moments of the concatenated sample."""
        xa, xb = np.array(a), np.array(b)
        merged = Moments.from_values(xa).merge(Moments.from_values(xb))
        direct = Moments.from_values(np.concatenate([xa, xb]))
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean, abs=1e-9)
        assert merged.m2 == pytest.approx(direct.m2, rel=1e-9, abs=1e-6)
        assert merged.m3 == pytest.approx(direct.m3, rel=1e-6, abs=1e-3)

    def test_skewness_sign(self):
        right_skewed = Moments.from_values(np.array([0.0] * 50 + [10.0] * 5))
        left_skewed = Moments.from_values(np.array([0.0] * 5 + [10.0] * 50))
        assert right_skewed.skewness > 0
        assert left_skewed.skewness < 0


class TestParallelMoments:
    def test_matches_serial_and_identical_on_all_ranks(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=500)
        chunks = np.array_split(data, 4)

        def prog(comm):
            return parallel_moments(comm, chunks[comm.rank])

        out = run_spmd(4, prog)
        for m in out:
            assert m.count == 500
            assert m.mean == pytest.approx(data.mean())
            assert m.variance == pytest.approx(data.var())

    def test_empty_rank_participates(self):
        chunks = [np.arange(10.0), np.array([])]

        def prog(comm):
            return parallel_moments(comm, chunks[comm.rank])

        m = run_spmd(2, prog)[0]
        assert m.count == 10


class TestQuantiles:
    def test_uniform_histogram_quantiles(self):
        edges = np.linspace(0.0, 1.0, 11)
        counts = np.full(10, 100)
        qs = quantiles_from_histogram(edges, counts, [0.0, 0.5, 1.0])
        assert qs[0] == pytest.approx(0.0)
        assert qs[1] == pytest.approx(0.5)
        assert qs[2] == pytest.approx(1.0)

    def test_median_of_skewed_histogram(self):
        edges = np.array([0.0, 1.0, 2.0])
        counts = np.array([90, 10])
        (median,) = quantiles_from_histogram(edges, counts, [0.5])
        assert median == pytest.approx(0.5 / 0.9, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantiles_from_histogram(np.array([0, 1]), np.array([0]), [0.5])
        with pytest.raises(ValueError):
            quantiles_from_histogram(np.array([0, 1]), np.array([5]), [1.5])

    @settings(max_examples=30, deadline=None)
    @given(
        # Subnormal spreads give np.histogram a zero bin width (it raises).
        st.lists(st.floats(0, 1000, allow_subnormal=False), min_size=50, max_size=300),
        st.floats(0.05, 0.95),
    )
    def test_quantile_cdf_consistency_property(self, values, q):
        """The estimate's empirical CDF position is within one bin's mass
        of q -- the tightest guarantee a binned quantile can give (value
        error can exceed bins when mass piles up at one point)."""
        a = np.array(values)
        if a.min() == a.max():
            return
        counts, edges = np.histogram(a, bins=64)
        (est,) = quantiles_from_histogram(edges, counts, [q])
        n = a.size
        b = int(np.clip(np.searchsorted(edges, est, side="right") - 1, 0, 63))
        mass = counts[b] / n
        below = float((a < est).sum()) / n
        at_or_below = float((a <= est).sum()) / n
        assert below - mass - 1e-9 <= q <= at_or_below + mass + 1e-9


class TestStatisticsAnalysis:
    def test_in_situ_over_miniapp(self):
        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 10), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            stats = StatisticsAnalysis(quantiles=[0.5])
            bridge.add_analysis(stats)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return stats.history, sim.extent, sim.field.copy()

        out = run_spmd(4, prog)
        history = out[0][0]
        assert len(history) == 2
        # Rebuild the global field and cross-check.
        assembled = np.zeros((10, 10, 10))
        for _, ext, block in out:
            assembled[
                ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
            ] = block
        row = history[-1]
        assert row["count"] == 1000
        assert row["mean"] == pytest.approx(assembled.mean())
        assert row["std"] == pytest.approx(assembled.std(), rel=1e-9)
        assert row["min"] == pytest.approx(assembled.min())
        med_true = float(np.median(assembled))
        binwidth = (assembled.max() - assembled.min()) / 128
        assert abs(row["quantiles"][0.5] - med_true) <= 2 * binwidth

    def test_decomposition_invariance(self):
        def prog(comm):
            sim = OscillatorSimulation(comm, (8, 8, 8), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            stats = StatisticsAnalysis()
            bridge.add_analysis(stats)
            bridge.initialize()
            sim.run(1, bridge)
            bridge.finalize()
            return stats.history[0] if comm.rank == 0 else None

        a = run_spmd(1, prog)[0]
        b = run_spmd(4, prog)[0]
        assert a["count"] == b["count"]
        assert a["mean"] == pytest.approx(b["mean"], abs=1e-12)
        assert a["std"] == pytest.approx(b["std"], abs=1e-12)

    def test_configurable_registration(self):
        from repro.core import ConfigurableAnalysis
        from repro.util import Configuration

        ca = ConfigurableAnalysis(
            Configuration(
                {"analyses": [{"type": "statistics", "quantiles": [0.1, 0.9]}]}
            )
        )
        assert ca.analyses[0].quantiles == [0.1, 0.9]

    def test_validation(self):
        with pytest.raises(ValueError):
            StatisticsAnalysis(bins=0)
