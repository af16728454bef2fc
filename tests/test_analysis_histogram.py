"""Tests for the parallel histogram analysis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import HistogramAnalysis, local_histogram, parallel_histogram
from repro.analysis.histogram import _BLOCK
from repro.core import Bridge
from repro.core.generic import SimulationDataAdaptor
from repro.data import Association, ImageData
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.util import Extent, MemoryTracker
from tests import _histogram_oracle as oracle


class TestLocalHistogram:
    def test_counts_uniform_values(self):
        values = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        counts = local_histogram(values, 4, 0.0, 1.0)
        assert counts.tolist() == [1, 1, 1, 2]  # vmax lands in last bin

    def test_empty_input(self):
        assert local_histogram(np.array([]), 4, 0.0, 1.0).tolist() == [0, 0, 0, 0]

    def test_degenerate_range_all_in_first_bin(self):
        counts = local_histogram(np.full(7, 3.3), 5, 3.3, 3.3)
        assert counts.tolist() == [7, 0, 0, 0, 0]

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            local_histogram(np.zeros(3), 0, 0, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=200),
        st.integers(1, 64),
    )
    def test_matches_numpy_histogram(self, values, bins):
        """Our bincount implementation agrees with np.histogram.

        Degenerate ranges (all values identical) use a different, documented
        convention (everything in bin 0) and are skipped here.
        """
        a = np.array(values)
        if a.min() == a.max():
            return
        counts = local_histogram(a, bins, float(a.min()), float(a.max()))
        expected, _ = np.histogram(a, bins=bins, range=(a.min(), a.max()))
        assert counts.tolist() == expected.tolist()


_BLOCK_SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]


class TestBlockedMatchesOracle:
    """Blocking splits the input and sums integer counts, and only values
    that may be off by one take the edge fix-up, so every count must equal
    the unblocked kernel's (``tests/_histogram_oracle.py``), which fixes up
    every value."""

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.one_of(
            st.sampled_from(_BLOCK_SIZES),
            st.builds(
                lambda k, r: k * _BLOCK + r,
                st.integers(0, 3),
                st.integers(0, _BLOCK - 1),
            ),
        ),
        bins=st.sampled_from([1, 2, 7, 64, 1000, 4096]),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float64, np.float32, np.int64]),
        strided=st.booleans(),
        on_edges=st.sampled_from(["no", "on", "ulp"]),
        vmin=st.sampled_from([-1.5, 1e6, -1e12]),
        nans=st.booleans(),
    )
    def test_counts_equal_oracle(
        self, size, bins, seed, dtype, strided, on_edges, vmin, nans
    ):
        """``vmin`` = -1e12 over a width of 4 makes ``|vmin| >> width``, where
        every value takes the fix-up; "ulp" puts values one ulp either side
        of an edge (``nextafter(edge, +-inf)``)."""
        rng = np.random.default_rng(seed)
        vmax = vmin + 4.0
        values = rng.uniform(vmin, vmax, size)
        if on_edges != "no" and size:
            # A third of the values sit on a bin edge, vmin and vmax
            # included, or one ulp off it: the fix-up path in every block.
            edges = np.linspace(vmin, vmax, bins + 1)
            values[::3] = edges[rng.integers(0, bins + 1, values[::3].size)]
            if on_edges == "ulp":
                values[::3] = np.nextafter(
                    values[::3], rng.choice([-np.inf, np.inf], values[::3].size)
                )
        values = values.astype(dtype)
        if nans and size and dtype is not np.int64:
            values[rng.integers(0, size, 1 + size // 100)] = np.nan
        if strided:
            spaced = np.zeros(2 * size, dtype=dtype)
            spaced[::2] = values
            values = spaced[::2]
            assert size < 2 or not values.flags.c_contiguous
        try:
            want = oracle.local_histogram(values, bins, vmin, vmax)
        except ValueError:
            # A value one ulp below vmin gets index -1, which bincount
            # refuses; the kernel must refuse it the same way.
            with pytest.raises(ValueError):
                local_histogram(values, bins, vmin, vmax)
            return
        got = local_histogram(values, bins, vmin, vmax)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert int(got.sum()) == size

    def test_every_value_fix_up_when_vmin_dwarfs_width(self, monkeypatch):
        """At ``|vmin| / width`` = 1e12 no value can be placed without the
        edge comparisons, so all of them go through the fix-up."""
        from repro.analysis import histogram

        seen = []
        real = histogram._fix_up
        monkeypatch.setattr(
            histogram, "_fix_up", lambda v, *a: seen.append(v.size) or real(v, *a)
        )
        values = 1e12 + np.random.default_rng(1).uniform(0, 1, 5000)
        got = local_histogram(values, 64, 1e12, 1e12 + 1)
        assert sum(seen) == values.size
        assert np.array_equal(got, oracle.local_histogram(values, 64, 1e12, 1e12 + 1))

    def test_interior_values_skip_the_fix_up(self, monkeypatch):
        """On a smooth float64 field only a sliver of values is close
        enough to an edge to need the comparisons."""
        from repro.analysis import histogram

        seen = []
        real = histogram._fix_up
        monkeypatch.setattr(
            histogram, "_fix_up", lambda v, *a: seen.append(v.size) or real(v, *a)
        )
        values = np.random.default_rng(2).standard_normal(200_000)
        lo, hi = float(values.min()), float(values.max())
        got = local_histogram(values, 64, lo, hi)
        assert sum(seen) < values.size // 1000
        assert np.array_equal(got, oracle.local_histogram(values, 64, lo, hi))

    @pytest.mark.parametrize("size", _BLOCK_SIZES + [3 * _BLOCK + 17])
    @pytest.mark.parametrize("bins", [1, 2, 7, 64, 1000])
    def test_degenerate_range_equals_oracle(self, size, bins):
        values = np.full(size, 0.75)
        got = local_histogram(values, bins, 0.75, 0.75)
        assert np.array_equal(got, oracle.local_histogram(values, bins, 0.75, 0.75))
        assert got[0] == size

    def test_non_contiguous_3d_block_equals_oracle(self):
        """A transposed 3-D block (Fortran order, the layout a strided
        extent view yields) bins like its flattened copy."""
        rng = np.random.default_rng(3)
        block = rng.standard_normal((40, 33, 61)).transpose(2, 0, 1)
        assert not block.flags.c_contiguous
        lo, hi = float(block.min()), float(block.max())
        got = local_histogram(block, 64, lo, hi)
        assert np.array_equal(got, oracle.local_histogram(block, 64, lo, hi))

    def test_peak_memory_is_bins_plus_one_block(self):
        """Sec. 3.3: "The only extra storage required is proportional to
        the number of bins."  On 2**21 doubles (16 MiB) the unblocked kernel
        peaks at 52 MiB of temporaries; the blocked one at the bins plus one
        block's worth, under 2 MiB."""
        values = np.random.default_rng(0).standard_normal(1 << 21)
        lo, hi = float(values.min()), float(values.max())
        tracemalloc.start()
        try:
            counts = local_histogram(values, 64, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == values.size
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestParallelHistogram:
    def test_matches_serial(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=4096)
        chunks = np.array_split(data, 4)

        def prog(comm):
            return parallel_histogram(comm, chunks[comm.rank], bins=32)

        out = run_spmd(4, prog)
        assert out[1] is None and out[2] is None
        h = out[0]
        expected, edges = np.histogram(data, bins=32, range=(data.min(), data.max()))
        assert h.counts.tolist() == expected.tolist()
        np.testing.assert_allclose(h.edges, edges)
        assert h.total == data.size
        assert h.vmin == pytest.approx(data.min())
        assert h.vmax == pytest.approx(data.max())

    def test_empty_rank_participates(self):
        data = [np.arange(10.0), np.array([]), np.arange(5.0)]

        def prog(comm):
            return parallel_histogram(comm, data[comm.rank], bins=4)

        h = run_spmd(3, prog)[0]
        assert h.total == 15
        assert h.vmin == 0.0 and h.vmax == 9.0

    def test_independent_of_decomposition(self):
        data = np.linspace(-3, 5, 1000)

        def prog_n(comm):
            chunks = np.array_split(data, comm.size)
            return parallel_histogram(comm, chunks[comm.rank], bins=16)

        counts = None
        for n in (1, 2, 5, 8):
            h = run_spmd(n, prog_n)[0]
            if counts is None:
                counts = h.counts
            assert np.array_equal(h.counts, counts)


class TestHistogramAnalysisAdaptor:
    def test_in_situ_histogram_over_miniapp(self):
        """End-to-end: miniapp -> SENSEI bridge -> histogram adaptor equals a
        direct recomputation on the assembled global field."""
        dims = (10, 8, 6)
        oscs = default_oscillators()

        def prog(comm):
            sim = OscillatorSimulation(comm, dims, oscs, dt=0.1)
            bridge = Bridge(comm, sim.make_data_adaptor())
            hist = HistogramAnalysis(bins=20)
            bridge.add_analysis(hist)
            bridge.initialize()
            sim.run(2, bridge)
            bridge.finalize()
            return sim.extent, sim.field.copy(), hist.history

        out = run_spmd(4, prog)
        # Rebuild the final global field and recompute the histogram.
        assembled = np.zeros(dims)
        for ext, block, _ in out:
            assembled[
                ext.i0 : ext.i1 + 1, ext.j0 : ext.j1 + 1, ext.k0 : ext.k1 + 1
            ] = block
        history = out[0][2]
        assert len(history) == 2
        final = history[-1]
        # NOTE: overlapping boundary points are counted once per owning rank
        # in this simple regular decomposition, exactly as in the paper's
        # miniapp (points are not deduplicated); compare against the same
        # per-rank accounting.
        total_points = sum(
            (e.i1 - e.i0 + 1) * (e.j1 - e.j0 + 1) * (e.k1 - e.k0 + 1)
            for e, _, _ in out
        )
        assert final.total == total_points
        assert final.vmin == pytest.approx(assembled.min())
        assert final.vmax == pytest.approx(assembled.max())

    def test_memory_is_bins_proportional(self):
        def prog(comm):
            mem = MemoryTracker()
            hist = HistogramAnalysis(bins=128)
            hist.set_instrumentation(None, mem)
            hist.initialize(comm)
            return mem.named("histogram::bins")

        assert run_spmd(1, prog)[0] == 128 * 8

    def test_ghost_values_excluded(self):
        from repro.data import GHOST_ARRAY_NAME

        def prog(comm):
            ext = Extent(0, 2, 0, 0, 0, 0)
            ad = SimulationDataAdaptor(comm, lambda: ImageData(ext, whole_extent=ext))
            values = np.array([1.0, 2.0, 999.0]).reshape(3, 1, 1)
            ghosts = np.array([0, 0, 1], dtype=np.uint8)
            ad.register_array(Association.POINT, "data", lambda: values)
            ad.register_array(
                Association.POINT, GHOST_ARRAY_NAME, lambda: ghosts
            )
            hist = HistogramAnalysis(bins=4)
            hist.initialize(comm)
            hist.execute(ad)
            return hist.history[-1]

        h = run_spmd(1, prog)[0]
        assert h.total == 2
        assert h.vmax == 2.0  # the ghost 999.0 is blanked

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            HistogramAnalysis(bins=0)
