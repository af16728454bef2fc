"""Tests for node-level thread parallelism and the hybrid histogram kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.histogram import local_histogram
from repro.analysis.hybrid import local_histogram_threaded
from repro.util.parallel import chunk_ranges, parallel_chunked, thread_map


class TestChunkRanges:
    def test_even(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_remainder(self):
        assert chunk_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        chunks = chunk_ranges(2, 8)
        assert chunks == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_ranges(0, 4) == [(0, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_partition_property(self, n, parts):
        chunks = chunk_ranges(n, parts)
        covered = sum(hi - lo for lo, hi in chunks)
        assert covered == n
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c


class TestThreadMap:
    def test_order_preserved(self):
        out = thread_map(lambda x: x * 2, list(range(20)), n_threads=4)
        assert out == [x * 2 for x in range(20)]

    def test_single_thread_path(self):
        assert thread_map(lambda x: x + 1, [1, 2], n_threads=1) == [2, 3]

    def test_exception_propagates(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("item 3")
            return x

        with pytest.raises(RuntimeError, match="item 3"):
            thread_map(boom, list(range(8)), n_threads=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            thread_map(lambda x: x, [1], n_threads=0)

    def test_parallel_chunked(self):
        acc = []
        import threading

        lock = threading.Lock()

        def work(lo, hi):
            with lock:
                acc.append((lo, hi))
            return hi - lo

        sizes = parallel_chunked(work, 100, 4)
        assert sum(sizes) == 100
        assert sorted(acc)[0][0] == 0


class TestHybridHistogram:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 500),
        st.integers(1, 32),
        st.integers(1, 6),
        st.integers(0, 100),
    )
    def test_threaded_equals_serial_property(self, n, bins, threads, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n)
        vmin, vmax = float(values.min()), float(values.max())
        serial = local_histogram(values, bins, vmin, vmax)
        threaded = local_histogram_threaded(values, bins, vmin, vmax, threads)
        assert np.array_equal(serial, threaded)
