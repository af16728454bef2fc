"""Ablation: flat-MPI vs hybrid MPI+threads analysis kernels.

The Nyx discussion (Sec. 4.2.3): "Typically Nyx simulations use 1-2 MPI
ranks per compute node and use OpenMP within a node.  For effective use in
simulations, in situ analysis must support hybrid MPI+OpenMP (or other
thread-based) execution models."  This ablation benchmarks the histogram
kernel flat vs thread-chunked, and asserts result equivalence is free.
"""

import os

import numpy as np

from repro.analysis.histogram import local_histogram
from repro.analysis.hybrid import local_histogram_threaded

N = 2_000_000
VALUES = np.random.default_rng(0).standard_normal(N)
VMIN, VMAX = float(VALUES.min()), float(VALUES.max())


def test_ablation_flat_histogram(benchmark):
    counts = benchmark(lambda: local_histogram(VALUES, 64, VMIN, VMAX))
    assert counts.sum() == N


def test_ablation_hybrid_histogram_2(benchmark):
    counts = benchmark(lambda: local_histogram_threaded(VALUES, 64, VMIN, VMAX, 2))
    assert counts.sum() == N


def test_ablation_hybrid_histogram_4(benchmark, report, best_of):
    counts = benchmark(lambda: local_histogram_threaded(VALUES, 64, VMIN, VMAX, 4))
    assert counts.sum() == N
    flat = local_histogram(VALUES, 64, VMIN, VMAX)
    assert np.array_equal(counts, flat)  # bit-identical results
    flat_ms = 1e3 * best_of(lambda: local_histogram(VALUES, 64, VMIN, VMAX), 20)
    rows = [f"flat kernel            {flat_ms:7.1f} ms (best of 20)"]
    for n in (2, 4):
        ms = 1e3 * best_of(
            lambda: local_histogram_threaded(VALUES, 64, VMIN, VMAX, n), 20
        )
        rows.append(f"{n} threads              {ms:7.1f} ms  x{flat_ms / ms:.2f} vs flat")
    report(
        "ablation_hybrid",
        "flat vs hybrid histogram kernel (2M values, 64 bins)",
        [
            *rows,
            f"host: {os.cpu_count()} CPU(s); the flat kernel bins in cache-sized"
            " blocks and fixes up only near-edge values, so threads gain only"
            " what spare cores add",
            "results are bit-identical at every thread count (integer counts commute)",
        ],
    )
