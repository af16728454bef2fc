"""Ablation: flat-MPI vs hybrid MPI+threads analysis kernels.

The Nyx discussion (Sec. 4.2.3): "Typically Nyx simulations use 1-2 MPI
ranks per compute node and use OpenMP within a node.  For effective use in
simulations, in situ analysis must support hybrid MPI+OpenMP (or other
thread-based) execution models."  This ablation times the histogram
kernel flat vs thread-chunked, and asserts result equivalence is free.
"""

import os

import numpy as np

from repro.analysis.histogram import local_histogram
from repro.analysis.hybrid import local_histogram_threaded

N = 2_000_000
VALUES = np.random.default_rng(0).standard_normal(N)
VMIN, VMAX = float(VALUES.min()), float(VALUES.max())


def test_ablation_flat_vs_hybrid_histogram(best_of):
    """Bit-identical counts at 2 and 4 threads (integer counts commute);
    the times, best of 20, are printed.  The flat kernel bins in
    cache-sized blocks and fixes up only near-edge values, so threads gain
    only what spare cores add."""
    flat = local_histogram(VALUES, 64, VMIN, VMAX)
    assert flat.sum() == N
    flat_ms = 1e3 * best_of(lambda: local_histogram(VALUES, 64, VMIN, VMAX), 20)
    print(f"\nhost: {os.cpu_count()} CPU(s)\nflat kernel  {flat_ms:7.1f} ms")
    for n in (2, 4):
        assert np.array_equal(local_histogram_threaded(VALUES, 64, VMIN, VMAX, n), flat)
        ms = 1e3 * best_of(lambda: local_histogram_threaded(VALUES, 64, VMIN, VMAX, n), 20)
        print(f"{n} threads    {ms:7.1f} ms  x{flat_ms / ms:.2f} vs flat")
