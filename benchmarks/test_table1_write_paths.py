"""Table 1: one-step write cost, multi-file VTK I/O vs collective MPI-IO.

Paper values (Cori):

=======  ======  ======  =======
Writes    812     6496    45440
=======  ======  ======  =======
Size      2 GB    16 GB   123 GB
VTK I/O   0.12 s  0.67 s  9.05 s
MPI-IO    0.40 s  3.17 s  22.87 s
=======  ======  ======  =======

Times both real write paths on the same data.  At 8 ranks k is split, so
each rank's shared-file runs are strided (i, j) rows, and file-per-process
is faster there, by the median of 10 interleaved runs.  At 4 ranks (whole
i-planes) no ordering is asserted: with contiguous runs coalesced the two
paths tie on a local disk (EXPERIMENTS.md, Table 1).  The modeled table,
with its ordering and the paper's magnitudes at every scale, is the
``table1`` entry of ``repro.experiments``.
"""

import statistics
import time

import numpy as np

from repro.data import DataArray, ImageData
from repro.mpi import run_spmd
from repro.storage import mpiio_write_collective, write_timestep
from repro.util import Extent
from repro.util.decomp import regular_decompose_3d

DIMS = (32, 32, 16)


def _vtk_write(tmpdir, nranks):
    def prog(comm):
        ext, _, _ = regular_decompose_3d(DIMS, comm.size, comm.rank)
        whole = Extent(0, DIMS[0] - 1, 0, DIMS[1] - 1, 0, DIMS[2] - 1)
        img = ImageData(ext, whole_extent=whole)
        img.add_point_array(DataArray.from_numpy("data", np.ones(ext.shape)))
        write_timestep(comm, tmpdir, 0, 0.0, img, "data")

    run_spmd(nranks, prog)


def _mpiio_write(path, nranks):
    def prog(comm):
        ext, _, _ = regular_decompose_3d(DIMS, comm.size, comm.rank)
        mpiio_write_collective(comm, path, np.ones(ext.shape), ext, DIMS)

    run_spmd(nranks, prog)


def test_table1_native_ordering_strided(tmp_path):
    """8 ranks, one run per (i, j) row: file-per-process is faster."""
    ratios = []
    for i in range(10):
        t0 = time.perf_counter()
        _vtk_write(str(tmp_path / f"v{i}"), nranks=8)
        t1 = time.perf_counter()
        _mpiio_write(str(tmp_path / f"m{i}.dat"), nranks=8)
        t2 = time.perf_counter()
        ratios.append((t2 - t1) / (t1 - t0))
    assert statistics.median(ratios) > 1.0, ratios
