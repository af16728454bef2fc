"""Table 1: one-step write cost, multi-file VTK I/O vs collective MPI-IO.

Paper values (Cori):

=======  ======  ======  =======
Writes    812     6496    45440
=======  ======  ======  =======
Size      2 GB    16 GB   123 GB
VTK I/O   0.12 s  0.67 s  9.05 s
MPI-IO    0.40 s  3.17 s  22.87 s
=======  ======  ======  =======

Native part: time both real write paths on the same data at two layouts.
At 4 ranks the split falls on i and j, so each rank's shared-file runs are
whole i-planes; at 8 ranks k is split too, so its runs are strided (i, j)
rows.  Only the strided layout asserts an ordering -- file-per-process is
faster there, by the median of 10 interleaved runs.  The plane layout
asserts none: with contiguous runs coalesced the two paths tie on a local
disk (EXPERIMENTS.md, Table 1).  Modeled part: the table itself, with the
Table 1 ordering and the paper's magnitudes asserted at every scale.
"""

import statistics
import time

import numpy as np

from repro.data import Association, DataArray, ImageData
from repro.mpi import run_spmd
from repro.perf.miniapp_model import SCALES, MiniappConfig, MiniappModel
from repro.storage import mpiio_write_collective, write_timestep
from repro.util import Extent
from repro.util.decomp import regular_decompose_3d

DIMS = (32, 32, 16)


def _vtk_write(tmpdir, nranks=4):
    def prog(comm):
        ext, _, _ = regular_decompose_3d(DIMS, comm.size, comm.rank)
        whole = Extent(0, DIMS[0] - 1, 0, DIMS[1] - 1, 0, DIMS[2] - 1)
        img = ImageData(ext, whole_extent=whole)
        img.add_point_array(DataArray.from_numpy("data", np.ones(ext.shape)))
        write_timestep(comm, tmpdir, 0, 0.0, img, "data")

    run_spmd(nranks, prog)


def _mpiio_write(path, nranks=4):
    def prog(comm):
        ext, _, _ = regular_decompose_3d(DIMS, comm.size, comm.rank)
        mpiio_write_collective(comm, path, np.ones(ext.shape), ext, DIMS)

    run_spmd(nranks, prog)


def test_table1_native_vtk(benchmark, tmp_path):
    counter = iter(range(10_000))
    benchmark.pedantic(
        lambda: _vtk_write(str(tmp_path / f"v{next(counter)}")), rounds=3, iterations=1
    )


def test_table1_native_mpiio(benchmark, tmp_path):
    counter = iter(range(10_000))
    benchmark.pedantic(
        lambda: _mpiio_write(str(tmp_path / f"m{next(counter)}.dat")),
        rounds=3,
        iterations=1,
    )


def test_table1_native_mpiio_strided(benchmark, tmp_path):
    counter = iter(range(10_000))
    benchmark.pedantic(
        lambda: _mpiio_write(str(tmp_path / f"s{next(counter)}.dat"), nranks=8),
        rounds=3,
        iterations=1,
    )


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


def test_table1_modeled(benchmark, report):
    def series():
        rows = []
        for scale in ("1K", "6K", "45K"):
            m = MiniappModel(MiniappConfig.at_scale(scale))
            wp = m.write_paths()
            rows.append((scale, SCALES[scale][0], wp["size_gb"], wp["vtk_io"], wp["mpi_io"]))
        return rows

    rows = benchmark(series)
    report(
        "table1_write_paths",
        f"{'scale':<5}{'cores':>8}{'size(GB)':>10}{'VTK I/O(s)':>12}{'MPI-IO(s)':>11}",
        [
            f"{s:<5}{c:>8}{gb:>10.1f}{v:>12.2f}{m_:>11.2f}"
            for s, c, gb, v, m_ in rows
        ],
    )
    paper = {"1K": (0.12, 0.40), "6K": (0.67, 3.17), "45K": (9.05, 22.87)}
    for s, _, _, vtk, mpiio in rows:
        assert vtk < mpiio  # the Table 1 ordering
        ref_v, ref_m = paper[s]
        assert ref_v / 2 < vtk < ref_v * 2
        assert ref_m / 2 < mpiio < ref_m * 2
