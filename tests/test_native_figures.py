"""The paper's figures, checked on the real code at small scale.

Each modeled figure's paper-scale series and shape claims are an entry of
:mod:`repro.experiments`.  These run the program itself for what it can
show at a few ranks:

- Fig. 4: the zero-copy mapping adds no buffers (equal high-water marks);
- Figs. 5-7: one-time costs, per-step costs and memory per configuration,
  from one table of analyses and one Libsim session;
- Fig. 16: Libsim every 5th step gives a 1-in-5 sawtooth;
- Table 1: file-per-process writes beat one shared file on strided rows;
- Figs. 13, 14, 18: the application imagery carries the structure the
  figures show.
"""

import statistics
import time

import numpy as np
import pytest

from repro.analysis import AutocorrelationAnalysis, HistogramAnalysis
from repro.analysis.autocorrelation import AutocorrelationState
from repro.analysis.slice_ import SlicePlane
from repro.apps.avf_leslie_proxy import AVFLeslieSimulation
from repro.apps.nyx_proxy import NyxSimulation
from repro.apps.phasta_proxy import PhastaSimulation, PhastaSliceRender
from repro.core import Bridge
from repro.data import DataArray, ImageData
from repro.infrastructure import CatalystAdaptor, LibsimAdaptor, write_session_file
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.render import decode_png
from repro.storage import mpiio_write_collective, write_timestep
from repro.util import Extent, MemoryTracker, TimerRegistry
from repro.util.decomp import regular_decompose_3d

# -- Fig. 4 ------------------------------------------------------------------


def test_fig04_native_equal_highwater():
    """Original and SENSEI Autocorrelation: byte-for-byte equal high-water
    marks summed over 4 ranks (the zero-copy claim)."""

    def measure(use_sensei):
        def prog(comm):
            mem = MemoryTracker()
            sim = OscillatorSimulation(comm, (16, 16, 16), default_oscillators(), memory=mem)
            if use_sensei:
                bridge = Bridge(comm, sim.make_data_adaptor(), memory=mem)
                bridge.add_analysis(AutocorrelationAnalysis(window=4, k=3))
                bridge.initialize()
                sim.run(3, bridge)
                bridge.finalize()
            else:
                state = AutocorrelationState(4, sim.field.size, memory=mem)
                for _ in range(3):
                    sim.advance()
                    state.update(sim.field)
                state.finalize(comm, k=3)
            return mem.peak

        return sum(run_spmd(4, prog))

    assert measure(use_sensei=False) == measure(use_sensei=True)


# -- Figs. 5, 6, 7: one table of configurations --------------------------------

#: The paper's five miniapp configurations on a 12^3 grid; slices at k = 6.
_CONFIGS = {
    "baseline": lambda session: None,
    "histogram": lambda session: HistogramAnalysis(bins=32),
    "autocorrelation": lambda session: AutocorrelationAnalysis(window=4),
    "catalyst-slice": lambda session: CatalystAdaptor(SlicePlane(2, 6), resolution=(64, 64)),
    "libsim-slice": lambda session: LibsimAdaptor(session_file=session),
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The Libsim-slice configuration's session file."""
    path = tmp_path_factory.mktemp("libsim") / "session.json"
    write_session_file(path, [{"type": "pseudocolor_slice", "index": 6}], (64, 64))
    return str(path)


def _run(name, session, nranks, dims=(12, 12, 12), steps=2):
    """One configuration through the bridge; per rank, the seconds in
    ``sensei::execute`` and ``sensei::finalize`` and the high-water mark."""

    def prog(comm):
        timers, mem = TimerRegistry(), MemoryTracker()
        sim = OscillatorSimulation(comm, dims, default_oscillators(), timers=timers, memory=mem)
        bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers, memory=mem)
        analysis = _CONFIGS[name](session)
        if analysis is not None:
            bridge.add_analysis(analysis)
        bridge.initialize()
        sim.run(steps, bridge)
        bridge.finalize()
        return timers.total("sensei::execute"), timers.total("sensei::finalize"), mem.peak

    return run_spmd(nranks, prog)


def test_fig05_native_all_configs(session):
    """Every configuration initializes and finalizes; the autocorrelation
    finalize (the global top-k) costs at least the baseline's."""
    out = {name: _run(name, session, nranks=4) for name in _CONFIGS}
    fin = {name: max(f for _, f, _ in ranks) for name, ranks in out.items()}
    assert fin["autocorrelation"] >= fin["baseline"]


def test_fig06_native_sim_vs_analysis(session):
    """Rendering and PNG cost more per step than a histogram reduction, by
    the median of 5 interleaved pairs of jobs: on process ranks both are
    mostly messaging, and one pair flipped the order in 1 run of 20."""
    execute = {"histogram": [], "catalyst-slice": []}
    for _ in range(5):
        for name, seconds in execute.items():
            seconds.append(max(e for e, _, _ in _run(name, session, 4, (16, 16, 16), 3)))
    assert statistics.median(execute["catalyst-slice"]) > statistics.median(execute["histogram"])


def test_fig07_native_ranking(session):
    """High-water marks summed over 2 ranks: the histogram adds its bins to
    the baseline; Catalyst's library and framebuffer dominate."""
    high_water = {
        name: sum(peak for _, _, peak in _run(name, session, nranks=2))
        for name in ("baseline", "histogram", "catalyst-slice")
    }
    assert high_water["histogram"] >= high_water["baseline"]
    assert high_water["catalyst-slice"] > high_water["histogram"]


# -- Fig. 16 ------------------------------------------------------------------


def test_fig16_native_sawtooth(tmp_path):
    """AVF-LESLIE proxy with Libsim every 5th step: the render steps cost
    over 3x the adaptor-only steps, by the median."""
    session = tmp_path / "session.json"
    write_session_file(session, [{"type": "isosurface", "isovalues": [1.0, 4.0]}], (64, 64))

    def prog(comm):
        sim = AVFLeslieSimulation(comm, global_dims=(16, 12, 6))
        bridge = Bridge(comm, sim.make_data_adaptor())
        bridge.add_analysis(LibsimAdaptor(session_file=session, array="vorticity", frequency=5))
        bridge.initialize()
        series = []
        for _ in range(10):
            sim.advance()
            t0 = time.perf_counter()
            bridge.execute(sim.time, sim.step)
            series.append(time.perf_counter() - t0)
        bridge.finalize()
        return series

    series = run_spmd(2, prog)[0]
    render_steps = [series[i] for i in (4, 9)]
    quiet_steps = [s for i, s in enumerate(series) if (i + 1) % 5 != 0]
    assert statistics.median(render_steps) > 3 * statistics.median(quiet_steps)


# -- Table 1 ------------------------------------------------------------------


def test_table1_native_ordering_strided(tmp_path):
    """8 ranks, so k is split and each rank's shared-file runs are strided
    (i, j) rows: file-per-process is faster.  Each write is timed inside
    the program between barriers, VTK and MPI-IO interleaved 10 times, and
    rank 0's median ratio is compared, so job launch is not timed.

    Each rank writes 128 KiB in 1 024 rows.  At 16 KiB in 256 rows
    (32x32x16) process ranks give the other order, 0.6-0.8 on a 2-CPU
    host: one file create, the index gather and the index write then cost
    more than the rows.  At 4 ranks (whole i-planes) the two paths tie on
    a local disk and no ordering is asserted (EXPERIMENTS.md, Table 1)."""
    dims = (64, 64, 32)

    def prog(comm):
        ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
        block = np.ones(ext.shape)
        img = ImageData(ext, whole_extent=Extent(0, dims[0] - 1, 0, dims[1] - 1, 0, dims[2] - 1))
        img.add_point_array(DataArray.from_numpy("data", block))
        ratios = []
        for i in range(10):
            comm.barrier()
            t0 = time.perf_counter()
            write_timestep(comm, str(tmp_path / f"v{i}"), 0, 0.0, img, "data")
            comm.barrier()
            t1 = time.perf_counter()
            mpiio_write_collective(comm, str(tmp_path / f"m{i}.dat"), block, ext, dims)
            comm.barrier()
            ratios.append((time.perf_counter() - t1) / (t1 - t0))
        return ratios

    ratios = run_spmd(8, prog)[0]
    assert statistics.median(ratios) > 1.0, ratios


# -- Figs. 13, 14, 18: application imagery -------------------------------------


def test_fig13_phasta_slice():
    """Velocity-magnitude slice through the tail: the wake makes the column
    variance nonuniform."""

    def prog(comm):
        sim = PhastaSimulation(comm, (12, 8, 8), jet_amplitude=0.5)
        bridge = Bridge(comm, sim.make_data_adaptor())
        render = PhastaSliceRender(resolution=(160, 40))
        bridge.add_analysis(render)
        bridge.initialize()
        sim.run(2, bridge)
        bridge.finalize()
        return render.last_png

    img = decode_png(run_spmd(2, prog)[0])
    assert img.shape == (40, 160, 3)
    col_std = img.astype(float).std(axis=(0, 2))
    assert col_std.max() > 2 * max(col_std.min(), 1.0)


def _changed(first, last):
    return float((decode_png(first) != decode_png(last)).mean())


def test_fig14_avf_tml_evolution(tmp_path):
    """TML vorticity imagery early vs late: the flow evolves visibly."""
    session = tmp_path / "s.json"
    write_session_file(
        session,
        [
            {"type": "isosurface", "isovalues": [1.0, 3.0, 6.0]},
            {"type": "pseudocolor_slice", "axis": 2, "index": 3},
        ],
        resolution=(64, 64),
    )

    def prog(comm):
        sim = AVFLeslieSimulation(comm, global_dims=(16, 16, 8), mach=0.5)
        bridge = Bridge(comm, sim.make_data_adaptor())
        lib = LibsimAdaptor(session_file=session, array="vorticity")
        bridge.add_analysis(lib)
        bridge.initialize()
        sim.advance()
        bridge.execute(sim.time, sim.step)
        early = lib.last_png
        for _ in range(10):
            sim.advance()
        bridge.execute(sim.time, sim.step)
        bridge.finalize()
        return early, lib.last_png

    assert _changed(*run_spmd(2, prog)[0]) > 0.01


def test_fig18_nyx_density_slices():
    """Nyx density slices 5 steps apart differ: per-step in situ imagery
    tracks what sparse plot files miss."""

    def prog(comm):
        sim = NyxSimulation(comm, grid=16, gravity=6.0, dt=0.1, seed=8)
        bridge = Bridge(comm, sim.make_data_adaptor())
        cat = CatalystAdaptor(SlicePlane(2, 8), array="density", resolution=(48, 48))
        bridge.add_analysis(cat)
        bridge.initialize()
        sim.run(1, bridge)
        first = cat.last_png
        sim.run(5, bridge)
        bridge.finalize()
        return first, cat.last_png

    assert _changed(*run_spmd(2, prog)[0]) > 0.01
