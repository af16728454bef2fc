#!/usr/bin/env python
"""In situ vs post hoc, end to end (Secs. 4.1.5, Figs. 10-12).

Runs the same workload twice at laptop scale:

1. **in situ** -- miniapp + SENSEI histogram, nothing written but results;
2. **post hoc** -- miniapp + file-per-process write every step, then a
   separate reader job on 1/4 of the cores that reads everything back and
   computes the identical histogram.

Prints the phase breakdown and the end-to-end comparison; also validates
that the two paths produce bit-identical histograms.

Usage::

    python examples/posthoc_vs_insitu.py [nranks] [grid_edge] [steps]
"""

import sys
import tempfile

import numpy as np

from repro.analysis import HistogramAnalysis
from repro.core import Bridge
from repro.data import Association
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.posthoc import run_posthoc_analysis
from repro.storage import write_timestep
from repro.util import TimerRegistry

NRANKS = int(sys.argv[1]) if len(sys.argv) > 1 else 4
EDGE = int(sys.argv[2]) if len(sys.argv) > 2 else 24
STEPS = int(sys.argv[3]) if len(sys.argv) > 3 else 6
DIMS = (EDGE, EDGE, EDGE)
BINS = 32


def insitu_job(comm):
    timers = TimerRegistry()
    sim = OscillatorSimulation(comm, DIMS, default_oscillators(), dt=0.05, timers=timers)
    bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
    hist = HistogramAnalysis(bins=BINS)
    bridge.add_analysis(hist)
    bridge.initialize()
    sim.run(STEPS, bridge)
    bridge.finalize()
    return {
        "sim": timers.total("simulation::advance"),
        "analysis": timers.total("sensei::execute"),
        "hist": hist.history if comm.rank == 0 else None,
    }


def writer_job(comm, directory):
    timers = TimerRegistry()
    sim = OscillatorSimulation(comm, DIMS, default_oscillators(), dt=0.05, timers=timers)
    adaptor = sim.make_data_adaptor()
    for _ in range(STEPS):
        sim.advance()
        with timers.time("io::write"):
            mesh = adaptor.get_mesh()
            mesh.add_array(Association.POINT, adaptor.get_array(Association.POINT, "data"))
            write_timestep(comm, directory, sim.step, sim.time, mesh, "data")
        adaptor.release_data()
    return {
        "sim": timers.total("simulation::advance"),
        "write": timers.total("io::write"),
    }


def main():
    readers = max(NRANKS // 4, 1)

    insitu = run_spmd(NRANKS, insitu_job)
    with tempfile.TemporaryDirectory(prefix="posthoc_demo_") as directory:
        writes = run_spmd(NRANKS, writer_job, directory)
        posthoc = run_spmd(
            readers,
            lambda comm: run_posthoc_analysis(
                comm, directory, steps=list(range(1, STEPS + 1)),
                analysis="histogram", bins=BINS,
            ),
        )

    sim_t = max(r["sim"] for r in insitu)
    ana_t = max(r["analysis"] for r in insitu)
    write_t = max(r["write"] for r in writes)
    read_t = max(r.read_time for r in posthoc)
    proc_t = max(r.process_time for r in posthoc)

    print(f"workload: {DIMS} grid, {STEPS} steps, {NRANKS} writers, {readers} readers\n")
    print(f"in situ   : sim {sim_t:7.4f}s + analysis {ana_t:7.4f}s = {sim_t + ana_t:7.4f}s")
    print(
        f"post hoc  : sim {sim_t:7.4f}s + write {write_t:7.4f}s"
        f" + read {read_t:7.4f}s + process {proc_t:7.4f}s"
        f" = {sim_t + write_t + read_t + proc_t:7.4f}s"
    )
    overhead = (write_t + read_t + proc_t) / max(ana_t, 1e-9)
    print(f"\npost hoc I/O+analysis costs {overhead:,.0f}x the in situ analysis here")

    # Correctness: identical histograms through both paths.
    ref = insitu[0]["hist"]
    got = posthoc[0].histograms
    for a, b in zip(ref, got):
        assert np.array_equal(a.counts, b.counts), "histogram mismatch!"
    print("histograms from both paths are bit-identical over every step")


if __name__ == "__main__":
    main()
