#!/usr/bin/env python
"""The miniapplication study of Sec. 4.1, at laptop scale.

Runs every in situ configuration the paper measures -- Original, Baseline,
Histogram, Autocorrelation, Catalyst-slice, Libsim-slice -- natively on the
thread-backed MPI runtime, and prints the one-time / per-timestep / memory
breakdown the paper charts in Figs. 5-7.

Usage::

    python examples/oscillator_insitu_study.py [nranks] [grid_edge] [steps]
"""

import sys
import tempfile

from repro.analysis import AutocorrelationAnalysis, HistogramAnalysis
from repro.analysis.autocorrelation import AutocorrelationState
from repro.analysis.slice_ import SlicePlane
from repro.core import Bridge
from repro.infrastructure import CatalystAdaptor, LibsimAdaptor, write_session_file
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.util import MemoryTracker, TimerRegistry

NRANKS = int(sys.argv[1]) if len(sys.argv) > 1 else 4
EDGE = int(sys.argv[2]) if len(sys.argv) > 2 else 24
STEPS = int(sys.argv[3]) if len(sys.argv) > 3 else 8
DIMS = (EDGE, EDGE, EDGE)


def run_configuration(name, make_analysis):
    """Run one configuration; returns aggregated timing/memory rows."""

    def program(comm):
        timers = TimerRegistry()
        memory = MemoryTracker(baseline_bytes=0)
        sim = OscillatorSimulation(
            comm, DIMS, default_oscillators(), dt=0.05, timers=timers, memory=memory
        )
        startup = memory.peak
        if name == "original":
            # Subroutine-coupled autocorrelation: no SENSEI interface.
            state = AutocorrelationState(
                4, sim.field.size, global_offset=0, memory=memory
            )
            for _ in range(STEPS):
                sim.advance()
                with timers.time("analysis::direct"):
                    state.update(sim.field)
            state.finalize(comm, k=3)
        else:
            bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers, memory=memory)
            analysis = make_analysis(comm)
            if analysis is not None:
                bridge.add_analysis(analysis)
            bridge.initialize()
            sim.run(STEPS, bridge)
            bridge.finalize()
        return {
            "sim_init": timers.total("simulation::initialize"),
            "analysis_init": timers.total("sensei::initialize"),
            "sim_step": timers.total("simulation::advance") / STEPS,
            "analysis_step": (
                timers.total("sensei::execute") + timers.total("analysis::direct")
            )
            / STEPS,
            "finalize": timers.total("sensei::finalize"),
            "startup_mb": startup / 1e6,
            "high_water_mb": memory.peak / 1e6,
        }

    rows = run_spmd(NRANKS, program)
    agg = {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}
    agg["high_water_mb"] = sum(r["high_water_mb"] for r in rows)
    agg["startup_mb"] = sum(r["startup_mb"] for r in rows)
    return agg


def main():
    with tempfile.TemporaryDirectory(prefix="insitu_study_") as tmp:
        study(tmp)


def study(tmp: str) -> None:
    session = f"{tmp}/session.json"
    write_session_file(
        session, [{"type": "pseudocolor_slice", "axis": 2, "index": EDGE // 2}],
        resolution=(320, 320),
    )
    configurations = [
        ("original", lambda comm: None),
        ("baseline", lambda comm: None),
        ("histogram", lambda comm: HistogramAnalysis(bins=32)),
        ("autocorrelation", lambda comm: AutocorrelationAnalysis(window=4, k=3)),
        (
            "catalyst-slice",
            lambda comm: CatalystAdaptor(
                plane=SlicePlane(axis=2, index=EDGE // 2),
                resolution=(480, 270),
                output_dir=f"{tmp}/catalyst",
            ),
        ),
        (
            "libsim-slice",
            lambda comm: LibsimAdaptor(session_file=session, output_dir=f"{tmp}/libsim"),
        ),
    ]
    print(
        f"miniapp in situ study: {NRANKS} ranks, {DIMS} grid, {STEPS} steps"
        f" (images under {tmp}, removed at exit)\n"
    )
    header = (
        f"{'configuration':<17}{'sim init':>9}{'ana init':>9}{'sim/step':>9}"
        f"{'ana/step':>9}{'finalize':>9}{'startupMB':>10}{'hiwaterMB':>10}"
    )
    print(header)
    print("-" * len(header))
    for name, factory in configurations:
        row = run_configuration(name, factory)
        print(
            f"{name:<17}{row['sim_init']:>9.4f}{row['analysis_init']:>9.4f}"
            f"{row['sim_step']:>9.4f}{row['analysis_step']:>9.4f}"
            f"{row['finalize']:>9.4f}{row['startup_mb']:>10.1f}"
            f"{row['high_water_mb']:>10.1f}"
        )


if __name__ == "__main__":
    main()
