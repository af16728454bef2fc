"""Fig. 4: memory footprint, Original vs SENSEI Autocorrelation.

Paper claim: "comparable memory footprint for the two configurations" --
the zero-copy mapping adds no buffers.

Runs both configurations with full allocation accounting and asserts equal
high-water marks.  The modeled 1K/6K/45K series and its claim are the
``fig04`` entry of ``repro.experiments``.
"""

from repro.analysis import AutocorrelationAnalysis
from repro.analysis.autocorrelation import AutocorrelationState
from repro.core import Bridge
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.util import MemoryTracker, sum_high_water

DIMS = (16, 16, 16)
STEPS = 3
WINDOW = 4


def _measure(use_sensei: bool):
    def prog(comm):
        mem = MemoryTracker()
        sim = OscillatorSimulation(comm, DIMS, default_oscillators(), memory=mem)
        if use_sensei:
            bridge = Bridge(comm, sim.make_data_adaptor(), memory=mem)
            bridge.add_analysis(AutocorrelationAnalysis(window=WINDOW, k=3))
            bridge.initialize()
            sim.run(STEPS, bridge)
            bridge.finalize()
        else:
            state = AutocorrelationState(WINDOW, sim.field.size, memory=mem)
            for _ in range(STEPS):
                sim.advance()
                state.update(sim.field)
            state.finalize(comm, k=3)
        return mem

    return run_spmd(4, prog)


def test_fig04_native_equal_highwater(benchmark):
    def run_both():
        return sum_high_water(_measure(False)), sum_high_water(_measure(True))

    original, sensei = benchmark.pedantic(run_both, rounds=2, iterations=1)
    assert original == sensei  # byte-for-byte: the zero-copy claim

