"""Fig. 7: memory overhead -- startup footprint vs high-water mark.

Paper claims: startup footprint is ~the Baseline executable for every
configuration; the high-water mark varies with the analysis (slice configs
carry library + framebuffer; autocorrelation carries its circular buffers);
summed over ranks, it grows with scale.

Ranks the configurations' measured high-water marks on the real code.  The
modeled rows and their claims are the ``fig07`` entry of
``repro.experiments``.
"""

import tempfile

from repro.analysis import AutocorrelationAnalysis, HistogramAnalysis
from repro.analysis.slice_ import SlicePlane
from repro.core import Bridge
from repro.infrastructure import CatalystAdaptor, LibsimAdaptor, write_session_file
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.util import MemoryTracker, sum_high_water

DIMS = (12, 12, 12)
_dir = tempfile.mkdtemp(prefix="fig07_")
SESSION = f"{_dir}/session.json"
write_session_file(SESSION, [{"type": "pseudocolor_slice", "index": 6}], (64, 64))


def _measure(name):
    factories = {
        "baseline": lambda: None,
        "histogram": lambda: HistogramAnalysis(bins=32),
        "autocorrelation": lambda: AutocorrelationAnalysis(window=4),
        "catalyst-slice": lambda: CatalystAdaptor(SlicePlane(2, 6), resolution=(64, 64)),
        "libsim-slice": lambda: LibsimAdaptor(session_file=SESSION),
    }

    def prog(comm):
        mem = MemoryTracker()
        sim = OscillatorSimulation(comm, DIMS, default_oscillators(), memory=mem)
        startup = mem.peak
        bridge = Bridge(comm, sim.make_data_adaptor(), memory=mem)
        analysis = factories[name]()
        if analysis is not None:
            bridge.add_analysis(analysis)
        bridge.initialize()
        sim.run(2, bridge)
        bridge.finalize()
        return startup, mem

    out = run_spmd(2, prog)
    return sum(s for s, _ in out), sum_high_water([m for _, m in out])


def test_fig07_native_ranking(benchmark):
    out = benchmark.pedantic(
        lambda: {n: _measure(n) for n in ("baseline", "histogram", "catalyst-slice")},
        rounds=1,
        iterations=1,
    )
    base_start, base_hw = out["baseline"]
    _, hist_hw = out["histogram"]
    _, cat_hw = out["catalyst-slice"]
    assert hist_hw >= base_hw
    assert cat_hw > hist_hw  # library + framebuffer dominate

