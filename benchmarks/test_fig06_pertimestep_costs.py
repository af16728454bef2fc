"""Fig. 6: per-timestep costs (simulation vs analysis) per configuration.

Paper claims: the simulation phase weak-scales nearly perfectly; slice
configurations' analysis time is compositing-dominated and grows with
concurrency, with Catalyst (binary swap, 1920x1080) and Libsim
(direct-send family, 1600x1600) scaling differently.

Runs each configuration on the real code and asserts that a slice render
costs more per step than a histogram.  The modeled rows and their claims
(the growth pinned as an expected mismatch) are the ``fig06`` entry of
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
from repro.util import TimerRegistry

DIMS = (16, 16, 16)
STEPS = 3

_dir = tempfile.mkdtemp(prefix="fig06_")
SESSION = f"{_dir}/session.json"
write_session_file(SESSION, [{"type": "pseudocolor_slice", "index": 8}], (64, 64))


def _per_step(name):
    factories = {
        "histogram": lambda: HistogramAnalysis(bins=32),
        "autocorrelation": lambda: AutocorrelationAnalysis(window=4),
        "catalyst-slice": lambda: CatalystAdaptor(SlicePlane(2, 8), resolution=(64, 64)),
        "libsim-slice": lambda: LibsimAdaptor(session_file=SESSION),
    }

    def prog(comm):
        timers = TimerRegistry()
        sim = OscillatorSimulation(comm, DIMS, default_oscillators(), timers=timers)
        bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
        bridge.add_analysis(factories[name]())
        bridge.initialize()
        sim.run(STEPS, bridge)
        bridge.finalize()
        return (
            timers.total("simulation::advance") / STEPS,
            timers.total("sensei::execute") / STEPS,
        )

    return run_spmd(4, prog)


def test_fig06_native_sim_vs_analysis(benchmark):
    out = benchmark.pedantic(
        lambda: {n: _per_step(n) for n in ("histogram", "catalyst-slice")},
        rounds=1,
        iterations=1,
    )
    # Rendering + PNG costs more per step than histogram reductions.
    cat = max(a for _, a in out["catalyst-slice"])
    hist = max(a for _, a in out["histogram"])
    assert cat > hist

