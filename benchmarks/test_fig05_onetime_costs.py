"""Fig. 5: one-time costs (simulation init, analysis init, finalize).

Paper claims: simulation initialization negligible; analysis initialization
minimal *except* Libsim-slice's per-rank configuration checks (~3.5 s at
45K); only the autocorrelation finalize (the global top-k reduction) is
non-negligible.

Benchmarks bridge initialize/finalize for every configuration.  The
modeled rows at all three scales and their claims are the ``fig05`` entry
of ``repro.experiments``.
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

DIMS = (12, 12, 12)

_session_dir = tempfile.mkdtemp(prefix="fig05_")
SESSION = f"{_session_dir}/session.json"
write_session_file(SESSION, [{"type": "pseudocolor_slice", "index": 6}], (64, 64))


def _factories():
    return {
        "baseline": lambda: None,
        "histogram": lambda: HistogramAnalysis(bins=32),
        "autocorrelation": lambda: AutocorrelationAnalysis(window=4),
        "catalyst-slice": lambda: CatalystAdaptor(
            SlicePlane(2, 6), resolution=(64, 64)
        ),
        "libsim-slice": lambda: LibsimAdaptor(session_file=SESSION),
    }


def _onetime(config_name):
    factory = _factories()[config_name]

    def prog(comm):
        timers = TimerRegistry()
        sim = OscillatorSimulation(
            comm, DIMS, default_oscillators(), timers=timers
        )
        bridge = Bridge(comm, sim.make_data_adaptor(), timers=timers)
        analysis = factory()
        if analysis is not None:
            bridge.add_analysis(analysis)
        bridge.initialize()
        sim.run(2, bridge)
        bridge.finalize()
        return (
            timers.total("simulation::initialize"),
            timers.total("sensei::initialize"),
            timers.total("sensei::finalize"),
        )

    return run_spmd(4, prog)


def test_fig05_native_all_configs(benchmark):
    def run_all():
        return {name: _onetime(name) for name in _factories()}

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # Autocorrelation is the only analysis with a non-trivial finalize.
    ac_fin = max(r[2] for r in out["autocorrelation"])
    base_fin = max(r[2] for r in out["baseline"])
    assert ac_fin >= base_fin

