"""Cross-subsystem integration tests: the full chains the paper's Fig. 2
draws -- simulation -> SENSEI -> {method | infrastructure | staging} ->
{image | file | result} -- exercised end to end."""

import numpy as np
import pytest

from repro.analysis import AutocorrelationAnalysis, HistogramAnalysis
from repro.apps.avf_leslie_proxy import AVFLeslieSimulation
from repro.core import Bridge, ConfigurableAnalysis
from repro.infrastructure.adios import run_flexpath_job
from repro.infrastructure.glean import GleanAdaptor
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.render import decode_png
from repro.util import Configuration
from tests._glean_reader import read_glean_step


class TestConfigDrivenMultiAnalysis:
    def test_one_config_many_analyses(self, tmp_path):
        """A single JSON config drives method + infrastructure analyses
        simultaneously -- the ConfigurableAnalysis promise."""
        cfg = Configuration(
            {
                "analyses": [
                    {"type": "histogram", "bins": 16},
                    {"type": "autocorrelation", "window": 2, "k": 3},
                    {
                        "type": "catalyst",
                        "axis": 2,
                        "index": 4,
                        "width": 40,
                        "height": 30,
                    },
                    {
                        "type": "glean",
                        "output_dir": str(tmp_path / "glean"),
                        "ranks_per_aggregator": 2,
                    },
                    {"type": "slice", "axis": 2, "index": 4},
                ]
            }
        )

        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 8), default_oscillators())
            bridge = Bridge(comm, sim.make_data_adaptor())
            ca = ConfigurableAnalysis(cfg)
            bridge.add_analysis(ca)
            bridge.initialize()
            sim.run(2, bridge)
            return bridge.finalize()

        results = run_spmd(4, prog)[0]["ConfigurableAnalysis"]
        assert len(results["HistogramAnalysis"]) == 2
        auto = results["AutocorrelationAnalysis"]
        assert auto.window == 2
        assert all(len(t) == 3 for t in auto.top)
        assert [s.shape for s in results["SliceExtractAnalysis"]] == [(10, 10)] * 2
        assert results["CatalystAdaptor"]["images_written"] == 2
        assert results["GleanAdaptor"]["steps_staged"] == 2
        assert any((tmp_path / "glean").iterdir())
        # Glean data reassembles.
        blocks = read_glean_step(str(tmp_path / "glean"), 2)
        assert sorted(blocks) == [0, 1, 2, 3]


class TestScienceAppThroughStaging:
    def test_avf_in_transit_autocorrelation(self):
        """A science proxy (not just the miniapp) through ADIOS/FlexPath."""

        def writer_program(comm, writer):
            sim = AVFLeslieSimulation(comm, global_dims=(8, 8, 4))
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(writer)
            bridge.initialize()
            sim.run(4, bridge)
            bridge.finalize()
            return None

        result = run_flexpath_job(
            n_writers=2,
            n_endpoints=1,
            writer_program=writer_program,
            analysis_factory=lambda comm: AutocorrelationAnalysis(
                window=2, k=2, array="vorticity"
            ),
            array="vorticity",
        )
        res = result.endpoint_results[0]["result"]
        assert res is not None
        assert res.window == 2
        assert all(len(t) == 2 for t in res.top)


class TestSteeredWithInfrastructure:
    def test_steering_and_catalyst_coexist(self, tmp_path):
        """Steering + rendering in one bridge: parameter changes show up in
        subsequently rendered imagery."""
        from repro.analysis.slice_ import SlicePlane
        from repro.core import LiveConnection, SteeringAnalysis
        from repro.infrastructure.catalyst import CatalystAdaptor

        conn = LiveConnection()
        conn.submit_update(dt=1.0)  # huge step => visibly different field

        def prog(comm):
            sim = OscillatorSimulation(comm, (10, 10, 8), default_oscillators(), dt=0.01)
            cat = CatalystAdaptor(SlicePlane(2, 4), resolution=(32, 24))
            steering = SteeringAnalysis(
                conn, parameters={"dt": lambda v: setattr(sim, "dt", v)}
            )
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(steering)
            bridge.add_analysis(cat)
            bridge.initialize()
            sim.advance()  # dt=0.01
            bridge.execute(sim.time, sim.step)
            png_before = cat.last_png
            sim.advance()  # dt now 1.0 after the steering update
            bridge.execute(sim.time, sim.step)
            bridge.finalize()
            if comm.rank == 0:
                return png_before, cat.last_png, sim.dt
            return None

        # Steering rides an in-memory LiveConnection: thread backend only.
        before, after, dt = run_spmd(2, prog, backend="thread")[0]
        assert dt == 1.0
        assert not np.array_equal(decode_png(before), decode_png(after))


class TestPackageAPI:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__ == "1.0.0"
        assert callable(repro.run_spmd)
        assert repro.Bridge is not None
