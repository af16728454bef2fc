"""Tests for the SENSEI core: adaptors, bridge, configurable analysis."""

import numpy as np
import pytest

from repro.core import (
    AnalysisAdaptor,
    Bridge,
    ConfigurableAnalysis,
    LazyStructuredDataAdaptor,
    register_analysis,
)
from repro.data import Association
from repro.mpi import run_spmd
from repro.util import Configuration, ConfigError, Extent, TimerRegistry
from repro.util.config import ConfigError as CE


class RecordingAnalysis(AnalysisAdaptor):
    """Test double that records the bridge protocol."""

    def __init__(self, stop_at_step=None):
        super().__init__()
        self.events = []
        self.stop_at_step = stop_at_step

    def initialize(self, comm):
        self.events.append(("init", comm.rank))

    def execute(self, data):
        step = data.get_data_time_step()
        self.events.append(("exec", step, data.get_data_time()))
        return self.stop_at_step is None or step <= self.stop_at_step

    def finalize(self):
        self.events.append(("fini",))
        return len(self.events)


def _mk_adaptor(comm, field):
    ext = Extent(0, 2, 0, 2, 0, 2)
    ad = LazyStructuredDataAdaptor(comm, ext, ext)
    ad.register_array(Association.POINT, "data", lambda: field)
    return ad


class TestBridgeProtocol:
    def test_initialize_execute_finalize_order(self):
        def prog(comm):
            field = np.zeros((3, 3, 3))
            a = RecordingAnalysis()
            b = Bridge(comm, _mk_adaptor(comm, field))
            b.add_analysis(a)
            b.initialize()
            b.execute(0.1, 1)
            b.execute(0.2, 2)
            results = b.finalize()
            return a.events, results

        events, results = run_spmd(1, prog)[0]
        assert events[0] == ("init", 0)
        assert events[1] == ("exec", 1, 0.1)
        assert events[2] == ("exec", 2, 0.2)
        assert events[3] == ("fini",)
        assert results == {"RecordingAnalysis": 4}

    def test_execute_before_initialize_raises(self):
        def prog(comm):
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            with pytest.raises(RuntimeError):
                b.execute(0.0, 0)

        run_spmd(1, prog)

    def test_double_initialize_raises(self):
        def prog(comm):
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            b.initialize()
            with pytest.raises(RuntimeError):
                b.initialize()

        run_spmd(1, prog)

    def test_add_analysis_after_initialize_raises(self):
        def prog(comm):
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            b.initialize()
            with pytest.raises(RuntimeError):
                b.add_analysis(RecordingAnalysis())

        run_spmd(1, prog)

    def test_finalize_idempotent(self):
        """Regression: double finalize (teardown paths love to call it
        twice) must not re-run analyses' finalize; the second call returns
        the first call's results."""

        def prog(comm):
            a = RecordingAnalysis()
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            b.add_analysis(a)
            b.initialize()
            b.execute(0.1, 1)
            first = b.finalize()
            second = b.finalize()
            fini_calls = sum(1 for e in a.events if e == ("fini",))
            return first, second, first is second, fini_calls

        first, second, same_obj, fini_calls = run_spmd(1, prog)[0]
        assert first == second and same_obj
        assert fini_calls == 1

    def test_execute_after_finalize_raises(self):
        def prog(comm):
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            b.initialize()
            b.finalize()
            with pytest.raises(RuntimeError):
                b.execute(0.0, 0)

        run_spmd(1, prog)

    def test_steering_stop_propagates(self):
        def prog(comm):
            a = RecordingAnalysis(stop_at_step=1)
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            b.add_analysis(a)
            b.initialize()
            return b.execute(0.1, 1), b.execute(0.2, 2)

        assert run_spmd(1, prog)[0] == (True, False)

    def test_bridge_times_phases(self):
        def prog(comm):
            timers = TimerRegistry()
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))), timers=timers)
            b.add_analysis(RecordingAnalysis())
            b.initialize()
            b.execute(0.1, 1)
            b.finalize()
            return timers.names()

        names = run_spmd(1, prog)[0]
        assert "sensei::initialize" in names
        assert "sensei::execute" in names
        assert "sensei::execute::RecordingAnalysis" in names
        assert "sensei::finalize" in names

    def test_multiple_analyses_all_run(self):
        def prog(comm):
            a1, a2 = RecordingAnalysis(), RecordingAnalysis()
            b = Bridge(comm, _mk_adaptor(comm, np.zeros((3, 3, 3))))
            b.add_analysis(a1)
            b.add_analysis(a2)
            b.initialize()
            b.execute(0.5, 3)
            return len(a1.events), len(a2.events)

        assert run_spmd(1, prog)[0] == (2, 2)


class TestLazyAdaptor:
    def test_mesh_and_arrays_not_built_without_analysis(self):
        def prog(comm):
            field = np.zeros((3, 3, 3))
            ad = _mk_adaptor(comm, field)
            ad.set_data_time(0.1, 1)
            ad.release_data()
            return ad.mesh_constructions, ad.array_mappings

        assert run_spmd(1, prog)[0] == (0, 0)

    def test_eager_maps_everything(self):
        def prog(comm):
            field = np.zeros((3, 3, 3))
            ext = Extent(0, 2, 0, 2, 0, 2)
            ad = LazyStructuredDataAdaptor(comm, ext, ext, eager=True)
            ad.register_array(Association.POINT, "data", lambda: field)
            ad.set_data_time(0.1, 1)
            return ad.mesh_constructions, ad.array_mappings

        assert run_spmd(1, prog)[0] == (1, 1)

    def test_get_array_zero_copy(self):
        def prog(comm):
            field = np.zeros((3, 3, 3))
            ad = _mk_adaptor(comm, field)
            arr = ad.get_array(Association.POINT, "data")
            return arr.is_zero_copy_of(field), arr.is_zero_copy

        assert run_spmd(1, prog)[0] == (True, True)

    def test_array_mapping_cached_per_step(self):
        def prog(comm):
            ad = _mk_adaptor(comm, np.zeros((3, 3, 3)))
            ad.get_array(Association.POINT, "data")
            ad.get_array(Association.POINT, "data")
            n1 = ad.array_mappings
            ad.release_data()
            ad.get_array(Association.POINT, "data")
            return n1, ad.array_mappings

        assert run_spmd(1, prog)[0] == (1, 2)

    def test_unknown_array_raises(self):
        def prog(comm):
            ad = _mk_adaptor(comm, np.zeros((3, 3, 3)))
            with pytest.raises(KeyError):
                ad.get_array(Association.POINT, "nope")

        run_spmd(1, prog)

    def test_enumeration(self):
        def prog(comm):
            ad = _mk_adaptor(comm, np.zeros((3, 3, 3)))
            return (
                ad.get_number_of_arrays(Association.POINT),
                ad.get_array_name(Association.POINT, 0),
                ad.available_arrays(Association.POINT),
                ad.get_number_of_arrays(Association.CELL),
            )

        assert run_spmd(1, prog)[0] == (1, "data", ["data"], 0)

    def test_mesh_attaches_mapped_arrays(self):
        def prog(comm):
            ad = _mk_adaptor(comm, np.arange(27.0).reshape(3, 3, 3))
            arr = ad.get_array(Association.POINT, "data")
            mesh = ad.get_mesh()
            return mesh.get_array(Association.POINT, "data") is arr

        assert run_spmd(1, prog)[0] is True

    def test_provider_returns_current_pointer(self):
        """Re-mapping after release_data sees the new simulation buffer."""

        def prog(comm):
            state = {"field": np.zeros((3, 3, 3))}
            ext = Extent(0, 2, 0, 2, 0, 2)
            ad = LazyStructuredDataAdaptor(comm, ext, ext)
            ad.register_array(Association.POINT, "data", lambda: state["field"])
            a1 = ad.get_array(Association.POINT, "data")
            ad.release_data()
            state["field"] = np.ones((3, 3, 3))
            a2 = ad.get_array(Association.POINT, "data")
            return float(a1.values.sum()), float(a2.values.sum())

        assert run_spmd(1, prog)[0] == (0.0, 27.0)


class TestConfigurableAnalysis:
    def test_builds_registered_types(self):
        cfg = Configuration(
            {"analyses": [{"type": "histogram", "bins": 16}]}
        )
        ca = ConfigurableAnalysis(cfg)
        assert len(ca.analyses) == 1
        assert ca.analyses[0].bins == 16

    def test_disabled_entries_skipped(self):
        cfg = Configuration(
            {
                "analyses": [
                    {"type": "histogram", "enabled": False},
                    {"type": "autocorrelation", "window": 4},
                ]
            }
        )
        ca = ConfigurableAnalysis(cfg)
        assert len(ca.analyses) == 1
        assert ca.analyses[0].window == 4

    def test_unknown_type_raises(self):
        with pytest.raises(ConfigError):
            ConfigurableAnalysis(Configuration({"analyses": [{"type": "zzz"}]}))

    def test_broken_analysis_import_is_not_swallowed(self, monkeypatch):
        """A failing import inside an analysis package must surface as
        itself, not as "unknown analysis type ...; registered: []"."""
        import sys

        monkeypatch.setitem(sys.modules, "repro.analysis", None)
        with pytest.raises(ImportError):
            ConfigurableAnalysis(
                Configuration({"analyses": [{"type": "histogram"}]})
            )

    def test_missing_type_raises(self):
        with pytest.raises(CE):
            ConfigurableAnalysis(Configuration({"analyses": [{"bins": 4}]}))

    def test_non_object_entry_raises(self):
        with pytest.raises(ConfigError):
            ConfigurableAnalysis(Configuration({"analyses": ["histogram"]}))

    def test_composite_runs_all_and_collects_results(self):
        @register_analysis("_test_recording")
        def _mk(config):
            return RecordingAnalysis()

        def prog(comm):
            cfg = Configuration(
                {"analyses": [{"type": "_test_recording"}, {"type": "_test_recording"}]}
            )
            ca = ConfigurableAnalysis(cfg)
            field = np.zeros((3, 3, 3))
            b = Bridge(comm, _mk_adaptor(comm, field))
            b.add_analysis(ca)
            b.initialize()
            b.execute(0.1, 1)
            out = b.finalize()
            return out

        out = run_spmd(1, prog)[0]
        assert "ConfigurableAnalysis" in out
