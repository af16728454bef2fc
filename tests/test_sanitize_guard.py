"""Tests for the zero-copy write/retention sanitizer (repro.sanitize)."""

import numpy as np
import pytest

from repro.core import AnalysisAdaptor, Bridge, SimulationDataAdaptor
from repro.data import Association, ImageData
from repro.mpi import run_spmd
from repro.sanitize import (
    GuardedDataAdaptor,
    RetentionViolation,
    SanitizerError,
    WriteViolation,
)
from repro.util import Extent


def _mk_adaptor(comm, field):
    ext = Extent(0, 3, 0, 3, 0, 0)
    ad = SimulationDataAdaptor(comm, lambda: ImageData(ext, whole_extent=ext))
    ad.register_array(Association.POINT, "data", lambda: field)
    return ad


def _run_bridge(analysis_cls, field, steps=1, sanitize=True):
    def prog(comm):
        a = analysis_cls()
        b = Bridge(comm, _mk_adaptor(comm, field), sanitize=sanitize)
        b.add_analysis(a)
        b.initialize()
        for step in range(steps):
            b.execute(0.1 * step, step)
        b.finalize()
        return a

    return run_spmd(1, prog)[0]


class CleanAnalysis(AnalysisAdaptor):
    """Reads the array and the mesh, keeps nothing, writes nothing."""

    def execute(self, data):
        arr = data.get_array(Association.POINT, "data")
        self.total = float(arr.as_soa()[0].sum())
        data.get_mesh()
        return True


class MutatingAnalysis(AnalysisAdaptor):
    """Seeded violation: writes through the mapped view."""

    def execute(self, data):
        arr = data.get_array(Association.POINT, "data")
        comp = arr.as_soa()[0]
        # The handed-out view is write-protected; force the flag back on to
        # emulate an analysis bypassing the guard (C extensions can).
        comp.flags.writeable = True
        comp[0] = -999.0
        return True


class RetainingAnalysis(AnalysisAdaptor):
    """Seeded violation: keeps the mapped array past release_data()."""

    def execute(self, data):
        self.kept = data.get_array(Association.POINT, "data")
        return True


class MeshRetainingAnalysis(AnalysisAdaptor):
    """Seeded violation: keeps the mesh past release_data()."""

    def execute(self, data):
        self.kept = data.get_mesh()
        return True


class DeclaredMutator(AnalysisAdaptor):
    """Opted-in in-place transform: must receive a private copy."""

    mutates_data = True

    def execute(self, data):
        arr = data.get_array(Association.POINT, "data")
        arr.as_soa()[0][:] = 0.0
        return True


class WriteProtectionProbe(AnalysisAdaptor):
    """Module-level (not a closure) so instances pickle on any backend."""

    def execute(self, data):
        arr = data.get_array(Association.POINT, "data")
        assert arr.guarded
        assert not arr.writeable
        with pytest.raises(ValueError):
            arr.as_soa()[0][0] = 1.0
        return True


class DeepCopyingAnalysis(AnalysisAdaptor):
    """Keeps a deep copy -- the sanctioned retention escape hatch."""

    def execute(self, data):
        self.kept = data.get_array(Association.POINT, "data").deep_copy()
        return True


class TestWriteGuard:
    def test_handed_out_views_are_write_protected(self):
        _run_bridge(WriteProtectionProbe, np.zeros((4, 4)))

    def test_mutation_raises_naming_analysis_and_array(self):
        field = np.arange(16.0).reshape(4, 4)
        with pytest.raises(Exception) as exc_info:
            _run_bridge(MutatingAnalysis, field)
        msg = str(exc_info.value)
        assert "WriteViolation" in msg
        assert "MutatingAnalysis" in msg
        assert "'data'" in msg

    def test_mutation_not_detected_when_disabled(self):
        field = np.arange(16.0).reshape(4, 4)

        def prog(comm):
            b = Bridge(comm, _mk_adaptor(comm, field), sanitize=False)
            b.add_analysis(MutatingAnalysis())
            b.initialize()
            b.execute(0.0, 0)
            b.finalize()
            # Returned rather than asserted on the closure: the program may
            # run in another process with a private copy of `field`.
            return field[0, 0]

        assert run_spmd(1, prog)[0] == -999.0  # the write went through

    def test_declared_mutator_gets_private_copy(self):
        field = np.arange(16.0).reshape(4, 4)
        _run_bridge(DeclaredMutator, field)
        # Simulation memory untouched despite the in-place zeroing.
        assert field[2, 2] == 10.0

    @pytest.mark.parametrize("analysis_cls", [DeclaredMutator, MutatingAnalysis])
    def test_configured_analysis_keeps_its_contract(self, analysis_cls, monkeypatch):
        """An analysis selected by configuration reaches the bridge as
        itself: a declared mutator gets its private copy, and a violation
        names the analysis that wrote."""
        from repro.core import configurable, configured_analyses
        from repro.util import Configuration

        monkeypatch.setitem(configurable._REGISTRY, "planted", lambda config: analysis_cls())
        field = np.arange(1.0, 17.0).reshape(4, 4)

        def prog(comm):
            b = Bridge(comm, _mk_adaptor(comm, field), sanitize=True)
            config = Configuration({"analyses": [{"type": "planted"}]})
            for a in configured_analyses(config):
                b.add_analysis(a)
            b.initialize()
            b.execute(0.0, 0)
            b.finalize()
            return field[0, 0]

        if analysis_cls is DeclaredMutator:
            assert run_spmd(1, prog)[0] == 1.0  # zeroed its copy only
        else:
            with pytest.raises(Exception, match="WriteViolation.*MutatingAnalysis"):
                run_spmd(1, prog)

    def test_clean_analysis_passes_multiple_steps(self):
        a = _run_bridge(CleanAnalysis, np.ones((4, 4)), steps=3)
        assert a.total == 16.0


class TestRetentionGuard:
    def test_retained_array_raises_naming_requester(self):
        with pytest.raises(Exception) as exc_info:
            _run_bridge(RetainingAnalysis, np.zeros((4, 4)))
        msg = str(exc_info.value)
        assert "RetentionViolation" in msg
        assert "RetainingAnalysis" in msg
        assert "'data'" in msg

    def test_retained_mesh_raises(self):
        with pytest.raises(Exception) as exc_info:
            _run_bridge(MeshRetainingAnalysis, np.zeros((4, 4)))
        msg = str(exc_info.value)
        assert "RetentionViolation" in msg
        assert "MeshRetainingAnalysis" in msg
        assert "mesh" in msg

    def test_retention_not_detected_when_disabled(self):
        a = _run_bridge(RetainingAnalysis, np.zeros((4, 4)), sanitize=False)
        assert a.kept is not None

    def test_deep_copy_escape_hatch_is_clean(self):
        a = _run_bridge(DeepCopyingAnalysis, np.arange(16.0).reshape(4, 4), steps=2)
        assert a.kept.num_tuples == 16


class TestGuardedDataAdaptorUnit:
    def test_violations_are_sanitizer_errors(self):
        assert issubclass(WriteViolation, SanitizerError)
        assert issubclass(RetentionViolation, SanitizerError)
        assert issubclass(SanitizerError, RuntimeError)

    def test_metadata_calls_delegate(self):
        field = np.arange(16.0).reshape(4, 4)

        def prog(comm):
            guard = GuardedDataAdaptor(_mk_adaptor(comm, field))
            guard.set_data_time(0.5, 7)
            return (
                guard.get_data_time(),
                guard.get_data_time_step(),
                guard.available_arrays(Association.POINT),
                guard.get_number_of_arrays(Association.POINT),
                guard.get_array_name(Association.POINT, 0),
            )

        t, step, names, count, first = run_spmd(1, prog)[0]
        assert (t, step) == (0.5, 7)
        assert names == ["data"] and count == 1 and first == "data"

    def test_release_data_routes_through_check(self):
        field = np.arange(16.0).reshape(4, 4)

        def prog(comm):
            guard = GuardedDataAdaptor(_mk_adaptor(comm, field))
            kept = guard.get_array(Association.POINT, "data")
            with pytest.raises(RetentionViolation):
                guard.release_data()

        run_spmd(1, prog)

    def test_same_array_leased_once_per_step(self):
        field = np.arange(16.0).reshape(4, 4)

        def prog(comm):
            guard = GuardedDataAdaptor(_mk_adaptor(comm, field))
            a1 = guard.get_array(Association.POINT, "data")
            a2 = guard.get_array(Association.POINT, "data")
            assert a1 is a2
            del a1, a2  # drop our own refs so the retention check passes
            guard.release_data()

        run_spmd(1, prog)


class TestTimerBalanceAtFinalize:
    def test_callers_own_timer_around_finalize_is_not_dangling(self):
        """The in-transit endpoint shares its registry with the bridge and
        times ``bridge.finalize()`` itself: a sanitized bridge's phases
        nest inside the caller's timers and both record."""
        from repro.util import TimerRegistry

        def prog(comm):
            timers = TimerRegistry()
            b = Bridge(
                comm, _mk_adaptor(comm, np.zeros((4, 4))), timers=timers,
                sanitize=True,
            )
            b.add_analysis(CleanAnalysis())
            with timers.time("caller::initialize"):
                b.initialize()
            with timers.time("caller::execute"):
                b.execute(0.0, 0)
            with timers.time("caller::finalize"):
                b.finalize()
            return {n: timers.timer(n).count for n in timers.names()}

        counts = run_spmd(1, prog)[0]
        assert counts["caller::finalize"] == counts["sensei::finalize"] == 1
