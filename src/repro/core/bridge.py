"""The in situ bridge: assembles data adaptor + analyses, drives each step.

"A typical bridge implementation will initialize the data adaptor and one or
more analysis adaptors during the initialization phase of the simulation;
then for each time step pass the current simulation data arrays and any other
metadata to the data adaptor and call execute on the analysis adaptors."
(Sec. 3.2.)

The bridge is also the measurement point: it times ``initialize``,
``analysis::initialize``, per-step per-analysis ``execute``, and
``finalize`` -- exactly the phase breakdown of Figs. 5-6.

With ``sanitize=True`` the bridge additionally routes all analysis data
access through :class:`repro.sanitize.GuardedDataAdaptor`: analyses receive
write-protected zero-copy views, buffer fingerprints are re-verified after
each ``execute``, and retention past ``release_data()`` is detected via
weakrefs -- violations raise naming the offending analysis.  The mode is off
by default and adds nothing to the hot path when disabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.util.timers import TimerRegistry, timed

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi import Communicator
    from repro.sanitize import GuardedDataAdaptor
    from repro.trace import TraceRecorder
    from repro.util import MemoryTracker


class Bridge:
    """Drives a set of :class:`AnalysisAdaptor` against one :class:`DataAdaptor`."""

    def __init__(
        self,
        comm: "Communicator",
        data_adaptor: DataAdaptor,
        timers: TimerRegistry | None = None,
        memory: "MemoryTracker | None" = None,
        sanitize: bool = False,
        trace: "TraceRecorder | None" = None,
    ) -> None:
        self.comm = comm
        self.data_adaptor = data_adaptor
        self.timers = timers if timers is not None else TimerRegistry()
        self.memory = memory
        self.sanitize = bool(sanitize)
        # Resolve the structured-trace recorder: an explicit argument wins;
        # otherwise inherit whatever run_spmd(trace=...) attached to the
        # communicator.  Attaching to the timer registry makes every
        # timed() site in the bridge, analyses, infrastructures, and
        # miniapp emit spans with no further wiring.
        if trace is None:
            trace = getattr(comm, "trace_recorder", None)
        self.trace: "TraceRecorder | None" = trace
        if trace is not None:
            self.timers.attach_trace(trace)
            if memory is not None:
                memory.attach_trace(trace)
        self._guard: "GuardedDataAdaptor | None" = None
        if self.sanitize:
            # Imported lazily so the sanitizer costs nothing when disabled.
            from repro.sanitize import GuardedDataAdaptor as _Guard

            self._guard = _Guard(data_adaptor)
        self._analyses: list[AnalysisAdaptor] = []
        #: Sanitize mode: timers some bridge phase started and left running.
        #: A timer already running when a phase is *entered* is the caller's
        #: (the in-transit endpoint times ``bridge.finalize()`` on the very
        #: registry it shares with the bridge) and is never counted.
        self._leaked_timers: set[str] = set()
        self._initialized = False
        self._finalized = False
        self._final_results: dict[str, object] = {}

    @property
    def analyses(self) -> list[AnalysisAdaptor]:
        return list(self._analyses)

    def add_analysis(self, analysis: AnalysisAdaptor) -> None:
        if self._initialized:
            raise RuntimeError("cannot add analyses after initialize()")
        self._analyses.append(analysis)

    def initialize(self) -> None:
        """One-time analysis setup ("analysis initialize" in Fig. 5)."""
        if self._initialized:
            raise RuntimeError("bridge already initialized")
        self._initialized = True
        with self._phase("sensei::initialize"):
            for a in self._analyses:
                a.set_instrumentation(self.timers, self.memory)
                with timed(self.timers, f"sensei::initialize::{a.name}"):
                    a.initialize(self.comm)

    @contextmanager
    def _phase(self, name: str):
        """Time one bridge phase; under sanitize also note the timers it
        started and left running."""
        before = set(self.timers.active()) if self.sanitize else None
        with timed(self.timers, name):
            yield
        if before is not None:
            self._leaked_timers |= set(self.timers.active()) - before

    def execute(self, time: float, step: int) -> bool:
        """Hand the current step to every analysis; returns False if any
        analysis requests the simulation stop."""
        if not self._initialized:
            raise RuntimeError("bridge.execute() before initialize()")
        if self._finalized:
            raise RuntimeError("bridge.execute() after finalize()")
        rec = self.trace
        if rec is not None:
            rec.set_step(step)
        self.data_adaptor.set_data_time(time, step)
        if self._guard is not None:
            keep_going = self._execute_sanitized(time, step)
        else:
            keep_going = True
            with timed(self.timers, "sensei::execute"):
                for a in self._analyses:
                    with timed(self.timers, f"sensei::execute::{a.name}"):
                        keep_going = a.execute(self.data_adaptor) and keep_going
            self.data_adaptor.release_data()
        return keep_going

    def _execute_sanitized(self, time: float, step: int) -> bool:
        guard = self._guard
        assert guard is not None
        guard.set_data_time(time, step)
        keep_going = True
        with self._phase("sensei::execute"):
            for a in self._analyses:
                guard.begin_analysis(a)
                with timed(self.timers, f"sensei::execute::{a.name}"):
                    keep_going = a.execute(guard) and keep_going
                guard.verify_analysis(a)
        guard.release_and_check()
        return keep_going

    def finalize(self) -> dict[str, object]:
        """Finalize every analysis; returns their results keyed by name.

        Idempotent: a second call returns the first call's cached results
        without re-finalizing any analysis.  Recovery paths need this --
        when a staged job degrades or unwinds through an error handler,
        finalize can legitimately be reached twice (the normal epilogue and
        the recovery epilogue), and analyses must not double-close their
        outputs.  ``execute`` after finalize still raises.
        """
        if not self._initialized:
            raise RuntimeError("bridge.finalize() before initialize()")
        if self._finalized:
            return self._final_results
        self._finalized = True
        results: dict[str, object] = {}
        with self._phase("sensei::finalize"):
            for a in self._analyses:
                with timed(self.timers, f"sensei::finalize::{a.name}"):
                    out = a.finalize()
                if out is not None:
                    results[a.name] = out
        if self.sanitize:
            dangling = sorted(self._leaked_timers & set(self.timers.active()))
            if dangling:
                from repro.sanitize import SanitizerError

                raise SanitizerError(
                    "timers still running at bridge finalize (unbalanced "
                    f"start/stop): {', '.join(dangling)}.  Phase totals "
                    "derived from these timers (Figs. 5-6) would be wrong."
                )
        self._final_results = results
        return results
