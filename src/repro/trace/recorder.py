"""Per-rank structured run tracing: phase spans and counters.

The paper's evaluation (Sec. 4.1.1) is built from per-rank phase timings --
one-time versus per-timestep costs aggregated across MPI ranks -- but scalar
totals alone cannot answer *when* a rank spent its time, which is what the
SIM-SITU calibration loop (measured runs overlaid on a model) and Fig. 16's
per-iteration sawtooth both need.  This module records what each rank
actually did:

- a :class:`Span` is one begin/end interval of a named phase on one rank,
  tagged with the simulation step it served and the enclosing (parent)
  phase, so spans nest exactly like the ``TimerRegistry`` phases nest;
- a :class:`CounterSample` is one observation of a named quantity on one
  rank (bytes shipped per collective kind, PNG bytes, zero-copy vs copied
  mapping bytes, tracked memory).

Tracing is **off by default**: every producer holds an optional
:class:`TraceRecorder` and guards its hook with a single ``is not None``
check, so the hot path pays one pointer compare when disabled and nothing
else.  A :class:`TraceSession` groups the per-rank recorders of one job
under a shared clock epoch so cross-rank timelines line up.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Span:
    """One completed phase interval on one rank.

    Times are seconds relative to the owning session's epoch; ``step`` is
    the simulation step the span served (None for one-time phases recorded
    before any step); ``parent`` is the enclosing span's name, making the
    per-rank span forest reconstructible without timestamps.
    """

    name: str
    rank: int
    t0: float
    t1: float
    step: int | None = None
    parent: str | None = None
    category: str = "phase"


@dataclass(frozen=True)
class CounterSample:
    """One observation of a named counter on one rank."""

    name: str
    rank: int
    ts: float
    value: float
    category: str = "counter"


class TraceRecorder:
    """Collects spans and counters for one rank.

    Recorders are single-threaded by construction (one per simulated rank,
    used only from that rank's thread), so no locking is needed.  Spans are
    recorded through a begin/end stack, which guarantees the per-rank
    timeline is properly nested -- the invariant the Chrome exporter and the
    report's top-level-span accounting both rely on.
    """

    def __init__(
        self,
        rank: int = 0,
        epoch: float | None = None,
        label: str | None = None,
    ) -> None:
        self.rank = rank
        #: Human-readable identity for multi-tenant traces (the service
        #: layer labels each tenant's recorder with the tenant name); the
        #: Chrome exporter uses it for the thread name.  None keeps the
        #: default ``rank N`` naming.
        self.label = label
        #: Shared time origin (perf_counter value) for the owning session.
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.spans: list[Span] = []
        self.counters: list[CounterSample] = []
        self._stack: list[tuple[str, float]] = []
        self._totals: dict[str, float] = {}
        #: The simulation step in-flight spans are serving (see set_step).
        self.step: int | None = None

    # -- clock --------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the session epoch."""
        return time.perf_counter() - self.epoch

    # -- spans --------------------------------------------------------------
    def set_step(self, step: int) -> None:
        """Tag subsequently *closed* spans with ``step``.

        The step is sampled when a span ends, so a phase that spans the
        step increment (e.g. ``simulation::advance``) is tagged with the
        step it produced.
        """
        self.step = step

    def begin(self, name: str) -> None:
        self._stack.append((name, self.now()))

    def end(self) -> Span:
        if not self._stack:
            raise RuntimeError("TraceRecorder.end() with no open span")
        name, t0 = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        span = Span(name, self.rank, t0, self.now(), self.step, parent)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def complete(
        self,
        name: str,
        t0: float,
        t1: float,
        step: int | None = None,
        parent: str | None = None,
    ) -> Span:
        """Record an externally timed (or *modeled*) span.

        This is the entry point the performance model uses to emit spans in
        the same schema as measured runs, so the two timelines can be
        diffed (the SIM-SITU calibration loop).
        """
        if t1 < t0:
            raise ValueError(f"span {name!r} ends before it begins")
        span = Span(name, self.rank, t0, t1, step, parent)
        self.spans.append(span)
        return span

    # -- counters ------------------------------------------------------------
    def count(self, name: str, delta: float) -> None:
        """Accumulate ``delta`` into a monotonic counter and sample it."""
        total = self._totals.get(name, 0.0) + delta
        self._totals[name] = total
        self.counters.append(CounterSample(name, self.rank, self.now(), total))

    def gauge(self, name: str, value: float) -> None:
        """Sample an absolute (non-accumulating) value."""
        self._totals[name] = float(value)
        self.counters.append(
            CounterSample(name, self.rank, self.now(), float(value))
        )

    def total(self, name: str) -> float:
        """Latest value of a counter/gauge (0.0 if never sampled)."""
        return self._totals.get(name, 0.0)

    def absorb(self, spans, counters, totals) -> None:
        """Merge deltas recorded by another process's copy of this recorder.

        The process backend hands each rank process a (pickled or forked)
        copy of that rank's recorder; mutations stay in the child, so the
        worker ships back the spans/counters it added plus per-counter total
        *deltas*, and the launcher folds them in here.  The epoch is
        ``perf_counter``-based and system-wide, so child span times are
        already on this recorder's timeline.
        """
        self.spans.extend(spans)
        self.counters.extend(counters)
        for name, delta in totals.items():
            self._totals[name] = self._totals.get(name, 0.0) + delta

    def counter_names(self) -> list[str]:
        return sorted(self._totals)


class TraceSession:
    """The per-rank recorders of one job, under one clock epoch.

    ``run_spmd(..., trace=session)`` attaches ``session.recorder(rank)`` to
    every rank's communicator; components discover the recorder from there
    (see :class:`repro.core.bridge.Bridge`).  After the job completes the
    session holds the full structured trace, exportable to Chrome trace
    JSON via :meth:`export`.
    """

    def __init__(self, name: str = "measured") -> None:
        self.name = name
        self.epoch = time.perf_counter()
        self._recorders: dict[int, TraceRecorder] = {}

    def recorder(self, rank: int = 0, label: str | None = None) -> TraceRecorder:
        rec = self._recorders.get(rank)
        if rec is None:
            rec = TraceRecorder(rank, epoch=self.epoch, label=label)
            self._recorders[rank] = rec
        elif label is not None and rec.label is None:
            rec.label = label
        return rec

    @property
    def ranks(self) -> list[int]:
        return sorted(self._recorders)

    def spans(self) -> Iterator[Span]:
        for rank in self.ranks:
            yield from self._recorders[rank].spans

    def counters(self) -> Iterator[CounterSample]:
        for rank in self.ranks:
            yield from self._recorders[rank].counters

    def to_chrome(self) -> dict:
        """The session as a Chrome-trace-event (Perfetto-loadable) dict."""
        from repro.trace.chrome import session_to_chrome

        return session_to_chrome(self)

    def export(self, path) -> None:
        """Write the session as Chrome trace JSON to ``path``."""
        from repro.trace.chrome import export_chrome_trace

        export_chrome_trace(self, path)
