"""Hierarchical phase timers.

The paper's measurement methodology (Sec. 4.1.1) distinguishes one-time costs
(``initialize``, ``analysis initialize``, ``finalize``) from recurring
per-timestep costs (``simulation``, ``analysis``).  Every instrumented
component in this repo reports into a :class:`TimerRegistry` so benchmarks can
recover exactly those phase breakdowns.

Timers are per-rank objects; the launcher gives each simulated MPI rank its
own registry, and harness code aggregates (mean / max / sum) across ranks the
same way the paper aggregates across MPI ranks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import TraceRecorder


@dataclass
class Timer:
    """Accumulating timer for one named phase.

    Records total elapsed seconds, call count, and min/max per-call times so
    per-timestep averages (Fig. 6) and worst-case iterations (Fig. 16) can
    both be derived from a single run.
    """

    name: str
    total: float = 0.0
    count: int = 0
    min_time: float = float("inf")
    max_time: float = 0.0
    _t0: float | None = None
    #: Per-call samples, kept only when ``keep_samples`` is set; used by the
    #: AVF-LESLIE per-iteration study (Fig. 16) where the sawtooth matters.
    samples: list[float] = field(default_factory=list)
    keep_samples: bool = False

    # Private: :meth:`TimerRegistry.time` (and :func:`timed`) is the only
    # way to time a block, so a start without its stop cannot be written.
    def _start(self) -> None:
        if self._t0 is not None:
            raise RuntimeError(f"timer {self.name!r} already running")
        self._t0 = time.perf_counter()

    def _stop(self) -> None:
        if self._t0 is None:
            raise RuntimeError(f"timer {self.name!r} not running")
        elapsed = time.perf_counter() - self._t0
        self._t0 = None
        self.add(elapsed)

    def add(self, elapsed: float) -> None:
        """Record an externally measured (or modeled) duration."""
        self.total += elapsed
        self.count += 1
        self.min_time = min(self.min_time, elapsed)
        self.max_time = max(self.max_time, elapsed)
        if self.keep_samples:
            self.samples.append(elapsed)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Timer({self.name!r}, total={self.total:.6f}s, "
            f"count={self.count}, mean={self.mean:.6f}s)"
        )


class TimerRegistry:
    """A flat namespace of :class:`Timer` objects for one rank.

    Phase names use ``::`` separators by convention, mirroring the paper's
    labels, e.g. ``"sensei::initialize"``, ``"adios::advance"``,
    ``"avf_insitu::analyze"``.
    """

    def __init__(
        self, keep_samples: bool = False, trace: "TraceRecorder | None" = None
    ) -> None:
        self._timers: dict[str, Timer] = {}
        self._keep_samples = keep_samples
        #: Optional structured-trace sink (see :mod:`repro.trace`).  When
        #: attached, every timed block also records a span; when None the
        #: hot path pays exactly one pointer comparison.
        self.trace: "TraceRecorder | None" = trace

    def attach_trace(self, recorder: "TraceRecorder | None") -> None:
        """Attach (or detach, with None) a structured-trace recorder."""
        self.trace = recorder

    def timer(self, name: str) -> Timer:
        t = self._timers.get(name)
        if t is None:
            t = Timer(name, keep_samples=self._keep_samples)
            self._timers[name] = t
        return t

    @contextmanager
    def time(self, name: str):
        t = self.timer(name)
        rec = self.trace
        if rec is not None:
            rec.begin(name)
        t._start()
        try:
            yield t
        finally:
            t._stop()
            if rec is not None:
                rec.end()

    def add(self, name: str, elapsed: float) -> None:
        self.timer(name).add(elapsed)
        rec = self.trace
        if rec is not None:
            now = rec.now()
            rec.complete(name, now - elapsed, now)

    def total(self, name: str) -> float:
        t = self._timers.get(name)
        return t.total if t else 0.0

    def mean(self, name: str) -> float:
        t = self._timers.get(name)
        return t.mean if t else 0.0

    def names(self) -> list[str]:
        return sorted(self._timers)

    def as_dict(self) -> dict[str, dict]:
        """Serializable snapshot, used to ship timings across ranks.

        Lossless: includes ``min`` (0.0 for never-fired timers, so the
        snapshot stays JSON-clean; :meth:`merge_snapshot` keeps the +inf
        sentinel) and, for sample-keeping timers, the per-call ``samples``
        list -- without which the Fig. 16 per-iteration sawtooth could not
        survive a cross-rank merge.
        """
        snap: dict[str, dict] = {}
        for name, t in self._timers.items():
            entry: dict = {
                "total": t.total,
                "count": float(t.count),
                "mean": t.mean,
                "min": t.min_time if t.count else 0.0,
                "max": t.max_time,
            }
            if t.keep_samples:
                entry["samples"] = list(t.samples)
            snap[name] = entry
        return snap

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        """Fold an :meth:`as_dict` snapshot into this registry.

        This is the cross-rank aggregation path (fold each rank's
        snapshot into one registry): totals and counts sum, min/max fold,
        and shipped samples are preserved.
        """
        for name, entry in snapshot.items():
            mine = self.timer(name)
            count = int(entry["count"])
            mine.total += float(entry["total"])
            mine.count += count
            if count:
                mine.min_time = min(mine.min_time, float(entry["min"]))
            mine.max_time = max(mine.max_time, float(entry["max"]))
            samples = entry.get("samples")
            if samples:
                mine.keep_samples = True
                mine.samples.extend(float(s) for s in samples)


@contextmanager
def timed(registry: TimerRegistry | None, name: str):
    """Time a block against ``registry`` if one is provided, else no-op.

    Lets library code stay instrumentable without forcing every caller to
    construct a registry.
    """
    if registry is None:
        yield None
        return
    with registry.time(name) as t:
        yield t
