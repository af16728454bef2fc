"""Memory high-water-mark accounting.

The paper measures "memory footprint ... as the memory high water mark",
summed over MPI ranks (Sec. 4.1.1), and for Nyx tracks VmHWM (Sec. 4.2.3).
An OS-level VmHWM is meaningless for thread-backed simulated ranks, so this
repo uses explicit allocation accounting instead: the data model, the miniapp,
the analyses, and the infrastructures all register their buffers with the
per-rank :class:`MemoryTracker`.

Zero-copy views register zero bytes, which is precisely the mechanism that
makes the SENSEI-interface memory claim (Fig. 4: Original == Autocorrelation)
observable in this reproduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import TraceRecorder

#: Per-label events kept for diagnostics; older events are dropped (the
#: count of dropped events is preserved so totals stay auditable).
HISTORY_LIMIT = 32


class MemoryAccountingError(RuntimeError):
    """An allocate/free imbalance: freeing more than is live, globally or
    under one label.  Carries the label's allocate/free history so
    double-frees are diagnosable from the message alone."""


class MemoryTracker:
    """Tracks current and peak tracked bytes for one rank.

    ``baseline`` models the startup executable footprint (Fig. 7 plots the
    startup footprint and the high-water mark separately): infrastructures
    add their static footprint (e.g. a Catalyst Edition's code size) at
    initialize time via :meth:`add_static`.
    """

    def __init__(self, baseline_bytes: int = 0) -> None:
        self.baseline = int(baseline_bytes)
        self.current = int(baseline_bytes)
        self.peak = int(baseline_bytes)
        self.static = int(baseline_bytes)
        self._named: dict[str, int] = {}
        self._history: dict[str, list[tuple[str, int]]] = {}
        self._history_dropped: dict[str, int] = {}
        #: Optional structured-trace sink; every balance change then gauges
        #: ``memory::tracked_bytes``.  None costs one pointer comparison.
        self.trace: "TraceRecorder | None" = None

    def attach_trace(self, recorder: "TraceRecorder | None") -> None:
        """Attach (or detach, with None) a structured-trace recorder."""
        self.trace = recorder

    def _gauge(self) -> None:
        rec = self.trace
        if rec is not None:
            rec.gauge("memory::tracked_bytes", self.current)

    def _record(self, label: str, event: str, nbytes: int) -> None:
        events = self._history.setdefault(label, [])
        events.append((event, nbytes))
        if len(events) > HISTORY_LIMIT:
            del events[0]
            self._history_dropped[label] = self._history_dropped.get(label, 0) + 1

    def history(self, label: str) -> list[tuple[str, int]]:
        """The label's recorded ``(event, nbytes)`` sequence (most recent
        ``HISTORY_LIMIT`` events)."""
        return list(self._history.get(label, []))

    def _format_history(self, label: str) -> str:
        events = self._history.get(label)
        if not events:
            return f"  (no recorded events for label {label!r})"
        lines = [f"  {event:>9} {nbytes:>12d} B" for event, nbytes in events]
        dropped = self._history_dropped.get(label, 0)
        if dropped:
            lines.insert(0, f"  ... {dropped} earlier event(s) dropped ...")
        return "\n".join(lines)

    def allocate(self, nbytes: int, label: str = "") -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        self.current += int(nbytes)
        if label:
            self._named[label] = self._named.get(label, 0) + int(nbytes)
            self._record(label, "allocate", int(nbytes))
        if self.current > self.peak:
            self.peak = self.current
        self._gauge()

    def free(self, nbytes: int, label: str = "") -> None:
        if nbytes < 0:
            raise ValueError("free size must be non-negative")
        nbytes = int(nbytes)
        if self.current - nbytes < 0:
            raise MemoryAccountingError(
                f"free({nbytes}, label={label!r}) would drive tracked bytes "
                f"below zero (current={self.current}): double free?\n"
                f"history for {label!r}:\n{self._format_history(label)}"
            )
        if label and self._named.get(label, 0) - nbytes < 0:
            raise MemoryAccountingError(
                f"free({nbytes}, label={label!r}) exceeds the label's live "
                f"balance ({self._named.get(label, 0)} B): double free or "
                f"mislabeled allocation?\n"
                f"history for {label!r}:\n{self._format_history(label)}"
            )
        self.current -= nbytes
        if label:
            self._named[label] = self._named.get(label, 0) - nbytes
            self._record(label, "free", nbytes)
        self._gauge()

    def add_static(self, nbytes: int, label: str = "") -> None:
        """Register a permanent footprint (library code, LUTs, editions)."""
        self.static += int(nbytes)
        self.current += int(nbytes)
        if label:
            self._named[label] = self._named.get(label, 0) + int(nbytes)
            self._record(label, "static", int(nbytes))
        if self.current > self.peak:
            self.peak = self.current
        self._gauge()

    def track_array(self, array: np.ndarray, label: str = "") -> np.ndarray:
        """Register a numpy array's buffer if this rank owns it.

        Views (``array.base is not None``) and arrays that do not own their
        data are considered zero-copy and register nothing -- the accounting
        rule the SENSEI zero-copy mapping relies on.
        """
        if array.base is None and array.flags.owndata:
            self.allocate(array.nbytes, label=label)
        return array

    def named(self, label: str) -> int:
        return self._named.get(label, 0)

    @property
    def high_water(self) -> int:
        return self.peak

    def reset_peak(self) -> None:
        self.peak = self.current


def sum_high_water(trackers: Iterable[MemoryTracker]) -> int:
    """Sum of per-rank high-water marks, the paper's aggregate metric."""
    return sum(t.peak for t in trackers)
