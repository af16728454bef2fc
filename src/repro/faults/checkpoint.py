"""Periodic checkpoint/restart of simulation state.

Rank death is the one fault retry cannot absorb: the work is gone.  The
recovery contract here is the standard HPC one -- checkpoint every ``k``
steps, and on death restore the last checkpoint and recompute forward.
:class:`CheckpointManager` holds per-rank in-memory snapshots of any object
exposing the ``snapshot()`` / ``restore(snap)`` pair
(:class:`~repro.miniapp.simulation.OscillatorSimulation` does); the chaos
harness drives the catch-up replay.
"""

from __future__ import annotations

from typing import Any, Protocol, TYPE_CHECKING, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import TraceRecorder


@runtime_checkable
class Checkpointable(Protocol):
    """Anything with value-semantics snapshot/restore of its state."""

    step: int

    def snapshot(self) -> dict: ...

    def restore(self, snap: dict) -> None: ...


class CheckpointManager:
    """Keeps the latest periodic snapshot of one rank's simulation.

    ``interval`` is in steps; :meth:`maybe_save` snapshots whenever the
    object's step is a multiple of it.  Only the most recent checkpoint is
    retained (the miniapp's state is one field block; production codes
    would rotate N).  :meth:`restore` rewinds and counts the restore --
    the count feeds the recovery report and the
    ``resilience::checkpoint_restores`` trace counter.
    """

    def __init__(self, interval: int = 5) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1 step")
        self.interval = interval
        self._snap: dict | None = None
        self._snap_step: int | None = None
        self.saves = 0
        self.restores = 0

    def save(self, sim: Checkpointable) -> None:
        """Unconditionally checkpoint ``sim`` now."""
        self._snap = sim.snapshot()
        self._snap_step = sim.step
        self.saves += 1

    def maybe_save(self, sim: Checkpointable) -> bool:
        """Checkpoint if ``sim.step`` falls on the interval; returns
        whether a snapshot was taken."""
        if sim.step % self.interval == 0 and sim.step != self._snap_step:
            self.save(sim)
            return True
        return False

    def restore(
        self, sim: Checkpointable, trace: "TraceRecorder | None" = None
    ) -> int:
        """Rewind ``sim`` to the retained checkpoint; returns its step."""
        if self._snap is None:
            raise RuntimeError("no checkpoint to restore from")
        sim.restore(self._snap)
        self.restores += 1
        if trace is not None:
            trace.count("resilience::checkpoint_restores", 1)
        return sim.step

    def recover_step(
        self,
        sim: Any,
        advance: "callable",
        trace: "TraceRecorder | None" = None,
    ) -> int:
        """Restore and replay forward to just before the step that died.

        ``advance`` is the sim's step function (called with no arguments);
        the caller re-issues the failed step itself.  Returns the number of
        replayed steps.  One-shot death events do not re-fire during the
        replay (see :class:`~repro.faults.plan.FaultEvent`), so the replay
        terminates.
        """
        target = sim.step  # the step counter before the failed advance
        self.restore(sim, trace=trace)
        replayed = 0
        while sim.step < target:
            advance()
            replayed += 1
        return replayed
