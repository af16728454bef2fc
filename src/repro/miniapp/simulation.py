"""The oscillator miniapp SPMD driver.

Per Sec. 3.3: the user specifies the time resolution, duration, and grid
dimensions; the grid is partitioned between processes with a regular
decomposition; each step fills the local subgrid with the sum of the
convolved oscillator values (O(m N^3) per rank per step); ranks may
optionally synchronize after every step (off by default, as in the paper's
experiments).

The simulation owns its field array; the SENSEI instrumentation path exposes
it through a :class:`~repro.core.generic.LazyStructuredDataAdaptor`, so the
*Original* (no SENSEI) and *Baseline/analysis* (SENSEI) configurations of
Sec. 4.1.1 are both available from this one class.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.core.generic import LazyStructuredDataAdaptor
from repro.data import Association
from repro.miniapp.oscillator import Oscillator
from repro.util.decomp import regular_decompose_3d
from repro.util.memory import MemoryTracker
from repro.util.timers import TimerRegistry, timed


class OscillatorSimulation:
    """One rank's share of the oscillator miniapp.

    Parameters
    ----------
    comm:
        Simulated MPI communicator.
    global_dims:
        Global grid point dimensions ``(nx, ny, nz)``.
    oscillators:
        The oscillator set (identical on all ranks).
    dt:
        Time resolution.
    domain:
        Physical domain edge lengths; the grid spans ``[0, domain]``.
    sync:
        Synchronize (barrier) after every step.  "this synchronization is
        off in the experiments below" -- default False.
    """

    FIELD_NAME = "data"

    def __init__(
        self,
        comm,
        global_dims: tuple[int, int, int],
        oscillators: list[Oscillator],
        dt: float = 0.01,
        domain: tuple[float, float, float] = (1.0, 1.0, 1.0),
        sync: bool = False,
        timers: TimerRegistry | None = None,
        memory: MemoryTracker | None = None,
    ) -> None:
        if not oscillators:
            raise ValueError("simulation requires at least one oscillator")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.comm = comm
        self.global_dims = global_dims
        self.oscillators = list(oscillators)
        self.dt = float(dt)
        self.sync = sync
        self.timers = timers if timers is not None else TimerRegistry()
        self.memory = memory
        self.time = 0.0
        self.step = 0
        # Inherit the rank's structured-trace recorder (run_spmd(trace=...))
        # unless the caller already wired one into the registry.
        if self.timers.trace is None:
            self.timers.attach_trace(getattr(comm, "trace_recorder", None))

        with timed(self.timers, "simulation::initialize"):
            self.extent, self.proc_grid, self.proc_coord = regular_decompose_3d(
                global_dims, comm.size, comm.rank
            )
            from repro.util.decomp import Extent

            self.whole_extent = Extent(
                0, global_dims[0] - 1, 0, global_dims[1] - 1, 0, global_dims[2] - 1
            )
            self.spacing = tuple(
                domain[a] / max(global_dims[a] - 1, 1) for a in range(3)
            )
            ni, nj, nk = self.extent.shape
            self.field = np.zeros((ni, nj, nk), dtype=np.float64)
            if self.memory is not None:
                self.memory.track_array(self.field, label="miniapp::field")
            # Precompute local physical coordinates (broadcastable 3-D).
            self._x = (
                self.spacing[0] * (self.extent.i0 + np.arange(ni))
            )[:, None, None]
            self._y = (
                self.spacing[1] * (self.extent.j0 + np.arange(nj))
            )[None, :, None]
            self._z = (
                self.spacing[2] * (self.extent.k0 + np.arange(nk))
            )[None, None, :]
            if self.memory is not None:
                for c in (self._x, self._y, self._z):
                    self.memory.track_array(np.ascontiguousarray(c.reshape(-1)))

    # -- SENSEI instrumentation -------------------------------------------------
    def make_data_adaptor(self, eager: bool = False) -> LazyStructuredDataAdaptor:
        """The miniapp's concrete SENSEI data adaptor (zero-copy provider)."""
        adaptor = LazyStructuredDataAdaptor(
            self.comm,
            self.extent,
            self.whole_extent,
            spacing=self.spacing,
            eager=eager,
        )
        adaptor.register_array(
            Association.POINT, self.FIELD_NAME, lambda: self.field
        )
        return adaptor

    # -- the solver -----------------------------------------------------------------
    def advance(self) -> None:
        """One time step: refill the local block, advance the clock.

        O(m N^3) per step, the paper's cost model.
        """
        inj = getattr(self.comm, "fault_injector", None)
        if inj is not None:
            # Consulted before any state mutation: a death here leaves the
            # sim exactly at the last completed step, so checkpoint
            # restore + replay reconstructs it without a torn update.
            self._consult_injector(inj)
        rec = self.timers.trace
        if rec is not None:
            # Tag the span about to open (and everything nested under it)
            # with the step it computes, before the timer hook fires.
            rec.set_step(self.step + 1)
        with timed(self.timers, "simulation::advance"):
            self.time += self.dt
            self.step += 1
            self.field.fill(0.0)
            for osc in self.oscillators:
                self.field += osc.evaluate(self._x, self._y, self._z, self.time)
            if self.sync:
                self.comm.barrier()

    def _consult_injector(self, inj) -> None:
        action = inj.draw(
            "sim.step",
            self.comm._draw_rank(),
            step=self.step + 1,
            trace=self.timers.trace,
        )
        if action is None:
            return
        if action.kind == "die":
            from repro.faults.injector import InjectedRankDeath

            raise InjectedRankDeath(self.comm.rank, self.step + 1)
        if action.kind == "stall":
            _time.sleep(float(action.params.get("seconds", 0.002)))

    # -- checkpoint/restart ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Value-semantics checkpoint of the rank's solver state."""
        return {
            "time": self.time,
            "step": self.step,
            "field": self.field.copy(),
        }

    def restore(self, snap: dict) -> None:
        """Rewind to a :meth:`snapshot`.  The field buffer is written in
        place so adaptors holding a reference stay valid."""
        self.time = float(snap["time"])
        self.step = int(snap["step"])
        np.copyto(self.field, snap["field"])

    def run(self, n_steps: int, bridge=None) -> None:
        """Run ``n_steps``; when a bridge is given, hand it every step.

        The bridge calling pattern is the paper's: per step, pass current
        data/time to the data adaptor and execute all analyses.
        """
        for _ in range(n_steps):
            self.advance()
            if bridge is not None:
                if not bridge.execute(self.time, self.step):
                    break
