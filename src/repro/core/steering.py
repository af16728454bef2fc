"""Live connection and computational steering.

Catalyst can connect "with the ParaView GUI for live, interactive
visualization"; Libsim "enables VisIt to connect interactively to running
simulations for live exploration"; and PHASTA "allows many of its input
parameters to be reconfigured on the fly.  In this way the SENSEI results
close the loop on live problem redefinition" (Secs. 2.2.3, 4.2.1).

Two pieces reproduce that loop:

- :class:`LiveConnection` -- a thread-safe channel between a running
  simulation and an external controller ("the GUI"): the simulation side
  publishes rendered frames and metrics; the controller side polls them and
  submits parameter updates.
- :class:`SteeringAnalysis` -- an analysis adaptor that, each step, drains
  pending updates from the connection on rank 0, *broadcasts them* so every
  rank applies the same change at the same step (steering must stay
  SPMD-consistent), and applies them through registered parameter setters.
  It can also publish a per-step metric and a frame from another analysis.

The controller may also request a stop, which propagates through the
bridge's steering return value.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor


#: Frames a :class:`LiveConnection` keeps; older ones are dropped.
_MAX_FRAMES = 16


@dataclass
class Frame:
    """One published visualization frame."""

    step: int
    time: float
    png: bytes


class LiveConnection:
    """Thread-safe mailbox between simulation rank 0 and a controller.

    The controller runs outside the SPMD world (another thread in this
    runtime; a socket client in production systems).  All methods are safe
    to call from either side.
    """

    def __init__(self) -> None:
        # The connection is an in-memory channel: both endpoints must live
        # in the process that built it.  On the process SPMD backend each
        # rank would get a private copy and every publish would silently
        # vanish, so any use from another process fails fast instead.
        self._owner_pid = os.getpid()
        self._lock = threading.Condition()
        self._updates: list[dict[str, Any]] = []
        self._frames: list[Frame] = []
        self._metrics: list[tuple[int, float, float]] = []  # step, time, value
        self._stop = False

    def _check_same_process(self) -> None:
        if os.getpid() != self._owner_pid:
            raise RuntimeError(
                "LiveConnection is an in-memory, shared-address-space channel "
                "and cannot cross a process boundary: this rank runs on the "
                "process SPMD backend in a different process from the "
                "controller. Run steering jobs on the thread backend "
                '(run_spmd(..., backend="thread")) or bridge the connection '
                "over a real transport."
            )

    # -- controller side -----------------------------------------------------
    def submit_update(self, **parameters: Any) -> None:
        """Queue a parameter change; applied at the next SENSEI step."""
        self._check_same_process()
        if not parameters:
            raise ValueError("submit_update requires at least one parameter")
        with self._lock:
            self._updates.append(dict(parameters))
            self._lock.notify_all()

    def request_stop(self) -> None:
        self._check_same_process()
        with self._lock:
            self._stop = True

    def wait_for_frame(self, min_step: int, timeout: float = 30.0) -> Frame | None:
        """Block until a frame at/after ``min_step`` is published."""
        self._check_same_process()
        import time

        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                for f in reversed(self._frames):
                    if f.step >= min_step:
                        return f
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._lock.wait(remaining)

    def metrics(self) -> list[tuple[int, float, float]]:
        self._check_same_process()
        with self._lock:
            return list(self._metrics)

    # -- simulation side -------------------------------------------------------
    def drain_updates(self) -> list[dict[str, Any]]:
        self._check_same_process()
        with self._lock:
            out, self._updates = self._updates, []
            return out

    def stop_requested(self) -> bool:
        self._check_same_process()
        with self._lock:
            return self._stop

    def publish_frame(self, frame: Frame) -> None:
        self._check_same_process()
        with self._lock:
            self._frames.append(frame)
            del self._frames[:-_MAX_FRAMES]
            self._lock.notify_all()

    def publish_metric(self, step: int, time_: float, value: float) -> None:
        self._check_same_process()
        with self._lock:
            self._metrics.append((step, time_, value))
            self._lock.notify_all()


ParameterSetter = Callable[[Any], None]
MetricFn = Callable[[DataAdaptor], float]


class SteeringAnalysis(AnalysisAdaptor):
    """Applies live parameter updates and publishes frames/metrics.

    Parameters
    ----------
    connection:
        The :class:`LiveConnection` shared with the controller.  Only rank
        0 touches it; changes are broadcast so every rank stays consistent.
    parameters:
        Mapping of steerable parameter name -> setter callable.
    metric:
        Optional per-step scalar computed from the data adaptor and
        published for the controller (e.g. a wake/loss figure the engineer
        watches while tuning).
    frame_source:
        Optional analysis adaptor exposing ``last_png`` (Catalyst, Libsim,
        PhastaSliceRender); its most recent image is forwarded each step.
    """

    def __init__(
        self,
        connection: LiveConnection,
        parameters: dict[str, ParameterSetter],
        metric: MetricFn | None = None,
        frame_source: AnalysisAdaptor | None = None,
    ) -> None:
        super().__init__()
        self.connection = connection
        self.parameters = dict(parameters)
        self.metric = metric
        self.frame_source = frame_source
        self._comm = None
        self.applied: list[dict[str, Any]] = []

    def initialize(self, comm) -> None:
        self._comm = comm

    def execute(self, data: DataAdaptor) -> bool:
        # Rank 0 drains controller state; everyone receives the same view.
        if self._comm.rank == 0:
            payload = {
                "updates": self.connection.drain_updates(),
                "stop": self.connection.stop_requested(),
            }
        else:
            payload = None
        payload = self._comm.bcast(payload, root=0)

        for update in payload["updates"]:
            unknown = set(update) - set(self.parameters)
            if unknown:
                raise KeyError(
                    f"steering update for unknown parameter(s) {sorted(unknown)}; "
                    f"steerable: {sorted(self.parameters)}"
                )
            for name, value in update.items():
                self.parameters[name](value)
            self.applied.append(update)

        if self.metric is not None:
            value = self.metric(data)
            if self._comm.rank == 0:
                self.connection.publish_metric(
                    data.get_data_time_step(), data.get_data_time(), value
                )
        if (
            self.frame_source is not None
            and self._comm.rank == 0
            and getattr(self.frame_source, "last_png", None) is not None
        ):
            self.connection.publish_frame(
                Frame(
                    step=data.get_data_time_step(),
                    time=data.get_data_time(),
                    png=self.frame_source.last_png,
                )
            )
        return not payload["stop"]

    def finalize(self) -> dict | None:
        if self._comm is not None and self._comm.rank == 0:
            return {"updates_applied": len(self.applied)}
        return None
