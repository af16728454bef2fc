"""Discrete-event simulation of staged (in transit) pipelines.

The FlexPath deployment is a two-stage pipeline with a one-step flow-control
window: the writer cannot ship step N+1 until the endpoint has accepted step
N.  ``adios::analysis`` on the writer therefore contains both transmission
time and "any blocking time if the reader is not yet ready" (Sec. 4.1.4).
This tiny event simulator reproduces that coupling exactly, so the modeled
Fig. 8/9 bars carry the right blocking behaviour at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import TraceSession


@dataclass
class StagingTimeline:
    """Per-step and aggregate timings of a simulated staged run."""

    n_steps: int
    writer_advance: list[float]
    writer_analysis: list[float]  # transmission + blocking
    endpoint_busy: list[float]
    endpoint_idle: list[float]
    makespan: float

    @property
    def writer_analysis_mean(self) -> float:
        return sum(self.writer_analysis) / self.n_steps

    @property
    def writer_advance_mean(self) -> float:
        return sum(self.writer_advance) / self.n_steps


def simulate_staging(
    n_steps: int,
    sim_time: float,
    advance_time: float,
    transfer_time: float,
    endpoint_time: float,
    window: int = 1,
    trace: "TraceSession | None" = None,
) -> StagingTimeline:
    """Simulate ``n_steps`` of writer -> endpoint staging.

    Parameters
    ----------
    sim_time:
        Solver time per step on the writer.
    advance_time:
        Metadata update cost per step (``adios::advance``).
    transfer_time:
        Pure data transmission cost per step.
    endpoint_time:
        Endpoint analysis cost per step.
    window:
        Flow-control depth: how many steps the endpoint may lag before the
        writer blocks (our native implementation uses 1).
    trace:
        Optional :class:`repro.trace.TraceSession` receiving *modeled*
        spans in the measured-trace schema: the writer's timeline on rank
        0 (``simulation::advance`` / ``adios::advance`` /
        ``adios::analysis``, the latter containing the flow-control
        blocking the paper measures there) and the endpoint's on rank 1
        (``endpoint::analysis``), so a real FlexPath run and the model
        can be overlaid in one Perfetto view or diffed per phase.
    """
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    writer_rec = trace.recorder(0) if trace is not None else None
    endpoint_rec = trace.recorder(1) if trace is not None else None
    writer_clock = 0.0
    writer_advance: list[float] = []
    writer_analysis: list[float] = []
    endpoint_busy: list[float] = []
    endpoint_idle: list[float] = []
    # endpoint_free[s] = time the endpoint finishes analysing step s.
    endpoint_finish: list[float] = []
    endpoint_clock = 0.0
    for s in range(n_steps):
        step = s + 1
        if writer_rec is not None:
            writer_rec.complete(
                "simulation::advance", writer_clock, writer_clock + sim_time,
                step=step,
            )
        writer_clock += sim_time
        writer_advance.append(advance_time)
        if writer_rec is not None:
            writer_rec.complete(
                "adios::advance", writer_clock, writer_clock + advance_time,
                step=step,
            )
        writer_clock += advance_time
        # Blocking: may not run ahead of the endpoint by more than `window`.
        ready_at = 0.0 if s < window else endpoint_finish[s - window]
        wait = max(0.0, ready_at - writer_clock)
        if writer_rec is not None:
            writer_rec.complete(
                "adios::analysis", writer_clock,
                writer_clock + wait + transfer_time, step=step,
            )
        writer_clock += wait + transfer_time
        writer_analysis.append(wait + transfer_time)
        # Endpoint starts once the data has landed and it is free.
        start = max(writer_clock, endpoint_clock)
        endpoint_idle.append(max(0.0, start - endpoint_clock))
        if endpoint_rec is not None:
            endpoint_rec.complete(
                "endpoint::analysis", start, start + endpoint_time, step=step
            )
        endpoint_clock = start + endpoint_time
        endpoint_busy.append(endpoint_time)
        endpoint_finish.append(endpoint_clock)
    return StagingTimeline(
        n_steps=n_steps,
        writer_advance=writer_advance,
        writer_analysis=writer_analysis,
        endpoint_busy=endpoint_busy,
        endpoint_idle=endpoint_idle,
        makespan=max(writer_clock, endpoint_clock),
    )
