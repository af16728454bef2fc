"""Modeled spans: the performance model emitted in the trace schema.

SIM-SITU's thesis is that an in situ performance model is only trustworthy
once it has been *calibrated against instrumented real runs*.  The mechanism
here is schema unification: the discrete-event / analytic model
(:mod:`repro.perf`) emits the same :class:`~repro.trace.recorder.Span`
records a traced real run produces, so one ``repro report`` pipeline (and
one Perfetto timeline) serves both, and
:func:`repro.trace.report.diff_reports` quantifies the per-phase model
error directly.

:func:`session_from_breakdown` unrolls a
:class:`~repro.perf.miniapp_model.PhaseBreakdown` (mean per-rank phase
costs) into an idealized per-rank timeline: initialize, ``steps`` x
(advance + analysis [+ write]), finalize.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.trace.recorder import TraceSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.miniapp_model import PhaseBreakdown


def session_from_breakdown(
    breakdown: "PhaseBreakdown",
    steps: int,
    ranks: int = 1,
) -> TraceSession:
    """Unroll a modeled phase breakdown into per-rank spans.

    The model's costs are per-rank means, so every rank gets the identical
    idealized timeline; ``diff_reports`` against a measured trace then
    shows both the mean shift (model error) and, via the measured max
    column, the rank imbalance the model does not capture.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if ranks <= 0:
        raise ValueError("ranks must be positive")
    session = TraceSession(name=f"modeled[{breakdown.config_name}]")
    for rank in range(ranks):
        rec = session.recorder(rank)
        t = 0.0
        if breakdown.sim_initialize:
            rec.complete("simulation::initialize", t, t + breakdown.sim_initialize)
            t += breakdown.sim_initialize
        if breakdown.analysis_initialize:
            rec.complete("sensei::initialize", t, t + breakdown.analysis_initialize)
            t += breakdown.analysis_initialize
        for step in range(1, steps + 1):
            if breakdown.sim_per_step:
                rec.complete(
                    "simulation::advance", t, t + breakdown.sim_per_step, step=step
                )
                t += breakdown.sim_per_step
            if breakdown.analysis_per_step:
                rec.complete(
                    "sensei::execute", t, t + breakdown.analysis_per_step, step=step
                )
                t += breakdown.analysis_per_step
            if breakdown.write_per_step:
                rec.complete(
                    "io::write", t, t + breakdown.write_per_step, step=step
                )
                t += breakdown.write_per_step
        if breakdown.finalize:
            rec.complete("sensei::finalize", t, t + breakdown.finalize)
    return session
