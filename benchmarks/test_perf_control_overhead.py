"""Overhead of the autotuning controller when it is disabled.

The controller rides two hot paths: the bridge's per-step ``end_step``
hook (one ``is not None`` check when no controller is attached) and the
trace recorder's span-subscriber fan-out (one truthiness check on an empty
list per completed span).  The design contract (ISSUE 8) is that a run
with no controller pays far under 1% of a simulation step for all of it,
held here as an absolute per-step budget::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_control_overhead.py -s

A second measurement bounds the *enabled* cost: one full controller
decision (belief update + a plan sweep over ``candidate_configs()`` +
journal append), which runs once per step and must stay far below the step
it tunes.
"""

from __future__ import annotations

from repro.mpi import run_spmd
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.trace import TraceRecorder

#: Guard sites one step actually hits: 1 bridge end_step check plus a
#: span-subscriber truthiness check per completed span (~16 spans/step in
#: the traced chaos job); doubled for headroom.
GUARDS_PER_STEP = 32

#: All of a step's guards together.  Absolute, so the gate does not loosen
#: or tighten with the step it rides: 5 us is under 1% of a 0.56 ms step,
#: several times faster than the 64^3 refill timed below.
GUARD_BUDGET_S = 5e-6

GUARD_ITERS = 200_000


def test_disabled_controller_within_budget(report, best_of):
    """The is-None / empty-subscribers guards vs GUARD_BUDGET_S."""

    def prog(comm):
        sim = OscillatorSimulation(comm, (64, 64, 64), default_oscillators(), dt=0.01)
        t_step = best_of(sim.advance, 5)

        controller = None
        rec = TraceRecorder(rank=0)

        def guards():
            subs = rec._subscribers
            for _ in range(GUARD_ITERS):
                if controller is not None:
                    raise AssertionError("controller must be absent here")
                if subs:
                    raise AssertionError("no subscribers expected")

        t_guard = best_of(guards, 3) / (2 * GUARD_ITERS)
        return t_step, t_guard

    t_step, t_guard = run_spmd(1, prog)[0]
    per_step = GUARDS_PER_STEP * t_guard
    report(
        "perf_control_overhead",
        "disabled controller vs 64^3 step",
        [
            f"guard:    {t_guard * 1e9:8.1f} ns/site x {GUARDS_PER_STEP} sites",
            f"per step: {per_step * 1e6:8.3f} us (budget {GUARD_BUDGET_S * 1e6:.0f} us)",
            f"step:     {t_step * 1e3:8.3f} ms ({per_step / t_step * 100:.4f}%)",
        ],
    )
    assert per_step <= GUARD_BUDGET_S, (
        f"disabled controller costs {per_step * 1e6:.2f} us per step"
    )


def test_enabled_decision_cost_bounded(report, best_of):
    """One full decision (plan sweep over all candidates + journal append)
    against the 6K-core modeled step it would be tuning."""
    from repro.control import SLO, Controller
    from repro.perf import ControlModel

    model = ControlModel()
    step_s = model.predict(model.default_config()).total

    counter = {"step": 0}

    def decide():
        ctrl = Controller(model=model, slo=SLO(0.65), seed=1)
        for s in range(20):
            ctrl.observe_outcome(s, staged=True)
        counter["step"] += 20

    t_total = best_of(decide, 3)
    t_decision = t_total / 20
    report(
        "perf_control_decision",
        "one enabled controller decision",
        [
            f"decision: {t_decision * 1e6:8.1f} us "
            f"({len(model.candidate_configs())} candidates)",
            f"modeled step: {step_s * 1e3:8.1f} ms",
        ],
    )
    # A decision must be trivially cheap next to the step it re-plans.
    assert t_decision < 0.05 * step_s
