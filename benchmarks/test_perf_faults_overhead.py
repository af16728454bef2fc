"""Overhead of the fault-injection layer when it is disabled.

The injection hooks ride the hottest paths in the repo -- every send, every
collective, every simulation step, every storage write.  The design
contract (ISSUE 4) is that the *disabled* layer is one ``is None`` check
per hook and must stay far under 1% of the step it rides on::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_faults_overhead.py -s

Two measurements back that up:

1. the per-hook guard cost (``getattr(comm, "fault_injector", None)``),
   scaled by a generous per-step hook count, against an absolute budget
   (the 64^3 miniapp step it rides on is printed beside it), and
2. an end-to-end A/B of a communication-heavy workload run with
   ``faults=None`` vs an *empty* fault plan (enabled layer, nothing
   scheduled) -- bounding what merely wiring the injector costs.
"""

from __future__ import annotations

import time

from repro.faults import FaultPlan
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd

#: Hooks a single miniapp step actually hits in the chaos job: 1 sim.step
#: draw + a storage write + a handful of staging sends and collective
#: entries (~15); doubled for headroom.  The measured per-guard time also
#: includes the timing loop itself, so the gate is conservative twice over.
HOOKS_PER_STEP = 32

#: All of a step's guards together.  Absolute, so the gate does not loosen
#: or tighten with the step it rides: 5 us is under 1% of a 0.56 ms step,
#: several times faster than the 64^3 refill timed below.
GUARD_BUDGET_S = 5e-6

GUARD_ITERS = 200_000


def test_disabled_guards_within_budget(best_of):
    """The is-None guard, scaled by HOOKS_PER_STEP, vs GUARD_BUDGET_S."""

    def prog(comm):
        sim = OscillatorSimulation(comm, (64, 64, 64), default_oscillators(), dt=0.01)
        t_step = best_of(sim.advance, 5)

        def guards():
            for _ in range(GUARD_ITERS):
                if getattr(comm, "fault_injector", None) is not None:
                    raise AssertionError("injector must be absent here")

        t_guard = best_of(guards, 3) / GUARD_ITERS
        return t_step, t_guard

    t_step, t_guard = run_spmd(1, prog)[0]
    per_step = HOOKS_PER_STEP * t_guard
    print(
        f"\nguard:    {t_guard * 1e9:8.1f} ns/hook x {HOOKS_PER_STEP} hooks"
        f"\nper step: {per_step * 1e6:8.3f} us (budget {GUARD_BUDGET_S * 1e6:.0f} us)"
        f"\nstep:     {t_step * 1e3:8.3f} ms ({per_step / t_step * 100:.4f}%)"
    )
    assert per_step <= GUARD_BUDGET_S, (
        f"disabled fault layer costs {per_step * 1e6:.2f} us per step"
    )


def test_empty_plan_end_to_end_overhead():
    """Messaging workload: faults=None vs an enabled-but-empty plan.

    The empty plan pays a real (locked, hashed) draw per hook, so it is
    allowed measurable cost -- this bounds it and records the trend.  The
    disabled path is covered by the <1% gate above.
    """
    nranks, rounds = 4, 150

    def prog(comm):
        total = 0
        t0 = time.perf_counter()
        for i in range(rounds):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            total += comm.sendrecv(i, dest=right, source=left)
            total += comm.allreduce(i)
        return time.perf_counter() - t0, total

    def run(faults):
        out = run_spmd(nranks, prog, faults=faults, timeout=60.0)
        assert len({r[1] for r in out}) == 1  # results unaffected
        return max(r[0] for r in out)

    t_disabled = min(run(None) for _ in range(3))
    t_empty = min(run(FaultPlan(seed=0)) for _ in range(3))
    ratio = t_empty / t_disabled
    print(
        f"\nsendrecv+allreduce x{rounds}, {nranks} ranks"
        f"\nfaults=None:  {t_disabled * 1e3:8.2f} ms"
        f"\nempty plan:   {t_empty * 1e3:8.2f} ms  ({ratio:.2f}x)"
    )
    # Generous sanity bound: wiring an idle injector must never blow up a
    # communication-bound workload.
    assert ratio < 3.0, f"empty fault plan {ratio:.2f}x over disabled"
