"""Closed-loop controller demonstration under an injected bandwidth outage.

``repro control`` runs this: an SPMD plant where every writer rank emits
*modeled* per-step spans -- the calibrated cost of the configuration the
controller actually chose, evaluated at the true (injected) staging-fabric
derate -- and feeds them back through the span sensor.  Mid-run the fabric
is derated hard enough that the staged pipeline blows the declared latency
SLO; the controller must degrade analysis to in-line Catalyst, hold the
SLO through the outage, keep probing the staging path on its seeded
schedule, and recover to in-transit once a probe comes back healthy.

Using modeled spans (pure floats) rather than wall-clock keeps the whole
loop deterministic: the demo asserts every rank's decision journal is
identical, and the CLI/CI replay the run twice and ``diff`` the journal
bytes.  The dynamics are real -- the controller has no access to the true
derate, only to the observations the plant emits and its own inversion of
them.
"""

from __future__ import annotations

import json
import os

from repro.control.controller import SLO, Controller
from repro.mpi import run_spmd
from repro.perf.control_model import ControlModel
from repro.perf.miniapp_model import MiniappConfig
from repro.trace.recorder import TraceRecorder


def _plant(comm, seed, steps, slo_seconds, derate, window, scale):
    """One writer rank: modeled plant + controller, lockstep via ``comm``."""
    model = ControlModel(MiniappConfig.at_scale(scale))
    ctrl = Controller(
        model=model,
        slo=SLO(max_step_seconds=slo_seconds),
        seed=seed,
        group=comm,
        mode="spans",
    )
    rec = TraceRecorder(rank=comm.rank, epoch=0.0)
    ctrl.attach(rec)
    t = 0.0
    for step in range(steps):
        true_derate = derate if window[0] <= step < window[1] else 0.0
        truth = model.predict(ctrl.plant_config(), true_derate)
        rec.set_step(step)
        for name, cost in (
            ("simulation::advance", truth.sim),
            ("sensei::execute", truth.analysis),
            ("io::write", truth.write),
        ):
            rec.complete(name, t, t + cost, step=step)
            t += cost
        ctrl.end_step(step)
    return ctrl.journal.to_dict()


def _timeline(journal: dict, slo_seconds: float) -> list[str]:
    lines = [
        f"{'step':>4} {'placement':<11} {'observed':>9} {'believed':>9} "
        f"{'slo':>4} {'probe':>5}  action",
        "-" * 56,
    ]
    for d in journal["decisions"]:
        total = sum(d["observed"].values())
        lines.append(
            f"{d['step']:>4} {d['config']['placement']:<11} {total:>9.4f} "
            f"{d['believed_derate']:>9.4f} "
            f"{'VIOL' if d['slo_violated'] else ' ok ':>4} "
            f"{'yes' if d['probe'] else '':>5}  "
            f"{d['action'] if d['action'] != 'hold' else ''}"
        )
    return lines


def run_control_demo(
    seed: int = 7,
    steps: int = 36,
    writers: int = 3,
    slo_seconds: float = 0.65,
    derate: float = 0.98,
    derate_window: tuple[int, int] = (10, 25),
    scale: str = "6K",
    out_dir: str | None = None,
    backend: str | None = None,
) -> dict:
    """Run the demo; returns the journal, a text timeline, and a summary.

    Raises if the writers' decision journals ever diverge -- lockstep
    consensus plus deterministic observations must keep them identical.
    """
    results = run_spmd(
        writers,
        _plant,
        seed,
        steps,
        slo_seconds,
        derate,
        derate_window,
        scale,
        backend=backend,
    )
    texts = [
        json.dumps(r, indent=2, sort_keys=True) + "\n" for r in results
    ]
    for rank, text in enumerate(texts[1:], start=1):
        if text != texts[0]:
            raise RuntimeError(
                f"decision journals diverged between rank 0 and rank {rank}"
            )
    journal = results[0]
    decisions = journal["decisions"]
    actions = [
        (d["step"], d["action"]) for d in decisions if d["action"] != "hold"
    ]
    degraded = [s for s, a in actions if a == "degrade"]
    recovered = [s for s, a in actions if a == "recover"]
    outage = [
        d for d in decisions if derate_window[0] <= d["step"] < derate_window[1]
    ]
    # Steps where the plant actually blew the SLO -- the controller's score.
    over = [
        d["step"]
        for d in decisions
        if sum(d["observed"].values()) > slo_seconds
    ]
    summary = {
        "seed": seed,
        "steps": steps,
        "writers": writers,
        "slo_seconds": slo_seconds,
        "derate": derate,
        "derate_window": list(derate_window),
        "actions": actions,
        "degraded_at": degraded[0] if degraded else None,
        "recovered_at": recovered[0] if recovered else None,
        "steps_over_slo": over,
        "outage_steps": len(outage),
        "final_placement": decisions[-1]["config"]["placement"]
        if decisions
        else None,
    }
    timeline = _timeline(journal, slo_seconds)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(
            os.path.join(out_dir, "decision_journal.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(texts[0])
        with open(
            os.path.join(out_dir, "timeline.txt"), "w", encoding="utf-8"
        ) as fh:
            fh.write("\n".join(timeline) + "\n")
        with open(
            os.path.join(out_dir, "summary.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {
        "journal": journal,
        "journal_text": texts[0],
        "summary": summary,
        "timeline": timeline,
    }

