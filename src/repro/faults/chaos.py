"""The end-to-end chaos harness behind ``repro chaos``.

One seeded run exercises every resilience mechanism at once: the oscillator
miniapp drives an in-line histogram, a retried ADIOS-BP file writer, and a
FlexPath in-transit Catalyst slice -- while the fault plan kills a writer
rank mid-run (recovered by checkpoint/restart), disconnects the staging
endpoint (degraded to in-line Catalyst by the circuit breaker), fails and
truncates storage writes (absorbed by retry with backoff + jitter), and
salts the fabric with message delay/duplication/drop (absorbed by the
reliable-transport emulation).  The run must complete, every simulation
step must be accounted for, and -- because fault draws are counter-hashed
-- the same seed reproduces the identical schedule, recovery actions, and
byte-identical artifacts.

``ready_timeout`` is the one wall-clock-sensitive knob: it must comfortably
exceed a healthy endpoint's per-round latency (milliseconds here) or a
loaded machine could degrade a step spuriously and perturb the report.  An
endpoint that is slow rather than dead never opens the breaker: its late
READY token is kept for the next attempt, so failed and successful
attempts alternate and every failure pays the full timeout.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.analysis.histogram import HistogramAnalysis
from repro.analysis.slice_ import SlicePlane
from repro.core.bridge import Bridge
from repro.faults.checkpoint import CheckpointManager
from repro.faults.injector import FaultInjector, InjectedRankDeath
from repro.faults.plan import FaultPlan, chaos_plan
from repro.faults.policies import RetryPolicy
from repro.infrastructure.adios import StagingResilience, run_flexpath_job
from repro.infrastructure.catalyst import CatalystAdaptor
from repro.miniapp.oscillator import default_oscillators
from repro.miniapp.simulation import OscillatorSimulation
from repro.trace.recorder import TraceSession
from repro.util.timers import TimerRegistry


class ChaosError(AssertionError):
    """The chaos run completed but its accounting invariants failed."""


def _make_catalyst(
    out_dir: str, sub: str, index: int, array: str = "data"
) -> CatalystAdaptor:
    return CatalystAdaptor(
        plane=SlicePlane(2, index),
        array=array,
        resolution=(320, 180),
        output_dir=os.path.join(out_dir, sub),
        compression_level=6,
    )


def run_chaos(
    seed: int = 42,
    ranks: int = 4,
    steps: int = 10,
    out_dir: str = "chaos_artifacts",
    ready_timeout: float = 0.25,
    checkpoint_interval: int = 3,
    plan: FaultPlan | None = None,
    backend: str | None = None,
    app: str = "oscillator",
) -> dict[str, Any]:
    """Run the seeded chaos job; returns (and writes) the recovery report.

    ``ranks`` is the world size: ``ranks - 1`` writers plus one staging
    endpoint.  ``plan`` overrides the default :func:`chaos_plan` schedule.
    ``backend`` selects the SPMD execution backend ("thread"/"process");
    fault draws are counter-hashed per (site, rank, occurrence), so the
    recovery report and artifacts are byte-identical across backends for
    the same seed.  Raises :class:`ValueError` for a bad argument before
    any rank starts, and :class:`ChaosError` if the job completes but a
    step goes unaccounted for.  Every writer gates staging with a
    :class:`~repro.faults.CircuitBreaker`, whose state is reported per
    writer.

    ``app`` selects the simulation under test: the grid-shaped
    ``"oscillator"`` miniapp (default) or the ``"nbody"`` particle miniapp,
    whose ragged migration payloads exercise the fault sites with
    variable-length traffic.  For nbody the checkpoint interval is forced
    to 1: recovery must never replay a step that communicates, so the
    retained snapshot has to be the step immediately before any death.
    """
    if app not in ("oscillator", "nbody"):
        raise ValueError(f"app must be 'oscillator' or 'nbody', got {app!r}")
    if ranks < 2:
        raise ValueError("chaos needs at least 2 ranks (1 writer + 1 endpoint)")
    if steps < 3:
        raise ValueError("chaos needs at least 3 steps")
    if not ready_timeout > 0:
        raise ValueError(f"ready_timeout must be > 0, got {ready_timeout}")
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    n_writers = ranks - 1
    if app == "nbody":
        # Recovery for the particle app must never *replay* steps: a
        # replayed step would re-send migration payloads to peers who are
        # already past it.  With interval 1 the retained snapshot is always
        # the step right before the death, so recovery is restore plus one
        # re-issued step -- and that step's fault site fires before its
        # first send, so no bytes from the dead attempt are on the wire.
        checkpoint_interval = 1
    if plan is None:
        plan = chaos_plan(seed, n_writers, steps)
    injector = FaultInjector(plan)
    trace = TraceSession("chaos")
    os.makedirs(out_dir, exist_ok=True)
    retry = RetryPolicy(max_attempts=8, base_delay=0.001, max_delay=0.01, seed=seed)
    global_dims = (16, 16, 16)
    slice_index = global_dims[2] // 2
    array = "data" if app == "oscillator" else "density"

    def _make_sim(group, timers):
        if app == "nbody":
            from repro.apps.nbody import NBodySimulation

            return NBodySimulation(
                group,
                grid=global_dims[0],
                n_particles=16 * global_dims[0] ** 2,
                seed=seed,
                timers=timers,
            )
        return OscillatorSimulation(
            group, global_dims, default_oscillators(), dt=0.01, timers=timers
        )

    def writer_program(group, writer_adaptor):
        timers = TimerRegistry()
        sim = _make_sim(group, timers)
        bridge = Bridge(group, sim.make_data_adaptor(), timers=timers)
        bridge.add_analysis(HistogramAnalysis(bins=32, array=array))
        bridge.add_analysis(
            _bp_adaptor(os.path.join(out_dir, "steps.bp"), retry, array)
        )
        bridge.add_analysis(writer_adaptor)
        bridge.initialize()
        ckpt = CheckpointManager(interval=checkpoint_interval)
        ckpt.save(sim)
        rec = getattr(group, "trace_recorder", None)
        deaths = 0
        replayed = 0
        for _ in range(steps):
            try:
                sim.advance()
            except InjectedRankDeath:
                # The paper-scale recovery contract: rewind to the last
                # periodic checkpoint, recompute forward (the field is a
                # pure function of time, so replay is exact), then
                # re-issue the step that died -- its one-shot death event
                # has fired and will not fire again.
                deaths += 1
                replayed += ckpt.recover_step(sim, sim.advance, trace=rec)
                sim.advance()
            ckpt.maybe_save(sim)
            bridge.execute(sim.time, sim.step)
        results = bridge.finalize()
        out = {
            "rank": group.rank,
            "results": results,
            "deaths": deaths,
            "replayed_steps": replayed,
            "checkpoint_saves": ckpt.saves,
            "checkpoint_restores": ckpt.restores,
        }
        if app == "nbody":
            # Exact post-run particle state: the chaos determinism tests
            # compare these against a fault-free run to prove recovery
            # replayed particle ownership bit-for-bit.
            out["n_local"] = sim.n_local
            out["particles_fingerprint"] = sim.particles.fingerprint()
            out["migrated_out"] = sim.migrated_out
            out["migrated_in"] = sim.migrated_in
        return out

    def resilience_factory(group):
        return StagingResilience(
            group,
            ready_timeout=ready_timeout,
            fallback=_make_catalyst(out_dir, "inline", slice_index, array),
        )

    job = run_flexpath_job(
        n_writers,
        1,
        writer_program,
        lambda endpoint_comm: _make_catalyst(
            out_dir, "staged", slice_index, array
        ),
        array=array,
        timeout=60.0,
        faults=injector,
        resilience_factory=resilience_factory,
        trace=trace,
        backend=backend,
    )

    report = _build_report(
        seed, ranks, steps, injector, trace, job, out_dir
    )
    report["app"] = app
    report["checkpoint_interval"] = checkpoint_interval
    if app == "nbody":
        report["nbody"] = {
            "final_counts": [
                w["n_local"]
                for w in sorted(job.writer_results, key=lambda w: w["rank"])
            ],
            "particles_fingerprints": [
                w["particles_fingerprint"]
                for w in sorted(job.writer_results, key=lambda w: w["rank"])
            ],
            "migrated": sum(
                w["migrated_out"] for w in job.writer_results
            ),
        }
    _check_accounting(report, steps, n_writers)
    _write_artifacts(report, job, out_dir)
    return report


def _bp_adaptor(path, retry, array="data"):
    from repro.infrastructure.adios import AdiosBPAdaptor

    return AdiosBPAdaptor(path, array=array, retry=retry)


def _build_report(seed, ranks, steps, injector, trace, job, out_dir):
    writers = sorted(job.writer_results, key=lambda w: w["rank"])
    endpoint = job.endpoint_results[0]
    flex = [w["results"]["AdiosFlexPathWriter"] for w in writers]
    staged = [f["staged_steps"] for f in flex]
    degraded = [f["degraded_steps"] for f in flex]
    skipped = [f["skipped_steps"] for f in flex]
    counters: dict[str, float] = {}
    for rank in trace.ranks:
        rec = trace.recorder(rank)
        for name in rec.counter_names():
            if name.startswith(("fault::", "resilience::")):
                counters[name] = counters.get(name, 0.0) + rec.total(name)
    report = {
        "seed": seed,
        "ranks": ranks,
        "steps": steps,
        "n_writers": len(writers),
        "fault_schedule": injector.schedule(),
        "fault_counts": injector.counts_by_kind(),
        "writers": [
            {
                "rank": w["rank"],
                "staged_steps": f["staged_steps"],
                "degraded_steps": f["degraded_steps"],
                "skipped_steps": f["skipped_steps"],
                "deaths": w["deaths"],
                "replayed_steps": w["replayed_steps"],
                "checkpoint_saves": w["checkpoint_saves"],
                "checkpoint_restores": w["checkpoint_restores"],
                "breaker": f["breaker"],
            }
            for w, f in zip(writers, flex)
        ],
        "endpoint": {
            "steps_analyzed": endpoint["steps_analyzed"],
            "disconnected_at_step": endpoint["disconnected_at_step"],
        },
        "accounting": {
            "staged_steps": staged[0] if staged else 0,
            "degraded_steps": degraded[0] if degraded else 0,
            "skipped_steps": skipped[0] if skipped else 0,
            "lost_in_flight": (staged[0] - endpoint["steps_analyzed"]) if staged else 0,
            "deaths": sum(w["deaths"] for w in writers),
            "checkpoint_restores": sum(w["checkpoint_restores"] for w in writers),
        },
        "trace_counters": dict(sorted(counters.items())),
        "completed": True,
    }
    return report


def _check_accounting(report, steps, n_writers):
    """Every simulation step must be staged, degraded, or skipped -- on
    every writer identically (the degrade decision is collective) -- and
    at most one staged round may be lost in flight to a dying endpoint."""
    acct = report["accounting"]
    per_writer = [
        (w["staged_steps"], w["degraded_steps"], w["skipped_steps"])
        for w in report["writers"]
    ]
    if len(set(per_writer)) != 1:
        raise ChaosError(
            f"writer accounting diverged across the group: {per_writer} -- "
            "the degrade consensus should make these identical"
        )
    total = acct["staged_steps"] + acct["degraded_steps"] + acct["skipped_steps"]
    if total != steps:
        raise ChaosError(
            f"{steps - total} of {steps} steps unaccounted for "
            f"(staged {acct['staged_steps']}, degraded "
            f"{acct['degraded_steps']}, skipped {acct['skipped_steps']})"
        )
    if not 0 <= acct["lost_in_flight"] <= 1:
        raise ChaosError(
            f"{acct['lost_in_flight']} staged rounds lost in flight; a "
            "single endpoint disconnect can strand at most one"
        )


def _write_artifacts(report, job, out_dir):
    with open(
        os.path.join(out_dir, "recovery_report.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    # Rank 0's histogram history: the in-line analysis that must survive
    # every injected fault byte-for-byte.
    hist = job.writer_results and sorted(
        job.writer_results, key=lambda w: w["rank"]
    )[0]["results"].get("HistogramAnalysis")
    if hist:
        doc = [
            {
                "vmin": h.vmin,
                "vmax": h.vmax,
                "counts": [int(c) for c in h.counts],
            }
            for h in hist
        ]
        with open(
            os.path.join(out_dir, "histograms.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a chaos run for the CLI."""
    acct = report["accounting"]
    ep = report["endpoint"]
    lines = [
        f"chaos run: seed={report['seed']} ranks={report['ranks']} "
        f"steps={report['steps']}",
        f"  faults injected: {sum(report['fault_counts'].values())} "
        f"({', '.join(f'{k}={v}' for k, v in report['fault_counts'].items()) or 'none'})",
        f"  staged in-transit: {acct['staged_steps']} steps "
        f"(endpoint analyzed {ep['steps_analyzed']}, "
        f"lost in flight {acct['lost_in_flight']})",
        f"  degraded to in-line: {acct['degraded_steps']} steps; "
        f"skipped: {acct['skipped_steps']}",
        f"  endpoint disconnect: "
        + (
            f"at round {ep['disconnected_at_step']}"
            if ep["disconnected_at_step"] is not None
            else "none"
        ),
        f"  rank deaths recovered: {acct['deaths']} "
        f"(checkpoint restores {acct['checkpoint_restores']})",
        "  all steps accounted for: yes",
    ]
    return "\n".join(lines)
