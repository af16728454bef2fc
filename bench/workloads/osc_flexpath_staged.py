"""oscillator 128^3 -> Bridge -> FlexPath writer -> endpoint histogram.

In transit: one writer rank and one endpoint rank on the process backend.
The staging copy, 16 MiB per step over the shared-memory fabric and the
READY wait are the writer's whole in situ cost; ``render`` is never called.
"""

from __future__ import annotations

import json
import os

import numpy as np

from bench import inputs
from bench.harness import (
    Plan,
    counter_totals,
    drive_bridge,
    make_oscillators,
    timer_totals,
    tree_bytes,
)
from bench.layers import inclusive
from bench.spans import RootSpan, make_tracer, wrap_analysis

DIMS = (128, 128, 128)
BINS = 64
SEG_STEPS = 5
WARMUP = 3
#: Steps the in-line reference histogram is recomputed for.
REFERENCE_STEPS = 4

CROSS_CHECK = [
    ("sim advance", "0", ["sim.advance"], "simulation::advance"),
    ("bridge execute", "0", ["bridge.execute"], "sensei::execute"),
    ("writer adaptor", "0", ["execute:AdiosFlexPathWriter"],
     "sensei::execute::AdiosFlexPathWriter"),
    ("endpoint analysis", "endpoint", ["execute:HistogramAnalysis"],
     "endpoint::analysis"),
    ("endpoint receive", "endpoint", ["mpi.recv_with_status", "mpi.recv"],
     "endpoint::receive"),
]


def run(plan: Plan, seed: int) -> dict:
    from repro.analysis.histogram import HistogramAnalysis
    from repro.core import Bridge
    from repro.infrastructure.adios import run_flexpath_job
    from repro.miniapp import OscillatorSimulation
    from repro.mpi import run_spmd
    from repro.trace import TraceSession

    oscillators = make_oscillators(inputs.oscillators(seed))
    session = TraceSession() if plan.traced else None

    def writer_program(comm, writer):
        tracer = make_tracer(plan.traced, 0)
        root = RootSpan(tracer)
        with tracer.span("sim.init", "miniapp.init_s"):
            sim = OscillatorSimulation(comm, DIMS, oscillators, dt=0.01)
        bridge = Bridge(comm, sim.make_data_adaptor())
        bridge.add_analysis(
            wrap_analysis(writer, tracer, "infrastructure.flexpath_writer_s")
        )
        with tracer.span("bridge.initialize", "core.bridge_self_s"):
            bridge.initialize()
        # One writer rank: the broadcast of its verdict is to itself.
        log = drive_bridge(plan, tracer, comm, sim, bridge, "miniapp.advance_s")
        with tracer.span("bridge.finalize", "core.bridge_self_s"):
            bridge.finalize()
        root.close_root()
        return {
            "log": log.as_dict(),
            "steps": sim.step,
            "timers": timer_totals(bridge.timers),
            "spans": tracer.dump(),
        }

    def analysis_factory(group):
        tracer = make_tracer(plan.traced, 1)
        return wrap_analysis(
            HistogramAnalysis(BINS), tracer, "analysis.histogram_s",
            carry=RootSpan(tracer),
        )

    main = make_tracer(plan.traced, -1)
    with main.span("run_spmd", "mpi.launch_join_s"):
        job = run_flexpath_job(
            1, 1, writer_program, analysis_factory, trace=session, backend="process"
        )
    writer = job.writer_results[0]
    endpoint = job.endpoint_results[0]
    steps = writer["steps"]
    history = endpoint["result"]
    endpoint_spans: list = []
    if plan.traced:
        endpoint_spans = history["spans"]
        history = history["result"]
    history = history or []

    # The endpoint's product is its histogram history; serialise it the way
    # the service's tenant endpoint does so the workload has an artifact.
    artifact_dir = os.path.join(plan.workdir, "endpoint")
    os.makedirs(artifact_dir)
    with open(os.path.join(artifact_dir, "histograms.json"), "w") as fh:
        json.dump(
            [
                {"vmin": float(h.vmin), "vmax": float(h.vmax),
                 "counts": [int(c) for c in h.counts]}
                for h in history
            ],
            fh,
        )

    # -- correctness: the endpoint analysed every step sent, each histogram
    # counts every grid point, and the first histograms equal an in-line
    # HistogramAnalysis on the same seeded simulation.
    def reference(comm):
        sim = OscillatorSimulation(comm, DIMS, oscillators, dt=0.01)
        bridge = Bridge(comm, sim.make_data_adaptor())
        hist = HistogramAnalysis(BINS)
        bridge.add_analysis(hist)
        bridge.initialize()
        sim.run(min(REFERENCE_STEPS, steps), bridge)
        return bridge.finalize()["HistogramAnalysis"]

    inline = run_spmd(1, reference, backend="thread")[0]
    cells = DIMS[0] * DIMS[1] * DIMS[2]
    bad_totals = sum(1 for h in history if h.total != cells)
    missing = abs(steps - endpoint["steps_analyzed"]) + abs(steps - len(history))
    checks = {
        "endpoint_analysed_every_step": missing == 0,
        "histogram_counts_sum_to_cells": bad_totals == 0,
        "endpoint_equals_inline": len(history) >= len(inline)
        and all(
            np.array_equal(a.counts, b.counts) and a.vmin == b.vmin and a.vmax == b.vmax
            for a, b in zip(history, inline)
        ),
    }
    result = {
        "log": writer["log"],
        "attempted": steps,
        "failed": missing + bad_totals,
        "checks": checks,
        "fingerprints": {
            "endpoint_histogram": {
                str(i + 1): [int(c) for c in h.counts] for i, h in enumerate(history)
            }
        },
        "artifact_bytes": tree_bytes(artifact_dir),
        "artifact_steps": steps,
        "spans": {"main": main.dump(), "0": writer["spans"], "endpoint": endpoint_spans},
        "timers": {
            "0": writer["timers"],
            "endpoint": {k: v["total"] for k, v in endpoint["timers"].items()},
        },
        "counters": counter_totals(session),
        "cells_per_step": cells,
    }
    if plan.traced:
        result["layer_extras"] = {
            "infrastructure.flexpath_ready_wait_s": inclusive(
                result, "0", "mpi.recv", under="execute:AdiosFlexPathWriter"
            ),
            "infrastructure.endpoint_receive_s": inclusive(
                result, "endpoint", "mpi.recv_with_status"
            )
            + inclusive(result, "endpoint", "mpi.recv"),
            "infrastructure.endpoint_analysis_s": inclusive(
                result, "endpoint", "execute:HistogramAnalysis"
            ),
            "infrastructure.endpoint_steps": endpoint["steps_analyzed"],
        }
    return result
