"""oscillator 64^3 -> Bridge -> histogram + Catalyst slice (1920x1080) -> PNG.

The paper's Catalyst-slice configuration on 2 thread-backend ranks.
``render`` does nearly all the work; storage and transport do nothing.
"""

from __future__ import annotations

import os
import zlib

from bench import inputs
from bench.harness import (
    Plan,
    counter_totals,
    drive_bridge,
    make_oscillators,
    timer_totals,
    tree_bytes,
)
from bench.spans import RootSpan, make_tracer, wrap_analysis

DIMS = (64, 64, 64)
BINS = 64
RANKS = 2
RESOLUTION = (1920, 1080)
SEG_STEPS = 4
WARMUP = 3

#: ``(what, rank, bench span labels, program timer)`` for the cross-check.
CROSS_CHECK = [
    ("sim advance", "0", ["sim.advance"], "simulation::advance"),
    ("bridge execute", "0", ["bridge.execute"], "sensei::execute"),
    ("histogram adaptor", "0", ["execute:HistogramAnalysis"],
     "sensei::execute::HistogramAnalysis"),
    ("catalyst adaptor", "0", ["execute:CatalystAdaptor"],
     "sensei::execute::CatalystAdaptor"),
    ("catalyst render", "0", ["rasterize_slice", "composite_over_into"],
     "catalyst::render"),
    ("catalyst composite", "0", ["binary_swap"], "catalyst::composite"),
    ("catalyst png", "0", ["encode_png"], "catalyst::png"),
]


def run(plan: Plan, seed: int) -> dict:
    from repro.analysis.histogram import HistogramAnalysis
    from repro.analysis.slice_ import SlicePlane
    from repro.core import Bridge
    from repro.infrastructure.catalyst import CatalystAdaptor
    from repro.miniapp import OscillatorSimulation
    from repro.mpi import run_spmd
    from repro.render import decode_png
    from repro.trace import TraceSession

    oscillators = make_oscillators(inputs.oscillators(seed))
    out_dir = os.path.join(plan.workdir, "catalyst")
    session = TraceSession() if plan.traced else None

    def program(comm):
        tracer = make_tracer(plan.traced, comm.rank)
        root = RootSpan(tracer)
        with tracer.span("sim.init", "miniapp.init_s"):
            sim = OscillatorSimulation(comm, DIMS, oscillators, dt=0.01)
        bridge = Bridge(comm, sim.make_data_adaptor())
        for inner, metric in (
            (HistogramAnalysis(BINS), "analysis.histogram_s"),
            (
                CatalystAdaptor(
                    SlicePlane(2, DIMS[2] // 2),
                    resolution=RESOLUTION,
                    output_dir=out_dir,
                ),
                "infrastructure.catalyst_s",
            ),
        ):
            bridge.add_analysis(wrap_analysis(inner, tracer, metric))
        with tracer.span("bridge.initialize", "core.bridge_self_s"):
            bridge.initialize()
        log = drive_bridge(plan, tracer, comm, sim, bridge, "miniapp.advance_s")
        with tracer.span("bridge.finalize", "core.bridge_self_s"):
            results = bridge.finalize()
        root.close_root()
        return {
            "log": log.as_dict(),
            "steps": sim.step,
            "hist_totals": [h.total for h in results.get("HistogramAnalysis") or []],
            "timers": timer_totals(bridge.timers),
            "spans": tracer.dump(),
        }

    main = make_tracer(plan.traced, -1)
    with main.span("run_spmd", "mpi.launch_join_s"):
        per_rank = run_spmd(RANKS, program, backend="thread", trace=session)
    root = per_rank[0]
    steps = root["steps"]

    # -- correctness: one PNG per step, the last decodes to the configured
    # resolution, every histogram counts every grid point.
    cells = DIMS[0] * DIMS[1] * DIMS[2]
    crcs: dict[int, int] = {}
    for step in range(1, steps + 1):
        path = os.path.join(out_dir, f"catalyst_{step:06d}.png")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                blob = fh.read()
            crcs[step] = zlib.crc32(blob)
    failed = sum(1 for step in range(1, steps + 1) if step not in crcs)
    failed += sum(1 for total in root["hist_totals"] if total != cells)
    checks = {
        "png_per_step": len(crcs) == steps,
        "histogram_counts_sum_to_cells": len(root["hist_totals"]) == steps
        and all(t == cells for t in root["hist_totals"]),
    }
    if crcs:
        shape = decode_png(blob).shape
        checks["final_png_decodes"] = shape == (RESOLUTION[1], RESOLUTION[0], 3)
    return {
        "log": root["log"],
        "attempted": steps,
        "failed": failed,
        "checks": checks,
        "fingerprints": {"catalyst_png_crc": crcs},
        "artifact_bytes": tree_bytes(out_dir),
        "artifact_steps": steps,
        "spans": {"main": main.dump(), **{str(r): p["spans"] for r, p in enumerate(per_rank)}},
        "timers": {str(r): p["timers"] for r, p in enumerate(per_rank)},
        "counters": counter_totals(session),
        "cells_per_step": cells,
    }
