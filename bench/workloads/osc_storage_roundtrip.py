"""oscillator 96^3 written three ways, read back and compared.

The post hoc side of the study on 2 thread-backend ranks.  One segment is
one *epoch*: ``seg_steps`` steps are each written through the file-per-rank
VTK path, the collective shared-file MPI-IO path and the BP container
(Table 1's three paths); then one reader rank reads every step back through
``run_posthoc_analysis(..., "histogram")``, ``mpiio_read_block`` and
``BPReader.read`` and compares them; then the epoch directory is deleted,
so disk use stays bounded and the page-cache state is the same every epoch.

A *step* here is ``advance`` plus the three writes.  The epoch's wall is
its write phase plus its read phase; comparing the read-backs and deleting
the directory are the bench's own work and are left out of it.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from bench import inputs
from bench.harness import (
    Plan,
    StepLog,
    counter_totals,
    make_oscillators,
    run_segments,
    tree_bytes,
)
from bench.spans import RootSpan, make_tracer

DIMS = (96, 96, 96)
BINS = 64
RANKS = 2
SEG_STEPS = 5
WARMUP = 3

CROSS_CHECK = [
    ("sim advance", "0", ["sim.advance"], "simulation::advance"),
    ("posthoc read", "0", ["read_subextent"], "posthoc::read"),
    ("posthoc process", "0", ["posthoc.parallel_histogram"], "posthoc::process"),
]


def run(plan: Plan, seed: int) -> dict:
    from repro.analysis.histogram import local_histogram
    from repro.data import Association
    from repro.miniapp import OscillatorSimulation
    from repro.mpi import run_spmd
    from repro.posthoc import run_posthoc_analysis
    from repro.storage import (
        BPReader,
        BPWriter,
        mpiio_read_block,
        mpiio_write_collective,
        write_timestep,
    )
    from repro.trace import TraceSession
    from repro.util.timers import TimerRegistry

    oscillators = make_oscillators(inputs.oscillators(seed))
    session = TraceSession() if plan.traced else None
    cells = DIMS[0] * DIMS[1] * DIMS[2]

    def program(comm):
        tracer = make_tracer(plan.traced, comm.rank)
        root = RootSpan(tracer)
        with tracer.span("sim.init", "miniapp.init_s"):
            sim = OscillatorSimulation(comm, DIMS, oscillators, dt=0.01)
        adaptor = sim.make_data_adaptor()
        reader = comm.split(color=0 if comm.rank == 0 else 1)
        posthoc_timers = TimerRegistry()
        log = StepLog()
        state = {"epoch": 0, "written": 0, "read": 0, "artifact_bytes": 0,
                 "mismatches": 0, "steps_read": 0}

        def spanned(label: str, metric: str, call):
            """``call()`` under a span whose amount is the byte count the
            call returns (an ``int``) or the array it returns."""
            idx = tracer.begin(label, metric) if tracer.enabled else None
            out = call()
            nbytes = int(out) if isinstance(out, (int, np.integer)) else out.nbytes
            if idx is not None:
                tracer.end(idx, nbytes)
            return out, nbytes

        def write_step(directory: str, bp: BPWriter) -> None:
            tracer.step = sim.step + 1
            t0 = time.perf_counter()
            with tracer.span("sim.advance", "miniapp.advance_s"):
                sim.advance()
            t1 = time.perf_counter()
            image = adaptor.get_mesh()
            image.add_array(
                Association.POINT, adaptor.get_array(Association.POINT, "data")
            )
            block = sim.field
            _, n1 = spanned(
                "storage.vtk_write", "storage.vtk_write_s",
                lambda: write_timestep(
                    comm, os.path.join(directory, "vtk"), sim.step, sim.time,
                    image, "data",
                ),
            )
            _, n2 = spanned(
                "storage.mpiio_write", "storage.mpiio_write_s",
                lambda: mpiio_write_collective(
                    comm, os.path.join(directory, f"mpiio_{sim.step:06d}.dat"),
                    block, sim.extent, DIMS,
                ),
            )

            def bp_write() -> int:
                bp.begin_step()
                nbytes = bp.write("data", block, sim.extent)
                bp.end_step()
                return nbytes

            _, n3 = spanned("storage.bp_write", "storage.bp_write_s", bp_write)
            adaptor.release_data()
            state["written"] += n1 + n2 + n3
            log.advance_s.append(t1 - t0)
            log.step_s.append(time.perf_counter() - t0)

        def read_back(directory: str, steps: list[int]) -> None:
            """Reader rank only: three read paths, then the comparison."""
            whole = sim.whole_extent
            t0 = time.perf_counter()
            with tracer.span("posthoc.run", "posthoc.process_s"):
                posthoc = run_posthoc_analysis(
                    reader, os.path.join(directory, "vtk"), steps, "histogram",
                    bins=BINS, timers=posthoc_timers,
                )
            from_mpiio, from_bp = [], []
            bp = BPReader(os.path.join(directory, "steps.bp"))
            for i, step in enumerate(steps):
                a, na = spanned(
                    "storage.mpiio_read", "storage.mpiio_read_s",
                    lambda: mpiio_read_block(
                        os.path.join(directory, f"mpiio_{step:06d}.dat"), whole
                    ),
                )
                b, nb = spanned(
                    "storage.bp_read", "storage.bp_read_s",
                    lambda: bp.read("data", i),
                )
                from_mpiio.append(a)
                from_bp.append(b)
                state["read"] += na + nb
            state["read_wall"] = time.perf_counter() - t0
            # VTK pieces are read inside run_posthoc_analysis (untraced run:
            # no shim sees them), so their volume is computed, not measured.
            state["read"] += len(steps) * cells * 8
            with tracer.span("driver.compare", "driver.verify_s"):
                for a, b, h in zip(from_mpiio, from_bp, posthoc.histograms):
                    # The VTK read-back is only visible as the histogram
                    # run_posthoc_analysis made of it: equal to the
                    # histogram of the BP read-back over the same range.
                    vmin, vmax = float(b.min()), float(b.max())
                    same = (
                        a.tobytes() == b.tobytes()
                        and np.array_equal(
                            local_histogram(b, BINS, vmin, vmax), h.counts
                        )
                        and vmin == h.vmin
                        and vmax == h.vmax
                        and h.total == cells
                    )
                    state["mismatches"] += 0 if same else 1
                state["steps_read"] += len(posthoc.histograms)

        def epoch(n_steps: int) -> float:
            directory = os.path.join(plan.workdir, f"epoch_{state['epoch']:04d}")
            state["epoch"] += 1
            if comm.rank == 0:
                os.makedirs(directory)
            comm.barrier()
            t0 = time.perf_counter()
            bp = BPWriter(comm, os.path.join(directory, "steps.bp"), DIMS)
            first = sim.step + 1
            for _ in range(n_steps):
                write_step(directory, bp)
            with tracer.span("storage.bp_close", "storage.bp_write_s"):
                bp.close()
            wall = time.perf_counter() - t0
            if comm.rank == 0:
                read_back(directory, list(range(first, sim.step + 1)))
                wall += state["read_wall"]
                with tracer.span("driver.cleanup", "driver.verify_s"):
                    state["artifact_bytes"] += tree_bytes(directory)
                    shutil.rmtree(directory)
            with tracer.span("driver.epoch_barrier", "driver.agree_s"):
                comm.barrier()
            return wall

        def agree(done: bool) -> bool:
            with tracer.span("driver.agree", "driver.agree_s"):
                return comm.bcast(done, root=0)

        # Warm-up: one short epoch, so every path has run once.
        epoch(plan.warmup)
        log.clear_steps()
        run_segments(plan, log, lambda: epoch(plan.seg_steps), agree)
        root.close_root()
        return {
            "log": log.as_dict(),
            "steps": sim.step,
            "state": state,
            "timers": {
                **{k: v["total"] for k, v in sim.timers.as_dict().items()},
                **{k: v["total"] for k, v in posthoc_timers.as_dict().items()},
            },
            "spans": tracer.dump(),
        }

    main = make_tracer(plan.traced, -1)
    with main.span("run_spmd", "mpi.launch_join_s"):
        per_rank = run_spmd(RANKS, program, backend="thread", trace=session)
    root = per_rank[0]
    state = root["state"]
    steps = root["steps"]
    missing = steps - state["steps_read"]
    result = {
        "log": root["log"],
        "attempted": steps,
        "failed": state["mismatches"] + missing,
        "checks": {
            "every_step_read_back": missing == 0,
            "three_readbacks_identical": state["mismatches"] == 0,
        },
        "fingerprints": {},
        "artifact_bytes": state["artifact_bytes"],
        "artifact_steps": steps,
        "spans": {"main": main.dump(), **{str(r): p["spans"] for r, p in enumerate(per_rank)}},
        "timers": {str(r): p["timers"] for r, p in enumerate(per_rank)},
        "counters": counter_totals(session),
        "cells_per_step": cells,
    }
    if plan.traced:
        result["layer_extras"] = {
            "storage.write_bytes": sum(p["state"]["written"] for p in per_rank),
            "storage.read_bytes": state["read"],
        }
    return result
