"""n-body particles through three analyses and all four infrastructures.

The ``run_nbody`` wiring (grid 16, 2048 particles, sanitize off) driven
from the bench's own loop on 2 process-backend ranks.  ``analysis``
dominates (friends-of-friends is O(n^2)); images are 200x200 so ``render``
is small, the opposite balance to ``osc_catalyst_inline``; collectives are
sub-64 KiB, the pickled path that ``osc_flexpath_staged`` bypasses.
"""

from __future__ import annotations

import os

from bench import inputs
from bench.harness import (
    Plan,
    counter_totals,
    drive_bridge,
    timer_totals,
    tree_bytes,
)
from bench.spans import RootSpan, make_tracer, wrap_analysis

GRID = 16
PARTICLES = 2048
RANKS = 2
RESOLUTION = (200, 200)
LINKING_LENGTH = 0.06
SEG_STEPS = 3
WARMUP = 3

CROSS_CHECK = [
    ("nbody advance", "0", ["sim.advance"], "nbody::advance"),
    ("bridge execute", "0", ["bridge.execute"], "sensei::execute"),
    ("fof adaptor", "0", ["execute:FriendsOfFriendsAnalysis"],
     "sensei::execute::FriendsOfFriendsAnalysis"),
    ("fof cluster", "0", ["friends_of_friends"], "fof::cluster"),
    ("catalyst adaptor", "0", ["execute:CatalystAdaptor"],
     "sensei::execute::CatalystAdaptor"),
    ("libsim adaptor", "0", ["execute:LibsimAdaptor"], "libsim::execute"),
    ("adios bp adaptor", "0", ["execute:AdiosBPAdaptor"], "adios::write"),
    ("glean adaptor", "0", ["execute:GleanAdaptor"], "glean::stage"),
]


def run(plan: Plan, seed: int) -> dict:
    from repro.analysis.particles import (
        DensityProjectionAnalysis,
        FriendsOfFriendsAnalysis,
        PowerSpectrumAnalysis,
    )
    from repro.analysis.slice_ import SlicePlane
    from repro.apps.nbody import NBodyDataAdaptor, NBodySimulation
    from repro.core import Bridge
    from repro.infrastructure.adios import AdiosBPAdaptor
    from repro.infrastructure.catalyst import CatalystAdaptor
    from repro.infrastructure.glean import GleanAdaptor
    from repro.infrastructure.libsim import LibsimAdaptor, write_session_file
    from repro.mpi import run_spmd
    from repro.render import decode_png
    from repro.storage import BPReader
    from repro.trace import TraceSession

    ic_seed = inputs.nbody_ic_seed(seed)
    out_dir = os.path.join(plan.workdir, "nbody")
    os.makedirs(out_dir)
    session_path = os.path.join(out_dir, "libsim_session.json")
    write_session_file(
        session_path,
        [{"type": "pseudocolor_slice", "axis": 2, "index": GRID // 2}],
        resolution=RESOLUTION,
    )
    session = TraceSession() if plan.traced else None
    density = NBodyDataAdaptor.DENSITY

    def program(comm):
        tracer = make_tracer(plan.traced, comm.rank)
        root = RootSpan(tracer)
        with tracer.span("sim.init", "apps.nbody_init_s"):
            sim = NBodySimulation(
                comm, grid=GRID, n_particles=PARTICLES, seed=ic_seed
            )
        bridge = Bridge(comm, sim.make_data_adaptor(), timers=sim.timers)
        for inner, metric in (
            (DensityProjectionAnalysis(grid=GRID, output_dir=out_dir),
             "analysis.projection_s"),
            (PowerSpectrumAnalysis(grid=GRID, output_dir=out_dir),
             "analysis.spectrum_s"),
            (FriendsOfFriendsAnalysis(linking_length=LINKING_LENGTH, output_dir=out_dir),
             "analysis.fof_s"),
            (CatalystAdaptor(
                plane=SlicePlane(2, GRID // 2), array=density,
                resolution=RESOLUTION, output_dir=os.path.join(out_dir, "catalyst")),
             "infrastructure.catalyst_s"),
            (LibsimAdaptor(
                session_path, array=density,
                output_dir=os.path.join(out_dir, "libsim")),
             "infrastructure.libsim_s"),
            (AdiosBPAdaptor(os.path.join(out_dir, "steps.bp"), array=density),
             "infrastructure.adios_bp_s"),
            (GleanAdaptor(
                os.path.join(out_dir, "glean"), array=density,
                ranks_per_aggregator=2),
             "infrastructure.glean_s"),
        ):
            bridge.add_analysis(wrap_analysis(inner, tracer, metric))
        with tracer.span("bridge.initialize", "core.bridge_self_s"):
            bridge.initialize()
        log = drive_bridge(plan, tracer, comm, sim, bridge, "apps.nbody_advance_s")
        with tracer.span("bridge.finalize", "core.bridge_self_s"):
            results = bridge.finalize()
        root.close_root()
        return {
            "log": log.as_dict(),
            "steps": sim.step,
            "migrated": sim.migrated_out,
            "halo_counts": results["FriendsOfFriendsAnalysis"]["halo_counts"],
            "density_png_crcs": results["DensityProjectionAnalysis"]["png_crcs"],
            "timers": timer_totals(bridge.timers),
            "spans": tracer.dump(),
        }

    main = make_tracer(plan.traced, -1)
    with main.span("run_spmd", "mpi.launch_join_s"):
        per_rank = run_spmd(RANKS, program, backend="process", trace=session)
    root = per_rank[0]
    steps = root["steps"]

    # -- correctness: every adaptor produced its artifact for every step,
    # the BP container reads back, the last Catalyst image decodes.
    def present(pattern: str) -> int:
        return sum(
            1 for s in range(1, steps + 1)
            if os.path.exists(os.path.join(out_dir, pattern.format(s)))
        )

    per_step = {
        "density_png": present("density_proj_{:06d}.png"),
        "catalyst_png": present("catalyst/catalyst_{:06d}.png"),
        "libsim_png": present("libsim/libsim_{:06d}.png"),
        "glean_file": present("glean/glean_step{:06d}_agg000000.dat"),
        "bp_steps": BPReader(os.path.join(out_dir, "steps.bp")).num_steps,
        "halo_counts": len(root["halo_counts"]),
    }
    failed = sum(steps - n for n in per_step.values())
    checks = {f"{k}_per_step": n == steps for k, n in per_step.items()}
    last = os.path.join(out_dir, f"catalyst/catalyst_{steps:06d}.png")
    if os.path.exists(last):
        with open(last, "rb") as fh:
            blob = fh.read()
        checks["final_png_decodes"] = decode_png(blob).shape == (
            RESOLUTION[1], RESOLUTION[0], 3,
        )
    result = {
        "log": root["log"],
        "attempted": steps,
        "failed": failed,
        "checks": checks,
        "fingerprints": {
            "halo_counts": {str(i + 1): c for i, c in enumerate(root["halo_counts"])},
            "density_png_crc": {
                str(i + 1): c for i, c in enumerate(root["density_png_crcs"])
            },
        },
        "artifact_bytes": tree_bytes(out_dir),
        "artifact_steps": steps,
        "spans": {"main": main.dump(), **{str(r): p["spans"] for r, p in enumerate(per_rank)}},
        "timers": {str(r): p["timers"] for r, p in enumerate(per_rank)},
        "counters": counter_totals(session),
    }
    if plan.traced:
        result["layer_extras"] = {
            "apps.nbody_migrated": sum(p["migrated"] for p in per_rank),
        }
    return result
