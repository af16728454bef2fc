"""Names, units and directions of every metric, and the workload table.

``BENCHMARK.json`` carries the same names for the driver;
``bench/test_smoke.py`` checks the two agree.  Nothing here imports
``repro``: the orchestrating process reads this module only.
"""

from __future__ import annotations

#: ``(name, why)``.  SPMD workloads use 2 ranks and the service 2
#: connections: never more threads or connections than this host's 2 CPUs.
WORKLOADS = [
    (
        "osc_catalyst_inline",
        "oscillator 64^3 -> bridge -> histogram + Catalyst 1920x1080 slice -> PNG, "
        "2 thread ranks: render does nearly all the work, storage and transport none",
    ),
    (
        "osc_flexpath_staged",
        "oscillator 128^3 -> FlexPath writer -> endpoint histogram, process backend: "
        "staging copy, 16 MiB/step over shm and the READY wait; render is never called",
    ),
    (
        "osc_storage_roundtrip",
        "oscillator 96^3 written three ways (VTK, MPI-IO, BP) and read back bit-for-bit, "
        "2 thread ranks: storage does most of the work, writes beside reads",
    ),
    (
        "nbody_four_infra",
        "2048 particles through 3 particle analyses + Catalyst, Libsim, ADIOS-BP, GLEAN, "
        "2 process ranks: analysis (FoF) dominates, render small, pickled sub-64KiB collectives",
    ),
    (
        "service_two_tenants",
        "repro serve child + 2 closed-loop clients (one in-line, one staged tenant), 512 KiB "
        "steps: the only path through framing/protocol/policy/endpoint/server",
    ),
]

#: ``(name, unit, better, bound)``: what a user of the system sees, from the
#: untraced run.  ``bound`` is the share of the parent's median by which the
#: metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("insitu_frac", "frac", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("artifact_bytes_per_step", "B/step", "lower", 0.05),
]

#: ``(name, unit, better, kind)``: single layers, from the traced run.
#: ``kind`` is ``self`` (self time charged by spans; these partition a
#: rank's wall), ``view`` (inclusive time of one boundary; overlaps the
#: self-time metrics) or ``count`` (counts, bytes, ratios).
PER_LAYER = [
    ("miniapp.init_s", "s", "lower", "self"),
    ("miniapp.advance_s", "s", "lower", "self"),
    ("miniapp.cells_per_s", "1/s", "higher", "count"),
    ("apps.nbody_init_s", "s", "lower", "self"),
    ("apps.nbody_advance_s", "s", "lower", "self"),
    ("apps.nbody_migrated", "count", "lower", "count"),
    ("core.bridge_init_s", "s", "lower", "view"),
    ("core.bridge_execute_s", "s", "lower", "view"),
    ("core.bridge_self_s", "s", "lower", "self"),
    ("core.bridge_finalize_s", "s", "lower", "view"),
    ("core.bytes_zero_copy", "B", "higher", "count"),
    ("core.bytes_copied", "B", "lower", "count"),
    ("analysis.histogram_s", "s", "lower", "self"),
    ("analysis.projection_s", "s", "lower", "self"),
    ("analysis.spectrum_s", "s", "lower", "self"),
    ("analysis.fof_s", "s", "lower", "self"),
    ("infrastructure.catalyst_s", "s", "lower", "self"),
    ("infrastructure.libsim_s", "s", "lower", "self"),
    ("infrastructure.adios_bp_s", "s", "lower", "self"),
    ("infrastructure.glean_s", "s", "lower", "self"),
    ("infrastructure.flexpath_writer_s", "s", "lower", "self"),
    ("infrastructure.flexpath_ready_wait_s", "s", "lower", "view"),
    ("infrastructure.flexpath_copy_bytes", "B", "lower", "count"),
    ("infrastructure.endpoint_receive_s", "s", "lower", "view"),
    ("infrastructure.endpoint_analysis_s", "s", "lower", "view"),
    ("infrastructure.endpoint_steps", "count", "higher", "count"),
    ("render.rasterize_s", "s", "lower", "self"),
    ("render.composite_s", "s", "lower", "self"),
    ("render.png_encode_s", "s", "lower", "self"),
    ("render.png_bytes", "B", "lower", "count"),
    ("render.png_mb_per_s", "MB/s", "higher", "count"),
    ("render.frames", "count", "higher", "count"),
    ("mpi.launch_s", "s", "lower", "view"),
    ("mpi.join_s", "s", "lower", "view"),
    ("mpi.collective_s", "s", "lower", "self"),
    ("mpi.collective_count", "count", "lower", "count"),
    ("mpi.p2p_s", "s", "lower", "self"),
    ("mpi.p2p_count", "count", "lower", "count"),
    ("mpi.payload_bytes", "B", "lower", "count"),
    ("mpi.bytes_shm", "B", "higher", "count"),
    ("mpi.bytes_pickled", "B", "lower", "count"),
    ("mpi.wait_s", "s", "lower", "view"),
    ("storage.vtk_write_s", "s", "lower", "self"),
    ("storage.mpiio_write_s", "s", "lower", "self"),
    ("storage.bp_write_s", "s", "lower", "self"),
    ("storage.write_bytes", "B", "lower", "count"),
    ("storage.vtk_read_s", "s", "lower", "self"),
    ("storage.mpiio_read_s", "s", "lower", "self"),
    ("storage.bp_read_s", "s", "lower", "self"),
    ("storage.read_bytes", "B", "lower", "count"),
    ("storage.write_mb_per_s", "MB/s", "higher", "count"),
    ("posthoc.process_s", "s", "lower", "self"),
    ("service.server_start_s", "s", "lower", "view"),
    ("service.connect_s", "s", "lower", "self"),
    ("service.submit_s", "s", "lower", "self"),
    ("service.submit_inline_p50_ms", "ms", "lower", "count"),
    ("service.submit_staged_p50_ms", "ms", "lower", "count"),
    ("service.finish_s", "s", "lower", "self"),
    ("service.admit_frac", "frac", "higher", "count"),
    ("service.shed_count", "count", "lower", "count"),
    ("service.retransmits", "count", "lower", "count"),
    ("service.fairness", "frac", "higher", "count"),
    ("service.payload_bytes", "B", "lower", "count"),
    ("service.endpoint_cost_s", "s", "lower", "count"),
    ("trace.overhead_frac", "frac", "lower", "count"),
    ("trace.spans", "count", "lower", "count"),
    ("driver.step_tail_ms", "ms", "lower", "count"),
    ("driver.step_tail_pct", "%", "higher", "count"),
    ("driver.step_samples", "count", "higher", "count"),
    ("driver.unattributed_frac", "frac", "lower", "count"),
]

#: Which layers are on each workload's path: per-layer metric names, or
#: prefixes of them.  ``trace.*`` and ``driver.*`` describe the measurement
#: itself and apply everywhere.  A metric off a workload's path is not
#: printed for it (and reads 0 in the driver's fixed-shape result).
_ON_PATH = {
    "osc_catalyst_inline": (
        "miniapp.", "core.", "analysis.histogram_s", "infrastructure.catalyst_s",
        "render.", "mpi.",
    ),
    "osc_flexpath_staged": (
        "miniapp.", "core.", "analysis.histogram_s", "infrastructure.flexpath_",
        "infrastructure.endpoint_", "mpi.",
    ),
    "osc_storage_roundtrip": (
        "miniapp.", "core.bytes_", "storage.", "posthoc.", "mpi.",
    ),
    "nbody_four_infra": (
        "apps.", "core.", "analysis.projection_s", "analysis.spectrum_s",
        "analysis.fof_s", "infrastructure.catalyst_s", "infrastructure.libsim_s",
        "infrastructure.adios_bp_s", "infrastructure.glean_s", "render.", "mpi.",
        "storage.bp_write_s",
    ),
    "service_two_tenants": ("service.",),
}


def layers_of(workload: str) -> list[str]:
    """The per-layer metrics that apply to ``workload``, in table order."""
    prefixes = _ON_PATH[workload] + ("trace.", "driver.")
    return [name for name, _, _, _ in PER_LAYER if name.startswith(prefixes)]


UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({name: unit for name, unit, _, _ in PER_LAYER})


def tail_percentile(samples: int) -> float:
    """The highest percentile that still has at least ten samples beyond
    it (50 when there are too few samples for any tail)."""
    if samples < 20:
        return 50.0
    return 100.0 * (1.0 - 10.0 / samples)
