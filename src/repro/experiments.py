"""Experiment registry: every modeled paper table and figure, computed once.

Each entry returns a :class:`Result`: its typed rows (scale or run,
configuration, then the numbers in the header's units), the format
``python -m repro run`` prints them with, and the paper's shape claims as
:class:`Claim` data.  ``tests/test_cli_experiments.py`` asserts every claim
in tier-1, where ``tests/test_native_figures.py`` runs the real code for
each figure the program itself can show.  The entries after the paper's
figures model the design choices the paper discusses (burst-buffer
staging, compositing algorithm, endpoint placement, staging window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.perf.apps_model import (
    AVFRun,
    NYX_RUNS,
    PHASTA_RUNS,
    avf_periteration_series,
    avf_strong_scaling,
    nyx_scaling,
    phasta_table2,
)
from repro.perf.events import simulate_staging
from repro.perf.iomodel import IOModel
from repro.perf.machine import CORI, TITAN
from repro.perf.miniapp_model import SCALES, MiniappConfig, MiniappModel
from repro.perf.network import NetworkModel

_INF = math.inf


@dataclass(frozen=True)
class Claim:
    """One paper shape claim: a scalar the model computes, the band it must
    fall in, and the paper's words or value.

    The band is open, or closed when ``closed`` (an equality is a closed
    band of zero width).  ``mismatch`` marks a claim whose band pins the
    model's own shape because the model does not reproduce the paper's,
    which ``paper`` states.
    """

    what: str
    value: float
    band: tuple[float, float]
    paper: str
    closed: bool = False
    mismatch: bool = False


@dataclass(frozen=True)
class Result:
    """One experiment: its rows, the header and row format ``repro run``
    prints them with, and its claims."""

    header: str
    row_format: str
    rows: list[tuple]
    claims: list[Claim]

    def lines(self) -> list[str]:
        return [self.row_format.format(*row) for row in self.rows]


ExperimentFn = Callable[[], Result]

_REGISTRY: dict[str, tuple[str, ExperimentFn]] = {}


def experiment(name: str, description: str):
    def deco(fn: ExperimentFn) -> ExperimentFn:
        _REGISTRY[name] = (description, fn)
        return fn

    return deco


def available_experiments() -> dict[str, str]:
    return {name: desc for name, (desc, _) in sorted(_REGISTRY.items())}


def run_experiment(name: str) -> Result:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name][1]()


def _models():
    return {s: MiniappModel(MiniappConfig.at_scale(s)) for s in ("1K", "6K", "45K")}


@experiment("fig03", "time to solution, Original vs SENSEI Autocorrelation")
def _fig03():
    rows = []
    for scale, m in _models().items():
        ac = m.autocorrelation()
        # Original couples the same analysis by subroutine call.
        t_orig = (
            m.original().time_to_solution(m.cfg.steps)
            + m.cfg.steps * (ac.analysis_per_step - m.sensei_overhead_step)
            + ac.finalize
        )
        rows.append((scale, m.cfg.cores, t_orig, ac.time_to_solution(m.cfg.steps)))
    return Result(
        f"{'scale':<5}{'cores':>8}{'original(s)':>14}{'sensei(s)':>14}",
        "{:<5}{:>8}{:>14.2f}{:>14.2f}",
        rows,
        [
            Claim(f"{s} sensei/original-1", t_s / t_o - 1, (-0.01, 0.01),
                  "no measurable difference between the two configurations")
            for s, _, t_o, t_s in rows
        ],
    )


@experiment("fig04", "memory footprint, Original vs SENSEI Autocorrelation")
def _fig04():
    rows, claims = [], []
    for scale, m in _models().items():
        # The original carries the same autocorrelation buffers.
        ac_buffers = 2 * m.cfg.ac_window * m.cfg.points_per_core * 8
        orig = (m.original().high_water_bytes_per_rank + ac_buffers) * m.cfg.cores
        sensei = m.autocorrelation().high_water_bytes_per_rank * m.cfg.cores
        rows.append((scale, m.cfg.cores, orig / 1e12, sensei / 1e12))
        claims.append(
            Claim(f"{scale} original-sensei high-water (B)", orig - sensei, (0, 0),
                  "comparable memory footprint for the two configurations",
                  closed=True)
        )
    return Result(
        f"{'scale':<5}{'cores':>8}{'original(TB)':>14}{'sensei(TB)':>14}",
        "{:<5}{:>8}{:>14.3f}{:>14.3f}",
        rows,
        claims,
    )


@experiment("fig05", "one-time costs per configuration")
def _fig05():
    rows = [
        (scale, b.config_name, b.sim_initialize, b.analysis_initialize, b.finalize)
        for scale, m in _models().items()
        for b in m.all_insitu_configs()
    ]
    by = {(s, n): (si, ai, f) for s, n, si, ai, f in rows}
    return Result(
        f"{'scale':<5}{'configuration':<17}{'sim init(s)':>12}"
        f"{'ana init(s)':>12}{'finalize(s)':>12}",
        "{:<5}{:<17}{:>12.3f}{:>12.3f}{:>12.3f}",
        rows,
        [
            Claim("45K libsim-slice analysis init (s)", by["45K", "libsim-slice"][1],
                  (2.0, _INF), "Libsim's per-rank configuration checks, ~3.5 s at 45K"),
            Claim("45K catalyst-slice analysis init (s)",
                  by["45K", "catalyst-slice"][1], (-_INF, 1.0),
                  "analysis initialization minimal except Libsim-slice"),
            Claim("45K autocorrelation-histogram finalize (s)",
                  by["45K", "autocorrelation"][2] - by["45K", "histogram"][2], (0, _INF),
                  "only the autocorrelation finalize (global top-k) is non-negligible"),
        ],
    )


@experiment("fig06", "per-timestep costs per configuration")
def _fig06():
    rows = [
        (scale, b.config_name, b.sim_per_step, b.analysis_per_step)
        for scale, m in _models().items()
        for b in m.all_insitu_configs()
    ]
    by = {(s, n): (sim, ana) for s, n, sim, ana in rows}
    cat_growth = by["45K", "catalyst-slice"][1] / by["1K", "catalyst-slice"][1]
    lib_growth = by["45K", "libsim-slice"][1] / by["1K", "libsim-slice"][1]
    grows = "slice analyses are compositing-dominated and grow with concurrency"
    return Result(
        f"{'scale':<5}{'configuration':<17}{'sim/step(s)':>12}"
        f"{'analysis/step(s)':>17}",
        "{:<5}{:<17}{:>12.4f}{:>17.4f}",
        rows,
        [
            *(
                Claim(f"{s} catalyst-slice/histogram analysis",
                      by[s, "catalyst-slice"][1] / by[s, "histogram"][1], (1.0, _INF),
                      "slice analyses are compositing-dominated")
                for s in SCALES
            ),
            Claim("baseline sim/step 1K-6K (s)",
                  by["1K", "baseline"][0] - by["6K", "baseline"][0], (-1e-9, 1e-9),
                  "the simulation phase weak-scales nearly perfectly"),
            # ROADMAP item 12: the model's compositing terms are flat.
            Claim("catalyst-slice analysis 45K/1K", cat_growth, (1.0, 1.0005),
                  grows, mismatch=True),
            Claim("libsim-slice analysis 45K/1K", lib_growth, (1.005, 1.015),
                  grows, mismatch=True),
            Claim("libsim/catalyst growth", lib_growth / cat_growth, (1.0, _INF),
                  "Catalyst (binary swap) and Libsim (direct send) scale differently",
                  mismatch=True),
        ],
    )


@experiment("fig07", "memory overhead: startup vs high-water")
def _fig07():
    rows = [
        (
            scale,
            b.config_name,
            b.startup_bytes_per_rank * m.cfg.cores,
            b.high_water_bytes_per_rank * m.cfg.cores,
        )
        for scale, m in _models().items()
        for b in m.all_insitu_configs()
    ]
    by = {(s, n): (st, hw) for s, n, st, hw in rows}
    return Result(
        f"{'scale':<5}{'configuration':<17}{'startup(TB)':>13}{'high-water(TB)':>15}",
        "{:<5}{:<17}{:>13.3f}{:>15.3f}",
        [(s, n, st / 1e12, hw / 1e12) for s, n, st, hw in rows],
        [
            *(
                Claim(f"{name} high-water 45K/1K", by["45K", name][1] / by["1K", name][1],
                      (1.0, _INF), "summed over ranks, the high-water mark grows with scale")
                for name in ("baseline", "histogram", "autocorrelation", "catalyst-slice")
            ),
            Claim("45K histogram-baseline startup (B)",
                  by["45K", "histogram"][0] - by["45K", "baseline"][0], (0, 0),
                  "startup footprint is ~the Baseline executable", closed=True),
        ],
    )


@experiment("fig08", "ADIOS FlexPath writer costs (histogram endpoint)")
def _fig08():
    rows = []
    for scale, m in _models().items():
        fp = m.flexpath("histogram")
        rows.append(
            (scale, fp["writer_initialize"], fp["adios_advance"], fp["adios_analysis"])
        )
    claims = []
    for scale, _, advance, analysis in rows:
        claims += [
            Claim(f"{scale} adios::advance (s)", advance, (-_INF, 0.01),
                  "advance is the cheap metadata update"),
            Claim(f"{scale} adios::analysis (s)", analysis, (0.0, _INF),
                  "analysis is data transmission plus blocking", closed=True),
        ]
    return Result(
        f"{'scale':<5}{'initialize(s)':>14}{'advance(s)':>12}{'analysis(s)':>13}",
        "{:<5}{:>14.3f}{:>12.6f}{:>13.6f}",
        rows,
        claims,
    )


@experiment("fig09", "ADIOS FlexPath endpoint costs per analysis")
def _fig09():
    rows = []
    for scale, m in _models().items():
        for analysis in ("histogram", "autocorrelation", "catalyst-slice"):
            fp = m.flexpath(analysis)
            rows.append(
                (scale, analysis, fp["endpoint_initialize"], fp["endpoint_analysis"])
            )
    by = {(s, a): i for s, a, i, _ in rows}
    cores, ppc = SCALES["6K"]
    init_titan = MiniappModel(
        MiniappConfig(cores=cores, points_per_core=ppc, machine=TITAN)
    ).flexpath("histogram")["endpoint_initialize"]
    return Result(
        f"{'scale':<5}{'analysis':<17}{'reader init(s)':>15}"
        f"{'analysis/step(s)':>17}",
        "{:<5}{:<17}{:>15.3f}{:>17.4f}",
        rows,
        [
            Claim("histogram reader init 45K/1K", by["45K", "histogram"] / by["1K", "histogram"],
                  (1.0, _INF), "reader initialization is expensive on Cori at scale"),
            Claim("6K reader init Cori/Titan", by["6K", "histogram"] / init_titan,
                  (5.0, 20.0), "an order of magnitude cheaper on Titan"),
        ],
    )


@experiment("fig10", "per-step write costs vs the simulation")
def _fig10():
    rows = []
    for scale, m in _models().items():
        b = m.baseline_with_writes()
        rows.append(
            (scale, b.sim_per_step, b.write_per_step, b.write_per_step / b.sim_per_step)
        )
    ratio = {s: r for s, _, _, r in rows}
    return Result(
        f"{'scale':<5}{'sim/step(s)':>12}{'write/step(s)':>14}{'write/sim':>10}",
        "{:<5}{:>12.3f}{:>14.3f}{:>10.1f}",
        rows,
        [
            Claim("1K write/sim", ratio["1K"], (-_INF, 1.0), "the write has little impact"),
            Claim("6K write/sim", ratio["6K"], (2.0, 8.0), "writes take ~4x the simulation"),
            Claim("45K write/sim", ratio["45K"], (12.0, 30.0), "~20x (9 s/step for 123 GB)"),
        ],
    )


@experiment("table1", "one-step write: VTK multi-file vs MPI-IO")
def _table1():
    rows = []
    for scale, m in _models().items():
        wp = m.write_paths()
        rows.append(
            (scale, SCALES[scale][0], wp["size_gb"], wp["vtk_io"], wp["mpi_io"])
        )
    paper = {"1K": (0.12, 0.40), "6K": (0.67, 3.17), "45K": (9.05, 22.87)}
    claims = []
    for scale, _, _, vtk, mpiio in rows:
        ref_v, ref_m = paper[scale]
        claims += [
            Claim(f"{scale} VTK/MPI-IO", vtk / mpiio, (0.0, 1.0),
                  "multi-file VTK writes beat collective MPI-IO"),
            Claim(f"{scale} VTK I/O (s)", vtk, (ref_v / 2, ref_v * 2), f"{ref_v} s"),
            Claim(f"{scale} MPI-IO (s)", mpiio, (ref_m / 2, ref_m * 2), f"{ref_m} s"),
        ]
    return Result(
        f"{'scale':<5}{'cores':>8}{'size(GB)':>10}{'VTK I/O(s)':>12}{'MPI-IO(s)':>11}",
        "{:<5}{:>8}{:>10.1f}{:>12.2f}{:>11.2f}",
        rows,
        claims,
    )


@experiment("fig11", "post hoc read/process/write at 10% cores")
def _fig11():
    rows = []
    for scale, m in _models().items():
        for analysis in ("histogram", "autocorrelation", "slice"):
            ph = m.posthoc(analysis)
            rows.append(
                (scale, analysis, ph["readers"], ph["read"], ph["process"], ph["write"])
            )
    by = {(s, a): (r, rd, p) for s, a, r, rd, p, _ in rows}
    samples = IOModel(CORI).read_samples(4544, 45440, 123e9, n=30, seed=7)
    return Result(
        f"{'scale':<5}{'analysis':<17}{'readers':>8}{'read(s)':>10}"
        f"{'process(s)':>11}{'write(s)':>10}",
        "{:<5}{:<17}{:>8}{:>10.1f}{:>11.2f}{:>10.2f}",
        rows,
        [
            Claim("1K readers", by["1K", "histogram"][0], (81, 81),
                  "10% of the writer cores", closed=True),
            Claim("45K readers", by["45K", "histogram"][0], (4544, 4544),
                  "10% of the writer cores", closed=True),
            Claim("45K histogram read/process",
                  by["45K", "histogram"][1] / by["45K", "histogram"][2], (1.0, _INF),
                  "reads dominate"),
            Claim("45K read-time cov (30 samples)", float(samples.std() / samples.mean()),
                  (0.2, _INF), "significant variability in read times on Lustre at scale"),
        ],
    )


@experiment("fig12", "in situ vs post hoc time to solution")
def _fig12():
    matching = {
        "histogram": "histogram",
        "autocorrelation": "autocorrelation",
        "catalyst-slice": "slice",
        "libsim-slice": "slice",
    }
    rows = []
    for scale, m in _models().items():
        for b in m.all_insitu_configs():
            if b.config_name not in matching:
                continue
            insitu = b.time_to_solution(m.cfg.steps)
            writes = m.cfg.steps * m.io.file_per_process_write(
                m.cfg.cores, m.cfg.step_bytes
            )
            ph = m.posthoc(matching[b.config_name])
            posthoc = (
                m.cfg.steps * b.sim_per_step
                + writes
                + ph["read"]
                + ph["process"]
                + ph["write"]
            )
            rows.append((scale, b.config_name, insitu, posthoc))
    return Result(
        f"{'scale':<5}{'configuration':<17}{'in situ(s)':>12}{'post hoc(s)':>13}",
        "{:<5}{:<17}{:>12.1f}{:>13.1f}",
        rows,
        [
            Claim(f"{s} {n} in situ/post hoc", insitu / posthoc, (0.0, 1.0),
                  "in situ significantly faster than post hoc")
            for s, n, insitu, posthoc in rows
        ],
    )


@experiment("table2", "PHASTA in situ execution times (Mira)")
def _table2():
    out = {name: phasta_table2(run) for name, run in PHASTA_RUNS.items()}
    paper_pct = {"IS1": 8.2, "IS2": 33.0, "IS3": 13.0}
    return Result(
        f"{'run':<5}{'onetime(s)':>11}{'insitu/step(s)':>15}{'total(s)':>10}"
        f"{'% in situ':>10}",
        "{:<5}{:>11.2f}{:>15.2f}{:>10.0f}{:>10.1f}",
        [
            (name, r.onetime_cost, r.insitu_per_step, r.total_time, r.percent_insitu)
            for name, r in out.items()
        ],
        [
            *(
                Claim(f"{name} % in situ", r.percent_insitu,
                      (paper_pct[name] * 0.6, paper_pct[name] * 1.4), f"{paper_pct[name]}%")
                for name, r in out.items()
            ),
            Claim("IS2/IS1 in situ per step",
                  out["IS2"].insitu_per_step / out["IS1"].insitu_per_step, (3.0, _INF),
                  "image size, not problem size, drives the cost (1.40 -> 5.24 s)"),
            Claim("IS3-IS2 in situ per step (s)",
                  out["IS3"].insitu_per_step - out["IS2"].insitu_per_step, (-0.5, 0.5),
                  "same image, 4x the problem: 5.24 vs 5.62 s"),
        ],
    )


@experiment("fig15", "AVF-LESLIE strong scaling with Libsim (Titan)")
def _fig15():
    out = {
        cores: avf_strong_scaling(AVFRun(cores=cores))
        for cores in (8_192, 16_384, 32_768, 65_536, 131_072)
    }
    return Result(
        f"{'cores':>8}{'solver/step(s)':>15}{'libsim/invoc(s)':>16}"
        f"{'avg added/step(s)':>18}",
        "{:>8}{:>15.2f}{:>16.2f}{:>18.2f}",
        [
            (c, r.solver_per_step, r.libsim_per_invocation, r.avg_added_per_step)
            for c, r in out.items()
        ],
        [
            Claim("solver/step 16K/8K",
                  out[16_384].solver_per_step / out[8_192].solver_per_step, (0.0, 1.0),
                  "good solver scaling to 16K cores"),
            Claim("solver/step 131K over ideal",
                  out[131_072].solver_per_step / (out[16_384].solver_per_step / 8),
                  (1.1, _INF), "degradation beyond 16K cores"),
            *(
                Claim(f"{c} libsim/invocation / 5 steps (s)", r.libsim_per_invocation / 5,
                      (1.0, 2.0), "Libsim adds 1-1.5 s per step on average")
                for c, r in out.items()
            ),
            Claim("65K libsim/solver",
                  out[65_536].libsim_per_invocation / out[65_536].solver_per_step,
                  (1.0, _INF), "analysis time exceeds solver time at high concurrency"),
        ],
    )


@experiment("fig16", "AVF per-iteration SENSEI cost at 65K")
def _fig16():
    run = AVFRun(cores=65_536, steps=20)
    rows = [
        (i, t, "  <- Libsim" if i % 5 == 0 else "")
        for i, t in enumerate(avf_periteration_series(run), start=1)
    ]
    libsim = [t for _, t, note in rows if note]
    quiet = [t for _, t, note in rows if not note]
    return Result(
        "per-iteration SENSEI cost at 65K (s)",
        "step {:>3}: {:7.2f}s{}",
        rows,
        [
            Claim("fastest Libsim step (s)", min(libsim), (6.5, 9.5), "7-8 seconds"),
            Claim("slowest Libsim step (s)", max(libsim), (6.5, 9.5), "7-8 seconds"),
            Claim("slowest adaptor-only step (s)", max(quiet), (-_INF, 0.5),
                  "less than 0.5 seconds"),
            Claim("temporal resolution gain", avf_strong_scaling(run).temporal_resolution_gain,
                  (2.5, 4.5), "3-4 times the temporal resolution of post hoc"),
        ],
    )


@experiment("fig17", "Nyx scaling with in situ histogram and slice (Cori)")
def _fig17():
    out = [nyx_scaling(run) for run in NYX_RUNS]
    claims = []
    for r in out:
        h, s = r.histogram_per_step, r.slice_per_step
        claims += [
            Claim(f"{r.grid}^3 histogram/step (s)", h, (-_INF, 1.0),
                  "in situ analysis negligible at all concurrency levels"),
            Claim(f"{r.grid}^3 slice/step (s)", s, (-_INF, 1.0),
                  "in situ analysis negligible at all concurrency levels"),
            Claim(f"{r.grid}^3 solver/max(analysis)", r.solver_per_step / max(h, s),
                  (50.0, _INF), "negligible compared to solution time"),
            Claim(f"{r.grid}^3 plotfile/(histogram+slice)", r.plotfile_write / (h + s),
                  (10.0, _INF), "skipped plot files (17/80/312 s) amortize in situ"),
        ]
    big = next(r for r in out if r.grid == 1024)
    claims += [
        Claim("1024^3 ghost array per rank (B)", big.ghost_bytes_per_rank,
              (2 * 1024 * 1024, 2 * 1024 * 1024), "~2 MB/rank", closed=True),
        Claim("1024^3 slice extra (B)", big.slice_extra_bytes, (200e6, 320e6),
              "+200-300 MB"),
    ]
    return Result(
        f"{'grid':>6}{'cores':>8}{'solver/step(s)':>15}{'hist/step(s)':>13}"
        f"{'slice/step(s)':>14}{'plotfile(s)':>12}",
        "{:>5}^3{:>8}{:>15.1f}{:>13.3f}{:>14.3f}{:>12.0f}",
        [
            (r.grid, r.cores, r.solver_per_step, r.histogram_per_step,
             r.slice_per_step, r.plotfile_write)
            for r in out
        ],
        claims,
    )


@experiment("burstbuffer", "burst-buffer staging vs direct writes (extension)")
def _burstbuffer():
    io = IOModel(CORI)
    rows = []
    for scale, m in _models().items():
        direct = io.file_per_process_write(m.cfg.cores, m.cfg.step_bytes)
        bb, keeps_up = io.burst_buffer_write(
            m.cfg.cores, m.cfg.step_bytes, step_interval=m.sim_step
        )
        rows.append((scale, direct, bb, keeps_up))
    claims = []
    for scale, direct, bb, keeps_up in rows:
        claims += [
            Claim(f"{scale} burst buffer/direct", bb / direct, (0.0, 1.0),
                  "accelerated staging operations"),
            Claim(f"{scale} direct/burst buffer", direct / bb, (50.0, _INF),
                  "no per-file metadata storm: ~100x under the direct cost"),
            Claim(f"{scale} drains at the miniapp cadence", keeps_up, (1, 1),
                  "the drain keeps up at ~0.4 s per step", closed=True),
        ]
    # 123 GB arriving every 0.05 s cannot drain at 700 GB/s: the cost
    # reverts toward the filesystem-bound rate.
    m45 = MiniappModel(MiniappConfig.at_scale("45K"))
    saturated, keeps_up = io.burst_buffer_write(
        m45.cfg.cores, m45.cfg.step_bytes, step_interval=0.05
    )
    claims += [
        Claim("45K drains at a 0.05 s cadence", keeps_up, (0, 0),
              "a faster producer saturates the drain", closed=True),
        Claim("45K saturated/unsaturated burst buffer",
              saturated / next(bb for s, _, bb, _ in rows if s == "45K"),
              (1.0, _INF), "a saturated buffer costs more per step"),
    ]
    return Result(
        f"{'scale':<5}{'direct(s)':>11}{'burst buffer(s)':>16}{'drains?':>9}",
        "{:<5}{:>11.3f}{:>16.4f}{!s:>9}",
        rows,
        claims,
    )


@experiment("compositing", "binary swap vs direct send at 1920x1080 (ablation)")
def _compositing():
    net = NetworkModel(CORI)
    image = 1920 * 1080 * 4
    rows = []
    for p in (4, 16, 64, 256, 1024, 6496, 45440):
        bs, ds = net.binary_swap(p, image), net.direct_send(p, image)
        rows.append((p, bs, ds, ds / bs))
    ratio = {p: r for p, _, _, r in rows}
    return Result(
        f"{'ranks':>7}{'binary swap(s)':>15}{'direct send(s)':>15}{'ratio':>8}",
        "{:>7}{:>15.4f}{:>15.4f}{:>8.1f}",
        rows,
        [
            Claim("direct send/binary swap 45440/4", ratio[45440] / ratio[4], (1.0, _INF),
                  "binary swap's advantage grows with concurrency (Sec. 4.1.3)"),
            Claim("45440 direct send/binary swap", ratio[45440], (50.0, _INF),
                  "binary swap wins at high concurrency"),
        ],
    )


@experiment("placement", "Catalyst-slice endpoint placement (ablation)")
def _placement():
    rows = []
    for scale in ("6K", "45K"):
        m = MiniappModel(MiniappConfig.at_scale(scale))
        for placement in ("hyperthread", "dedicated-cores", "dedicated-nodes"):
            fp = m.flexpath("catalyst-slice", placement=placement)
            rows.append((scale, placement, fp["adios_analysis"], fp["endpoint_analysis"],
                         fp["makespan"]))
    by = {(s, p): (wa, ea, mk) for s, p, wa, ea, mk in rows}
    claims = []
    for scale in ("6K", "45K"):
        hyper, cores, nodes = (
            by[scale, p] for p in ("hyperthread", "dedicated-cores", "dedicated-nodes")
        )
        claims += [
            Claim(f"{scale} dedicated-cores/hyperthread endpoint", cores[1] / hyper[1],
                  (-_INF, 1.0), "no hyperthread contention speeds the endpoint step"),
            Claim(f"{scale} dedicated-nodes/hyperthread endpoint", nodes[1] / hyper[1],
                  (-_INF, 1.0), "no hyperthread contention speeds the endpoint step"),
            Claim(f"{scale} dedicated-nodes adios::analysis (s)", nodes[0], (0.0, _INF),
                  "dedicated nodes pay network transfer on the writer side", closed=True),
            Claim(f"{scale} best dedicated/hyperthread makespan",
                  min(cores[2], nodes[2]) / hyper[2], (-_INF, 1.0),
                  "escaping contention wins despite ceded cores or links (Sec. 4.1.4)"),
        ]
    return Result(
        f"{'scale':<5}{'placement':<17}{'writer ana(s)':>14}"
        f"{'endpoint/step(s)':>17}{'makespan(s)':>12}",
        "{:<5}{:<17}{:>14.4f}{:>17.4f}{:>12.1f}",
        rows,
        claims,
    )


@experiment("staging_window", "FlexPath window depth, slow endpoint at 6K (ablation)")
def _staging_window():
    m = MiniappModel(MiniappConfig.at_scale("6K"))
    endpoint = m.catalyst_slice().analysis_per_step * 1.5  # slower than the writer
    rows = []
    for window in (1, 2, 4, 8):
        tl = simulate_staging(100, sim_time=m.sim_step, advance_time=1e-4,
                              transfer_time=5e-4, endpoint_time=endpoint, window=window)
        buffer_mb = window * m.cfg.points_per_core * 8 / 1e6
        rows.append((window, sum(tl.writer_analysis), tl.makespan, buffer_mb))
    claims = [
        Claim(f"window {w1}->{w2} writer blocking change (s)", b2 - b1, (-_INF, 0.0),
              "a deeper window can only reduce blocking", closed=True)
        for (w1, b1, _, _), (w2, b2, _, _) in zip(rows, rows[1:])
    ]
    claims.append(
        Claim("window 8 writer blocking (s)", rows[-1][1], (0.0, _INF),
              "an endpoint slower than the writer keeps blocking at any depth")
    )
    return Result(
        f"{'window':>7}{'writer block(s)':>16}{'makespan(s)':>12}{'buffer/rank(MB)':>17}",
        "{:>7}{:>16.2f}{:>12.2f}{:>17.2f}",
        rows,
        claims,
    )
