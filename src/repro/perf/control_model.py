"""Per-configuration cost queries for the online autotuning controller.

The paper's core argument is that in situ placement and configuration
choices carry measurable, workload-dependent costs (Secs. 4.1.1-4.1.4).
:class:`ControlModel` turns the calibrated miniapp model into the *predict*
half of the SIM-SITU predict->verify->act loop: "what would one simulation
step cost under configuration ``X`` if the staging fabric is derated by
``d``?" -- answered purely, so the controller's decisions are replayable.

The decision space (:class:`ControlConfig`) is the two knobs the running
program can actuate:

- ``placement`` -- in-transit FlexPath (analysis offloaded to endpoints,
  Sec. 4.1.4) vs in-line Catalyst (analysis in the simulation loop,
  Sec. 4.1.3);
- ``png_workers`` -- the Table 2 serial-zlib bottleneck and its
  parallel-deflate mitigation.

Costs are composed from :class:`~repro.perf.miniapp_model.MiniappModel`,
:class:`~repro.perf.network.NetworkModel`, and
:class:`~repro.perf.iomodel.IOModel`; ``staging_derate`` scales the staging
fabric's effective bandwidth by ``1 - d`` (congestion / contention), and
``storage_derate`` is forwarded to :class:`IOModel.degraded_fraction`.
Every method is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.perf.iomodel import IOModel
from repro.perf.machine import MachineModel
from repro.perf.miniapp_model import MiniappConfig, MiniappModel

#: Valid placements, conservative first (the consensus MIN over candidate
#: indices must resolve toward in-line, the degraded-but-safe deployment).
PLACEMENTS = ("in-line", "in-transit")

#: Parallel-deflate efficiency per PNG worker (bookkeeping still serializes
#: band slicing/stitching).  This and :data:`PNG_DISPATCH_COST` are asserted
#: values, not fitted ones: no measurement of this program has set them yet.
PNG_PARALLEL_EFFICIENCY = 0.85

#: Per-worker band dispatch cost (s) -- why workers are not free.
PNG_DISPATCH_COST = 2.0e-3

#: GLEAN many-to-few fan-in: writers per aggregator in the aggregated write
#: (Table 1) and per staging endpoint in the ingest term.
AGGREGATOR_FAN_IN = 64

#: FlexPath endpoint co-scheduling + non-zero-copy buffer overhead on top
#: of the inline analysis cost (the ~50% Catalyst-slice penalty of
#: Sec. 4.1.4); matches MiniappModel.flexpath.
STAGING_OVERHEAD = 1.30


@dataclass(frozen=True)
class ControlConfig:
    """One runnable in situ configuration -- a point in the decision space."""

    placement: str = "in-transit"
    png_workers: int = 0

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if self.png_workers < 0:
            raise ValueError("png_workers must be non-negative")

    def as_dict(self) -> dict:
        """JSON-ready form, stable key order (for decision journals)."""
        return {"placement": self.placement, "png_workers": self.png_workers}

    def with_placement(self, placement: str) -> "ControlConfig":
        return replace(self, placement=placement)


@dataclass(frozen=True)
class StepPrediction:
    """Modeled writer-visible cost of one simulation step (seconds)."""

    sim: float
    analysis: float
    write: float

    @property
    def total(self) -> float:
        return self.sim + self.analysis + self.write

    @property
    def overhead_fraction(self) -> float:
        """In situ overhead relative to raw simulation time."""
        if self.sim <= 0.0:
            return math.inf
        return (self.analysis + self.write) / self.sim

    def as_dict(self) -> dict:
        return {
            "sim": round(self.sim, 6),
            "analysis": round(self.analysis, 6),
            "write": round(self.write, 6),
            "total": round(self.total, 6),
        }


class ControlModel:
    """Per-config step-cost predictions over one miniapp configuration.

    Stateless and pure: ``predict(knobs, d)`` always returns the same
    floats for the same arguments, which is what makes controller decision
    journals byte-identical across runs and SPMD backends.
    """

    def __init__(self, config: MiniappConfig | None = None) -> None:
        self.cfg = config if config is not None else MiniappConfig.at_scale("6K")
        self.machine: MachineModel = self.cfg.machine
        self.model = MiniappModel(self.cfg)
        # Pure-function memoization: the controller's planner sweeps all
        # candidates every step, and the derate-estimation bisection calls
        # predict ~50x per sample; caching the derate-independent pieces
        # keeps the per-step planning cost negligible.
        self._inline_cache: dict[int, float] = {}
        self._write_cache: dict[float, float] = {}

    # -- cost pieces -------------------------------------------------------
    def _inline_analysis(self, knobs: ControlConfig) -> float:
        """Catalyst-slice analysis cost under the PNG worker count."""
        cached = self._inline_cache.get(knobs.png_workers)
        if cached is not None:
            return cached
        b = self.model.catalyst_slice()
        png = b.extra["png"]
        rest = b.analysis_per_step - png
        if knobs.png_workers > 0:
            png = (
                png / (knobs.png_workers * PNG_PARALLEL_EFFICIENCY)
                + knobs.png_workers * PNG_DISPATCH_COST
            )
        cost = rest + png
        self._inline_cache[knobs.png_workers] = cost
        return cost

    def predict(
        self,
        knobs: ControlConfig,
        staging_derate: float = 0.0,
        storage_derate: float = 0.0,
    ) -> StepPrediction:
        """Writer-visible per-step cost of ``knobs`` under derated fabric.

        In-line: the simulation pays the full analysis in its loop.
        In-transit: the simulation pays the hyperthread co-scheduling
        penalty, the staged block transfer, and -- when the endpoint falls
        behind -- flow-control blocking.  The endpoint's busy time is its
        (staging-overheaded) analysis plus ingesting its
        :data:`AGGREGATOR_FAN_IN` writers' blocks through the derated
        fabric, which is the term congestion blows up.
        """
        if not 0.0 <= staging_derate < 1.0:
            raise ValueError("staging_derate must be in [0, 1)")
        c = self.cfg
        write = self._write_cache.get(storage_derate)
        if write is None:
            io = IOModel(self.machine, degraded_fraction=storage_derate)
            write = io.aggregated_write(c.cores, c.step_bytes, AGGREGATOR_FAN_IN)
            self._write_cache[storage_derate] = write
        inline = self._inline_analysis(knobs)
        if knobs.placement == "in-line":
            return StepPrediction(
                sim=self.model.sim_step, analysis=inline, write=write
            )
        hp = self.machine.hyperthread_penalty
        sim = self.model.sim_step * hp
        per_rank = c.points_per_core * 8
        net = self.model.net
        advance = 4 * net.ptp(512) * hp
        transfer = net.stage_block(per_rank, same_node=True) / (
            1.0 - staging_derate
        )
        ingest = (
            AGGREGATOR_FAN_IN
            * per_rank
            / (self.machine.net_bandwidth * (1.0 - staging_derate))
        )
        endpoint_busy = inline * hp * STAGING_OVERHEAD + ingest
        blocking = max(0.0, endpoint_busy - sim)
        return StepPrediction(
            sim=sim, analysis=advance + transfer + blocking, write=write
        )

    # -- decision space ----------------------------------------------------
    def candidate_configs(self) -> tuple[ControlConfig, ...]:
        """The canonical candidate list, most conservative first.

        Ordering is load-bearing: writer groups agree on a configuration by
        an ``allreduce(MIN)`` over candidate *indices*, so any rank
        proposing an in-line (lower-index) configuration pulls the whole
        group in-line -- the same one-degrades-all semantics as the staging
        transport's consensus.
        """
        return tuple(
            ControlConfig(placement=placement, png_workers=workers)
            for placement in PLACEMENTS
            for workers in (0, 2, 4)
        )

    def default_config(self) -> ControlConfig:
        """The starting configuration: the paper's staged deployment with
        the serial rank-0 PNG encoder (untuned)."""
        return ControlConfig()

    def default_slo(self) -> "tuple[float, float]":
        """A derived latency SLO: 30% headroom over the untuned healthy
        staged step.  Returns ``(max_step_seconds, max_overhead_fraction)``
        with an unbounded overhead term."""
        return (1.3 * self.predict(self.default_config()).total, math.inf)

    def estimate_staging_derate(
        self,
        knobs: ControlConfig,
        observed_analysis: float,
        lo: float = 0.0,
        hi: float = 0.995,
        iters: int = 48,
    ) -> float:
        """Invert the in-transit analysis cost for the staging derate.

        The *verify* half of the loop: given the analysis seconds a step
        actually took under ``knobs`` (which must be in-transit -- the
        in-line path carries no staging signal), bisect for the derate at
        which the model predicts that cost.  Monotone in ``d`` (transfer
        and ingest both scale by ``1/(1-d)``), so bisection converges;
        fixed iteration count keeps the result a pure function of inputs.
        """
        if knobs.placement != "in-transit":
            raise ValueError("derate estimation needs an in-transit config")
        if observed_analysis <= self.predict(knobs, lo).analysis:
            return lo
        if observed_analysis >= self.predict(knobs, hi).analysis:
            return hi
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if self.predict(knobs, mid).analysis < observed_analysis:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
