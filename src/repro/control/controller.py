"""The online autotuning controller: predict -> verify -> act, between steps.

The controller closes the loop the repository previously left open: the
perf package *predicts* per-configuration step costs, the trace package
*measures* them, and nothing acted on the gap.  :class:`Controller` holds a
user-declared :class:`SLO` against both, maintains a believed staging-fabric
derate from observations, and re-plans the running configuration between
simulation steps -- switching in-transit FlexPath <-> in-line Catalyst and
resizing the PNG worker count.

Determinism contract
--------------------
Every decision is a pure function of (observed values, model state, the
seeded counter-hash RNG).  Wall-clock never enters: observations are either
modeled span seconds (the demo plant) or discrete staging outcomes (the
chaos transport), the probe schedule draws from
:func:`~repro.faults.plan.unit_draw`, and the candidate search is a strict
minimum over a canonical ordering.  Same seed => byte-identical decision
journal, across repeat runs and across thread/process SPMD backends.

Group lockstep
--------------
When constructed with a communicator ``group``, every decision point runs
``allreduce(proposal_index, MIN)`` over the canonical candidate list, whose
in-line block sorts first: any rank proposing the conservative in-line
placement pulls the whole writer group in-line together -- the same
one-degrades-all consensus the staging transport uses, so ranks never
straddle placements.

Probing (explore vs exploit)
----------------------------
The in-line path carries no staging signal, so once degraded the
controller would never learn the fabric recovered.  It therefore schedules
single-step staging probes on a seeded jittered interval; a successful
probe collapses the believed derate and re-opens the in-transit plan,
mirroring the circuit breaker's HALF_OPEN single-probe discipline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.control.journal import Decision, DecisionJournal, _jsonable
from repro.control.sensor import SpanSensor
from repro.faults.plan import unit_draw
from repro.mpi.ops import MAX, MIN
from repro.perf.control_model import ControlConfig, ControlModel

#: Imputed staging derate when an attempted staging step fails outright
#: (discrete outcome, no timing signal): pessimistic enough that two
#: consecutive failures under the fast-raise EWMA push the plan in-line.
OUTCOME_DERATE = 0.98

#: Asymmetric EWMA: believe bad news fast, good news cautiously.
ALPHA_RAISE = 0.9
ALPHA_DECAY = 0.5


@dataclass(frozen=True)
class SLO:
    """A user-declared per-step service-level objective.

    ``max_step_seconds`` bounds the writer-visible step total (the paper's
    "total time to solution" axis); ``max_overhead_fraction`` bounds
    (analysis + write) / simulation (the Sec. 4.1 overhead framing).
    Either may be ``inf`` (unbounded).
    """

    max_step_seconds: float = math.inf
    max_overhead_fraction: float = math.inf

    def violated_by(self, total: float, sim: float) -> bool:
        if total > self.max_step_seconds:
            return True
        if math.isfinite(self.max_overhead_fraction):
            overhead = math.inf if sim <= 0.0 else (total - sim) / sim
            if overhead > self.max_overhead_fraction:
                return True
        return False

    def as_dict(self) -> dict:
        return {
            "max_step_seconds": _jsonable(self.max_step_seconds),
            "max_overhead_fraction": _jsonable(self.max_overhead_fraction),
        }


class Controller:
    """Re-plans the in situ configuration between simulation steps.

    Parameters
    ----------
    model:
        Per-config cost oracle; defaults to the 6K-core miniapp model.
    slo:
        The objective to hold; defaults to the model's derived SLO (30%
        headroom over the untuned healthy staged step).
    seed:
        Seeds the probe-schedule jitter draws; part of the replay key.
    config:
        Starting configuration -- must be one of the model's canonical
        candidates (the consensus index space).
    group:
        Optional communicator for writer-group lockstep adoption.
    mode:
        Journal observation mode: ``"spans"`` or ``"outcomes"``.
    cooldown:
        Minimum steps between *elective* switches; SLO violations bypass
        it (bad news acts immediately).
    probe_interval / probe_jitter:
        A staging probe fires after ``probe_interval + U{0..probe_jitter}``
        consecutive in-line steps, jitter drawn from the seeded RNG.
    hysteresis:
        Elective switches need at least this fractional predicted
        improvement, so belief noise cannot make the plan oscillate.
    """

    def __init__(
        self,
        model: ControlModel | None = None,
        slo: SLO | None = None,
        seed: int = 0,
        config: ControlConfig | None = None,
        group=None,
        journal: DecisionJournal | None = None,
        mode: str = "spans",
        cooldown: int = 3,
        probe_interval: int = 5,
        probe_jitter: int = 3,
        hysteresis: float = 0.05,
    ) -> None:
        self.model = model if model is not None else ControlModel()
        if slo is None:
            max_step, max_over = self.model.default_slo()
            slo = SLO(max_step, max_over)
        self.slo = slo
        self.seed = int(seed)
        self.group = group
        self.cooldown = int(cooldown)
        self.probe_interval = int(probe_interval)
        self.probe_jitter = int(probe_jitter)
        self.hysteresis = float(hysteresis)
        self.candidates = self.model.candidate_configs()
        self.config = config if config is not None else self.model.default_config()
        try:
            self._current_index = self.candidates.index(self.config)
        except ValueError:
            raise ValueError(
                "starting config must be one of model.candidate_configs() "
                "(the group-consensus index space)"
            ) from None
        self.journal = (
            journal
            if journal is not None
            else DecisionJournal(seed=self.seed, slo=self.slo.as_dict(), mode=mode)
        )
        #: Believed staging-fabric derate in [0, 0.995] (0 = healthy).
        self.believed_derate = 0.0
        self._sensor: SpanSensor | None = None
        self._actuators: list = []
        self._probe_next = False
        self._probe_draws = 0
        self._steps_off_transit = 0
        self._last_switch_step = -(self.cooldown + 1)

    # -- wiring --------------------------------------------------------------
    def attach(self, recorder) -> SpanSensor:
        """Subscribe a span sensor to ``recorder`` (the verify feed)."""
        self._sensor = SpanSensor(recorder)
        return self._sensor

    def register_actuator(self, fn) -> None:
        """``fn(old_config, new_config)`` runs on every adopted switch --
        how reconfiguration reaches the live Catalyst/ADIOS components."""
        self._actuators.append(fn)

    # -- read-only views used *during* a step --------------------------------
    def allow(self) -> bool:
        """Should this step attempt the staging transport?  True when the
        adopted placement is in-transit, or a probe is scheduled.  With
        :meth:`observe_outcome` and :meth:`report`, the attempt/skip policy
        face :class:`~repro.faults.CircuitBreaker` shares."""
        return self.config.placement == "in-transit" or self._probe_next

    def report(self) -> dict:
        """This policy's fragment of a staging writer's result."""
        return {
            "controller": {
                "final_config": self.config.as_dict(),
                "journal": self.journal.to_dict(),
            }
        }

    def plant_config(self) -> ControlConfig:
        """The configuration actually in effect this step (probe-adjusted)."""
        if self._probe_next and self.config.placement == "in-line":
            return self.config.with_placement("in-transit")
        return self.config

    # -- observations --------------------------------------------------------
    def end_step(self, step: int) -> Decision:
        """Bridge hook: drain the span sensor through ``step`` and decide."""
        observed = self._sensor.drain(step) if self._sensor is not None else {}
        return self.observe_step(step, observed)

    def observe_step(self, step: int, observed: dict[str, float]) -> Decision:
        """Decide from per-step phase seconds (spans mode).

        ``observed`` maps phase -> seconds (``simulation``/``analysis``/
        ``write``, per :func:`~repro.trace.report.classify_span`).  When
        the effective placement was in-transit, the analysis seconds are
        inverted through the model for a staging-derate sample.
        """
        effective = self.plant_config()
        probe = self._probe_next
        self._probe_next = False
        d_sample = None
        if effective.placement == "in-transit" and "analysis" in observed:
            d_sample = self.model.estimate_staging_derate(
                effective, observed["analysis"]
            )
        violated = False
        if observed:
            total = sum(observed.values())
            sim = observed.get("simulation", 0.0)
            violated = self.slo.violated_by(total, sim)
        return self._decide(step, observed, probe, d_sample, violated)

    #: Canonical phase ordering for the group span reduction; any other
    #: classified phase folds into the trailing ``other`` bucket.
    _SENSE_PHASES = ("simulation", "analysis", "write")

    def _reduce_spans(self, spans: dict[str, float]) -> dict[str, float]:
        """Group-reduce per-rank phase seconds to one shared observation.

        Each writer drains its *own* recorder, but journals must stay
        byte-identical across the group, so the per-phase seconds are
        ``allreduce(MAX)``-ed over a fixed phase ordering -- the group's
        critical-path view, and (unlike a SUM) exact under floating point
        regardless of rank count.  Zero phases are dropped after the
        reduction, so every rank keeps the same key set.
        """
        vec = [spans.get(p, 0.0) for p in self._SENSE_PHASES]
        vec.append(
            sum(v for p, v in spans.items() if p not in self._SENSE_PHASES)
        )
        if self.group is not None:
            import numpy as np

            reduced = self.group.allreduce(
                np.asarray(vec, dtype=np.float64), MAX
            )
            vec = [float(x) for x in reduced]
        out = {
            p: v for p, v in zip(self._SENSE_PHASES, vec) if v > 0.0
        }
        if vec[-1] > 0.0:
            out["other"] = vec[-1]
        return out

    def observe_outcome(self, step: int, staged: bool) -> Decision:
        """Decide from a staging outcome, plus measured spans when sensed.

        The resilient transport reports only whether the group's staged
        step landed; a failed attempt imputes :data:`OUTCOME_DERATE`, a
        successful one samples a healthy fabric.  A step that never
        attempted staging (in-line, no probe) carries no signal.

        When a :class:`~repro.control.sensor.SpanSensor` is attached (see
        :meth:`attach`), the discrete outcome is enriched with the sensed
        per-phase seconds: they are group-reduced so every writer observes
        the same values, a *successful* staged step inverts the measured
        analysis seconds through the model for a continuous derate sample
        (instead of the flat healthy 0.0), and the SLO is checked against
        the measured totals -- the same verify leg ``observe_step`` runs,
        grafted onto the chaos transport's outcome feed.
        """
        attempted = self.allow()
        effective = self.plant_config()
        probe = self._probe_next
        self._probe_next = False
        spans: dict[str, float] = {}
        if self._sensor is not None:
            spans = self._reduce_spans(self._sensor.drain(step))
        d_sample = None
        if attempted:
            if staged and spans.get("analysis", 0.0) > 0.0:
                d_sample = self.model.estimate_staging_derate(
                    effective, spans["analysis"]
                )
            else:
                d_sample = 0.0 if staged else OUTCOME_DERATE
        observed = {
            "attempted": 1.0 if attempted else 0.0,
            "staged": 1.0 if staged else 0.0,
        }
        violated = False
        if spans:
            observed.update(spans)
            total = sum(spans.values())
            violated = self.slo.violated_by(
                total, spans.get("simulation", 0.0)
            )
        return self._decide(step, observed, probe, d_sample, violated)

    # -- the decision core ----------------------------------------------------
    def _update_belief(self, d_sample: float | None) -> None:
        if d_sample is None:
            return
        alpha = ALPHA_RAISE if d_sample > self.believed_derate else ALPHA_DECAY
        believed = (1.0 - alpha) * self.believed_derate + alpha * d_sample
        self.believed_derate = min(max(believed, 0.0), 0.995)

    def _plan(self):
        """Cheapest SLO-feasible candidate at the believed derate; the
        outright cheapest if nothing is feasible.  Strict minima over the
        canonical ordering keep ties deterministic."""
        best_i, best = 0, None
        feas_i, feas = None, None
        for i, cand in enumerate(self.candidates):
            pred = self.model.predict(cand, self.believed_derate)
            if best is None or pred.total < best.total:
                best_i, best = i, pred
            if not self.slo.violated_by(pred.total, pred.sim):
                if feas is None or pred.total < feas.total:
                    feas_i, feas = i, pred
        if feas is not None:
            return feas_i, feas
        return best_i, best

    def _decide(
        self,
        step: int,
        observed: dict[str, float],
        probe: bool,
        d_sample: float | None,
        violated: bool,
    ) -> Decision:
        self._update_belief(d_sample)
        current_pred = self.model.predict(self.config, self.believed_derate)
        violated = violated or self.slo.violated_by(
            current_pred.total, current_pred.sim
        )
        planned_i, planned = self._plan()
        proposal = self._current_index
        if planned_i != self._current_index:
            if violated:
                proposal = planned_i
            elif (
                step - self._last_switch_step > self.cooldown
                and planned.total < current_pred.total * (1.0 - self.hysteresis)
            ):
                proposal = planned_i
        adopted = proposal
        if self.group is not None:
            adopted = int(self.group.allreduce(proposal, MIN))
        previous = None
        action = "hold"
        if adopted != self._current_index:
            old, new = self.config, self.candidates[adopted]
            if new.placement != old.placement:
                action = "degrade" if new.placement == "in-line" else "recover"
            else:
                action = "reconfigure"
            for fn in self._actuators:
                fn(old, new)
            previous = old.as_dict()
            self.config = new
            self._current_index = adopted
            self._last_switch_step = step
        draw = None
        if self.config.placement == "in-line":
            self._steps_off_transit += 1
            jitter_draw = unit_draw(
                self.seed, "control.probe", 0, self._probe_draws
            )
            jitter = int(jitter_draw * (self.probe_jitter + 1))
            if self._steps_off_transit >= self.probe_interval + jitter:
                self._probe_next = True
                self._probe_draws += 1
                self._steps_off_transit = 0
                draw = jitter_draw
        else:
            self._steps_off_transit = 0
        return self.journal.record(
            Decision(
                step=step,
                action=action,
                config=self.config.as_dict(),
                previous=previous,
                observed=observed,
                predicted=self.model.predict(
                    self.config, self.believed_derate
                ).as_dict(),
                believed_derate=self.believed_derate,
                slo_violated=violated,
                probe=probe,
                proposal=proposal,
                adopted=adopted,
                draw=draw,
            )
        )
