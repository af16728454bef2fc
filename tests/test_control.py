"""Tests for the online autotuning controller (repro.control).

Covers the per-config cost model and its derate inversion, the SLO, the
controller's state machine (tune / degrade / probe / recover) in both
spans and outcomes modes, the span sensor, the closed-loop demo under an
injected bandwidth derating, the chaos-harness integration, and the
determinism contract: same seed => byte-identical decision journals
across repeat runs, across writer ranks, and across SPMD backends.
"""

import json
import math

import pytest

from repro.control import SLO, Controller, run_control_demo
from repro.control.sensor import SpanSensor
from repro.perf import ControlConfig, ControlModel
from repro.trace import TraceRecorder


# -- the per-config cost model ------------------------------------------------


class TestControlConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(placement="in-memory")
        with pytest.raises(ValueError):
            ControlConfig(png_workers=-1)

    def test_as_dict_stable(self):
        assert list(ControlConfig().as_dict()) == ["placement", "png_workers"]


class TestControlModel:
    @pytest.fixture(scope="class")
    def model(self):
        return ControlModel()

    def test_candidates_inline_block_first(self, model):
        cands = model.candidate_configs()
        assert len(cands) == 6
        n_inline = sum(c.placement == "in-line" for c in cands)
        assert n_inline == 3
        assert all(c.placement == "in-line" for c in cands[:n_inline])
        assert all(c.placement == "in-transit" for c in cands[n_inline:])
        assert len(set(cands)) == len(cands)
        assert model.default_config() in cands

    def test_staging_derate_hits_only_in_transit(self, model):
        staged = model.default_config()
        inline = staged.with_placement("in-line")
        assert model.predict(staged, 0.9).total > model.predict(staged, 0.0).total
        assert model.predict(inline, 0.9).total == model.predict(inline, 0.0).total

    def test_png_workers_cut_inline_analysis(self, model):
        slow = ControlConfig(placement="in-line", png_workers=0)
        fast = ControlConfig(placement="in-line", png_workers=4)
        assert model.predict(fast, 0.0).analysis < model.predict(slow, 0.0).analysis

    def test_severe_derate_flips_optimum_in_line(self, model):
        cands = model.candidate_configs()
        healthy = min(cands, key=lambda c: model.predict(c, 0.0).total)
        derated = min(cands, key=lambda c: model.predict(c, 0.98).total)
        assert healthy.placement == "in-transit"
        assert derated.placement == "in-line"

    def test_derate_estimation_inverts_prediction(self, model):
        cfg = model.default_config()
        for d in (0.1, 0.5, 0.9, 0.98):
            observed = model.predict(cfg, d).analysis
            assert model.estimate_staging_derate(cfg, observed) == pytest.approx(
                d, abs=1e-9
            )

    def test_derate_estimation_clamps_and_validates(self, model):
        cfg = model.default_config()
        assert model.estimate_staging_derate(cfg, 0.0) == 0.0
        assert model.estimate_staging_derate(cfg, 1e9) == 0.995
        with pytest.raises(ValueError):
            model.estimate_staging_derate(cfg.with_placement("in-line"), 1.0)
        with pytest.raises(ValueError):
            model.predict(cfg, staging_derate=1.0)

    def test_default_slo_has_headroom(self, model):
        max_step, max_over = model.default_slo()
        assert max_step > model.predict(model.default_config()).total
        assert math.isinf(max_over)


class TestSLO:
    def test_step_bound(self):
        slo = SLO(max_step_seconds=1.0)
        assert not slo.violated_by(0.9, 0.5)
        assert slo.violated_by(1.1, 0.5)

    def test_overhead_bound(self):
        slo = SLO(max_overhead_fraction=0.5)
        assert not slo.violated_by(1.2, 1.0)
        assert slo.violated_by(1.6, 1.0)
        assert slo.violated_by(1.0, 0.0)  # zero sim time: unbounded overhead

    def test_as_dict_maps_inf_to_none(self):
        assert SLO().as_dict() == {
            "max_step_seconds": None,
            "max_overhead_fraction": None,
        }
        assert SLO(0.5).as_dict()["max_step_seconds"] == 0.5


# -- the span sensor ----------------------------------------------------------


class TestSpanSensor:
    def test_aggregates_top_level_per_step_spans(self):
        rec = TraceRecorder(rank=0, epoch=0.0)
        sensor = SpanSensor(rec)
        rec.complete("simulation::advance", 0.0, 1.0, step=0)
        rec.complete("sensei::execute", 1.0, 1.5, step=0)
        # Nested and step-less spans must not be double counted.
        rec.complete("catalyst::render", 1.0, 1.4, step=0, parent="sensei::execute")
        rec.complete("io::write", 1.5, 1.6, step=0)
        rec.complete("simulation::initialize", 0.0, 2.0)
        obs = sensor.drain(0)
        assert obs == {
            "simulation": pytest.approx(1.0),
            "analysis": pytest.approx(0.5),
            "write": pytest.approx(0.1),
        }
        assert sensor.drain(0) == {}  # buckets are popped

    def test_drain_sweeps_earlier_buckets(self):
        rec = TraceRecorder(rank=0, epoch=0.0)
        sensor = SpanSensor(rec)
        # The advance span for step N closes before set_step(N) runs in
        # the bridge, so it carries the previous step's tag.
        rec.complete("simulation::advance", 0.0, 1.0, step=0)
        rec.complete("sensei::execute", 1.0, 2.0, step=1)
        obs = sensor.drain(1)
        assert obs == {
            "simulation": pytest.approx(1.0),
            "analysis": pytest.approx(1.0),
        }

    def test_close_detaches(self):
        rec = TraceRecorder(rank=0, epoch=0.0)
        sensor = SpanSensor(rec)
        sensor.close()
        sensor.close()  # idempotent
        rec.complete("sensei::execute", 0.0, 1.0, step=0)
        assert sensor.drain(0) == {}


# -- controller state machine -------------------------------------------------


def _controller(**kwargs):
    kwargs.setdefault("model", ControlModel())
    kwargs.setdefault("slo", SLO(max_step_seconds=0.65))
    kwargs.setdefault("seed", 3)
    return Controller(**kwargs)


class TestController:
    def test_rejects_non_candidate_start_config(self):
        with pytest.raises(ValueError, match="candidate"):
            _controller(config=ControlConfig(png_workers=7))

    def test_first_healthy_step_tunes_the_default(self):
        ctrl = _controller()
        truth = ctrl.model.predict(ctrl.model.default_config(), 0.0)
        decision = ctrl.observe_step(
            0,
            {
                "simulation": truth.sim,
                "analysis": truth.analysis,
                "write": truth.write,
            },
        )
        assert decision.action == "reconfigure"
        assert decision.previous is not None
        assert ctrl.config.placement == "in-transit"
        assert ctrl.model.predict(ctrl.config, 0.0).total < truth.total

    def test_outcome_failures_degrade_in_line(self):
        ctrl = _controller()
        ctrl.observe_outcome(0, staged=True)
        assert ctrl.config.placement == "in-transit"
        actions = []
        for step in range(1, 6):
            actions.append(ctrl.observe_outcome(step, staged=False).action)
            if ctrl.config.placement == "in-line":
                break
        assert actions[-1] == "degrade"
        assert len(actions) <= 3  # bad news acts fast
        assert not ctrl.allow()
        assert ctrl.believed_derate > 0.9

    def test_probe_scheduled_then_recovery(self):
        ctrl = _controller(probe_interval=3, probe_jitter=0)
        ctrl.observe_outcome(0, staged=True)
        step = 1
        while ctrl.config.placement != "in-line":
            ctrl.observe_outcome(step, staged=False)
            step += 1
        degrade_step = step - 1
        # In-line steps do not attempt staging until the probe fires.
        probed = []
        recovered_at = None
        for s in range(step, step + 12):
            attempted = ctrl.allow()
            probed.append(attempted)
            decision = ctrl.observe_outcome(s, staged=attempted)
            if decision.action == "recover":
                recovered_at = s
                break
        assert any(probed), "no staging probe was ever scheduled"
        assert not probed[0], "probing must wait out the interval"
        assert recovered_at is not None
        assert ctrl.config.placement == "in-transit"
        assert recovered_at - degrade_step >= 3
        # The probe decision carries its seeded draw in the journal.
        draws = [d.draw for d in ctrl.journal.entries if d.draw is not None]
        assert draws, "probe scheduling never recorded its draw"

    def test_spans_mode_closed_loop_matches_outcomes_dynamics(self):
        ctrl = _controller()
        model = ctrl.model
        for step in range(6):
            true_d = 0.98 if step >= 3 else 0.0
            truth = model.predict(ctrl.plant_config(), true_d)
            ctrl.observe_step(
                step,
                {
                    "simulation": truth.sim,
                    "analysis": truth.analysis,
                    "write": truth.write,
                },
            )
        assert ctrl.config.placement == "in-line"
        assert ctrl.believed_derate > 0.9
        degrade = [
            d for d in ctrl.journal.entries if d.action == "degrade"
        ]
        assert len(degrade) == 1
        assert degrade[0].slo_violated

    def test_hysteresis_prevents_oscillation_on_ties(self):
        ctrl = _controller()
        truth = ctrl.model.predict(ctrl.model.default_config(), 0.0)
        obs = {
            "simulation": truth.sim,
            "analysis": truth.analysis,
            "write": truth.write,
        }
        ctrl.observe_step(0, obs)
        tuned = ctrl.config
        for step in range(1, 10):
            t = ctrl.model.predict(ctrl.plant_config(), 0.0)
            ctrl.observe_step(
                step,
                {"simulation": t.sim, "analysis": t.analysis, "write": t.write},
            )
        assert ctrl.config == tuned
        assert sum(d.action != "hold" for d in ctrl.journal.entries) == 1

    def test_actuators_fire_on_adoption(self):
        calls = []
        ctrl = _controller()
        ctrl.register_actuator(lambda old, new: calls.append((old, new)))
        ctrl.observe_outcome(0, staged=True)
        assert len(calls) == 1
        old, new = calls[0]
        assert old != new
        assert new == ctrl.config

    def test_identical_inputs_identical_journals(self):
        def run():
            ctrl = _controller(seed=11)
            for step in range(12):
                staged = not (3 <= step < 9)
                if ctrl.config.placement == "in-line" and not ctrl.allow():
                    staged = False
                ctrl.observe_outcome(step, staged=staged)
            return ctrl.journal.to_json()

        assert run() == run()

    def test_journal_records_slo_with_inf_as_none(self):
        ctrl = Controller(model=ControlModel(), seed=0)
        assert ctrl.journal.slo["max_overhead_fraction"] is None
        assert ctrl.journal.slo["max_step_seconds"] is not None


# -- sensed outcomes: spans grafted onto the outcome feed ---------------------


def _sensed_controller(**kwargs):
    """A controller with a span sensor fed by synthetic (modeled) spans."""
    ctrl = _controller(**kwargs)
    rec = TraceRecorder(rank=0, epoch=0.0)
    ctrl.attach(rec)
    return ctrl, rec


def _feed_step(rec, step, sim, analysis, write=0.0):
    """Emit one step's top-level spans with fixed, deterministic times."""
    t = float(step)
    rec.complete("simulation::advance", t, t + sim, step=step)
    t += sim
    rec.complete("analysis::execute", t, t + analysis, step=step)
    if write > 0.0:
        t += analysis
        rec.complete("io::write", t, t + write, step=step)


class TestSensedOutcomes:
    def test_outcome_observation_includes_measured_phases(self):
        ctrl, rec = _sensed_controller()
        _feed_step(rec, 0, sim=0.2, analysis=0.1, write=0.05)
        decision = ctrl.observe_outcome(0, staged=True)
        assert decision.observed["attempted"] == 1.0
        assert decision.observed["staged"] == 1.0
        assert decision.observed["simulation"] == pytest.approx(0.2)
        assert decision.observed["analysis"] == pytest.approx(0.1)
        assert decision.observed["write"] == pytest.approx(0.05)

    def test_sensed_analysis_seconds_drive_continuous_derate(self):
        # A staged step whose measured analysis cost matches a heavily
        # derated fabric must raise belief continuously -- the signal the
        # discrete outcome feed (healthy => flat 0.0) cannot carry.
        ctrl, rec = _sensed_controller()
        slow = ctrl.model.predict(ctrl.plant_config(), 0.9)
        _feed_step(rec, 0, sim=slow.sim, analysis=slow.analysis)
        ctrl.observe_outcome(0, staged=True)
        assert ctrl.believed_derate > 0.5

    def test_sensed_failure_still_imputes_outcome_derate(self):
        from repro.control.controller import OUTCOME_DERATE

        ctrl, rec = _sensed_controller()
        _feed_step(rec, 0, sim=0.001, analysis=0.001)
        ctrl.observe_outcome(0, staged=False)
        # ALPHA_RAISE-weighted EWMA from 0 toward the imputed sample.
        assert ctrl.believed_derate == pytest.approx(0.9 * OUTCOME_DERATE)

    def test_sensed_slo_violation_bypasses_cooldown(self):
        ctrl, rec = _sensed_controller()
        _feed_step(rec, 0, sim=0.1, analysis=2.0)  # way past max_step_seconds
        decision = ctrl.observe_outcome(0, staged=True)
        assert decision.slo_violated

    def test_unsensed_observation_unchanged(self):
        # No sensor attached: the observed dict stays the discrete pair,
        # which is what keeps CI's chaos-smoke byte-identity diff green.
        ctrl = _controller()
        decision = ctrl.observe_outcome(0, staged=True)
        assert set(decision.observed) == {"attempted", "staged"}

    def test_sensed_journal_determinism(self):
        def run():
            ctrl, rec = _sensed_controller(seed=11)
            for step in range(12):
                staged = not (3 <= step < 9)
                if (
                    ctrl.config.placement == "in-line"
                    and not ctrl.allow()
                ):
                    staged = False
                _feed_step(
                    rec, step, sim=0.01 + 0.001 * step, analysis=0.02
                )
                ctrl.observe_outcome(step, staged=staged)
            return ctrl.journal.to_json()

        assert run() == run()

    def test_chaos_spans_mode_group_journals_identical(self, tmp_path):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            seed=42,
            ranks=3,
            steps=6,
            out_dir=str(tmp_path),
            controller=True,
            sense="spans",
        )
        assert report["controller"]["journals_identical"]
        journal = json.loads((tmp_path / "decision_journal.json").read_text())
        assert journal["meta"]["mode"] == "spans"
        assert len(journal["decisions"]) == 6
        # At least one decision carries a measured per-phase observation.
        assert any(
            "simulation" in d["observed"] or "analysis" in d["observed"]
            for d in journal["decisions"]
        )

    def test_chaos_rejects_unknown_sense(self, tmp_path):
        from repro.faults.chaos import run_chaos

        with pytest.raises(ValueError, match="sense"):
            run_chaos(out_dir=str(tmp_path), sense="vibes")


# -- the closed-loop demo -----------------------------------------------------


class TestControlDemo:
    @pytest.fixture(scope="class")
    def demo(self):
        return run_control_demo()

    def test_degrades_during_outage_and_recovers_after(self, demo):
        s = demo["summary"]
        first, end = s["derate_window"]
        assert s["degraded_at"] is not None
        assert first <= s["degraded_at"] <= first + 2, "slow degrade"
        assert s["recovered_at"] is not None
        assert s["recovered_at"] >= end
        assert s["final_placement"] == "in-transit"

    def test_slo_held_except_detection_and_probes(self, demo):
        s = demo["summary"]
        first, end = s["derate_window"]
        over = s["steps_over_slo"]
        assert len(over) <= 4
        probe_steps = {
            d["step"] for d in demo["journal"]["decisions"] if d["probe"]
        }
        for step in over:
            assert first <= step < end
            assert step <= s["degraded_at"] or step in probe_steps

    def test_journal_consensus_metadata(self, demo):
        for d in demo["journal"]["decisions"]:
            assert d["adopted"] == d["proposal"]  # healthy lockstep group
            assert d["action"] in ("hold", "reconfigure", "degrade", "recover")

    def test_repeat_run_byte_identical(self, demo):
        again = run_control_demo()
        assert again["journal_text"] == demo["journal_text"]

    def test_backends_byte_identical(self):
        thread = run_control_demo(
            steps=16, derate_window=(4, 10), writers=2, backend="thread"
        )
        process = run_control_demo(
            steps=16, derate_window=(4, 10), writers=2, backend="process"
        )
        assert thread["journal_text"] == process["journal_text"]

    def test_seed_perturbs_probe_schedule(self):
        base = run_control_demo(steps=24, derate_window=(4, 18), seed=7)
        other = run_control_demo(steps=24, derate_window=(4, 18), seed=104)
        assert base["journal_text"] != other["journal_text"]

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "demo"
        result = run_control_demo(
            steps=12, derate_window=(4, 9), writers=2, out_dir=str(out)
        )
        journal = json.loads((out / "decision_journal.json").read_text())
        assert journal["meta"]["mode"] == "spans"
        assert len(journal["decisions"]) == 12
        assert (out / "decision_journal.json").read_text() == result[
            "journal_text"
        ]
        assert (out / "timeline.txt").read_text().strip()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 12


# -- chaos-harness integration ------------------------------------------------


class TestChaosControllerIntegration:
    @pytest.fixture(scope="class")
    def chaos_pair(self, tmp_path_factory):
        from repro.faults.chaos import run_chaos

        root = tmp_path_factory.mktemp("chaos_ctl")
        a = run_chaos(seed=42, out_dir=str(root / "a"), controller=True)
        b = run_chaos(seed=42, out_dir=str(root / "b"), controller=True)
        return root, a, b

    def test_replay_byte_identical_journals(self, chaos_pair):
        root, a, b = chaos_pair
        ja = (root / "a" / "decision_journal.json").read_bytes()
        jb = (root / "b" / "decision_journal.json").read_bytes()
        assert ja == jb
        assert a["controller"]["actions"] == b["controller"]["actions"]

    def test_writer_group_journals_identical(self, chaos_pair):
        _, a, _ = chaos_pair
        assert a["controller"]["journals_identical"]

    def test_degrades_after_endpoint_disconnect(self, chaos_pair):
        _, a, _ = chaos_pair
        actions = dict((act, step) for step, act in a["controller"]["actions"])
        assert "degrade" in actions
        disconnect = a["endpoint"]["disconnected_at_step"]
        assert disconnect is not None
        assert a["controller"]["final_config"]["placement"] == "in-line"

    def test_accounting_invariant_holds_under_controller(self, chaos_pair):
        _, a, _ = chaos_pair
        acct = a["accounting"]
        total = (
            acct["staged_steps"] + acct["degraded_steps"] + acct["skipped_steps"]
        )
        assert total == a["steps"]
        assert 0 <= acct["lost_in_flight"] <= 1

    def test_journal_decision_per_step(self, chaos_pair):
        root, a, _ = chaos_pair
        journal = json.loads((root / "a" / "decision_journal.json").read_text())
        assert journal["meta"]["mode"] == "outcomes"
        assert len(journal["decisions"]) == a["steps"]


# -- bridge wiring ------------------------------------------------------------


class TestBridgeControllerHook:
    def test_end_step_called_per_execute(self):
        from repro.core.bridge import Bridge
        from repro.mpi import run_spmd

        class _Recorder:
            def __init__(self):
                self.attached = None
                self.steps = []

            def attach(self, recorder):
                self.attached = recorder

            def end_step(self, step):
                self.steps.append(step)

        ctrl = _Recorder()

        def program(comm):
            from repro.miniapp import OscillatorSimulation
            from repro.miniapp.oscillator import default_oscillators

            sim = OscillatorSimulation(
                comm, (8, 8, 8), default_oscillators(), dt=0.01
            )
            bridge = Bridge(comm, sim.make_data_adaptor(), controller=ctrl)
            bridge.initialize()
            for _ in range(3):
                sim.advance()
                bridge.execute(sim.time, sim.step)
            bridge.finalize()
            return ctrl.steps

        [steps] = run_spmd(1, program)
        assert steps == [1, 2, 3]
