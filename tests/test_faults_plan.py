"""Tests for the deterministic fault-plan layer (repro.faults.plan)."""

import pytest

from repro.faults import (
    KNOWN_SITES,
    SITE_MPI_SEND,
    SITE_SIM_STEP,
    SITE_STAGING_ENDPOINT,
    SITE_STORAGE_WRITE,
    FaultEvent,
    FaultPlan,
    FaultRule,
    chaos_plan,
    unit_draw,
)


class TestUnitDraw:
    def test_deterministic(self):
        a = unit_draw(42, "storage.write", 3, 17, salt="rule1")
        b = unit_draw(42, "storage.write", 3, 17, salt="rule1")
        assert a == b

    def test_in_unit_interval(self):
        for occ in range(200):
            v = unit_draw(7, "mpi.send", 1, occ)
            assert 0.0 <= v < 1.0

    def test_every_argument_separates_streams(self):
        base = unit_draw(1, "mpi.send", 0, 0, salt="")
        assert unit_draw(2, "mpi.send", 0, 0, salt="") != base
        assert unit_draw(1, "sim.step", 0, 0, salt="") != base
        assert unit_draw(1, "mpi.send", 1, 0, salt="") != base
        assert unit_draw(1, "mpi.send", 0, 1, salt="") != base
        assert unit_draw(1, "mpi.send", 0, 0, salt="x") != base

    def test_roughly_uniform(self):
        draws = [unit_draw(9, "sim.step", 0, i) for i in range(2000)]
        frac = sum(1 for d in draws if d < 0.25) / len(draws)
        assert 0.2 < frac < 0.3


class TestFaultEvent:
    def test_site_and_rank_must_match(self):
        ev = FaultEvent(SITE_SIM_STEP, "die", rank=2, step=5)
        assert ev.matches(SITE_SIM_STEP, 2, 0, 5)
        assert not ev.matches(SITE_SIM_STEP, 1, 0, 5)
        assert not ev.matches(SITE_MPI_SEND, 2, 0, 5)

    def test_step_selector(self):
        ev = FaultEvent(SITE_SIM_STEP, "die", rank=0, step=3)
        assert not ev.matches(SITE_SIM_STEP, 0, 9, 2)
        assert ev.matches(SITE_SIM_STEP, 0, 9, 3)

    def test_occurrence_selector(self):
        ev = FaultEvent(SITE_STORAGE_WRITE, "write_fail", rank=0, occurrence=2)
        assert not ev.matches(SITE_STORAGE_WRITE, 0, 1, None)
        assert ev.matches(SITE_STORAGE_WRITE, 0, 2, None)

    def test_bare_event_fires_on_first_draw(self):
        ev = FaultEvent(SITE_STAGING_ENDPOINT, "disconnect", rank=0)
        assert ev.matches(SITE_STAGING_ENDPOINT, 0, 0, None)
        assert ev.matches(SITE_STAGING_ENDPOINT, 0, 5, 7)


class TestFaultRule:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultRule(SITE_MPI_SEND, "drop", probability=1.5)

    def test_rank_filter(self):
        rule = FaultRule(SITE_MPI_SEND, "drop", 0.5, ranks=frozenset({1, 3}))
        assert rule.applies_to(SITE_MPI_SEND, 1)
        assert not rule.applies_to(SITE_MPI_SEND, 2)
        assert not rule.applies_to(SITE_SIM_STEP, 1)


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(seed=1, events=(FaultEvent("bogus.site", "die", rank=0),))
        assert "mpi.send" in KNOWN_SITES

    def test_empty(self):
        assert FaultPlan(seed=0).empty
        assert not chaos_plan(0, 2, 10).empty

    def test_events_take_precedence_over_rules(self):
        plan = FaultPlan(
            seed=1,
            events=(FaultEvent(SITE_SIM_STEP, "die", rank=0),),
            rules=(FaultRule(SITE_SIM_STEP, "stall", probability=1.0),),
        )
        hit = plan.match(SITE_SIM_STEP, 0, 0, None, frozenset(), {})
        action, event_idx, rule_idx = hit
        assert (action.kind, event_idx, rule_idx) == ("die", 0, None)

    def test_fired_event_not_rematched(self):
        plan = FaultPlan(seed=1, events=(FaultEvent(SITE_SIM_STEP, "die", rank=0),))
        assert plan.match(SITE_SIM_STEP, 0, 1, None, frozenset({0}), {}) is None

    def test_rule_cap_is_per_rank(self):
        """The firing-cap bookkeeping is keyed (rule_index, rank): one rank
        exhausting its cap must not starve another rank's schedule, or the
        schedule would depend on thread interleaving."""
        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(SITE_SIM_STEP, "stall", 1.0, max_firings=1),),
        )
        assert plan.match(SITE_SIM_STEP, 0, 0, None, frozenset(), {(0, 0): 1}) is None
        hit = plan.match(SITE_SIM_STEP, 1, 0, None, frozenset(), {(0, 0): 1})
        assert hit is not None and hit[0].kind == "stall"

    def test_match_is_pure(self):
        plan = chaos_plan(42, 3, 10)
        args = (SITE_STORAGE_WRITE, 1, 4, 2, frozenset(), {})
        assert plan.match(*args) == plan.match(*args)


class TestChaosPlan:
    def test_structural_guarantees(self):
        plan = chaos_plan(42, n_writers=3, steps=12)
        kinds = {(e.site, e.kind) for e in plan.events}
        assert (SITE_SIM_STEP, "die") in kinds
        assert (SITE_STAGING_ENDPOINT, "disconnect") in kinds
        die = next(e for e in plan.events if e.kind == "die")
        assert 0 <= die.rank < 3
        assert 2 <= die.step < 12
        assert any(r.site == SITE_MPI_SEND for r in plan.rules)
        assert any(r.site == SITE_STORAGE_WRITE for r in plan.rules)

    def test_seeded_and_deterministic(self):
        assert chaos_plan(42, 3, 10) == chaos_plan(42, 3, 10)
        assert chaos_plan(42, 3, 10) != chaos_plan(43, 3, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            chaos_plan(1, 0, 10)
        with pytest.raises(ValueError):
            chaos_plan(1, 2, 2)
