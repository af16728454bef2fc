"""Chaos harness over the nbody app: fault recovery with ragged payloads.

The satellite contract: ``repro chaos --app nbody`` produces byte-identical
recovery reports per seed, and a ``sim.step`` death mid-migration is
recovered by checkpoint/restore replaying particle ownership *exactly* --
asserted by comparing per-rank particle fingerprints against a fault-free
run of the same seed.
"""

import json
import os

import pytest

from repro.faults import SITE_SIM_STEP, FaultEvent, FaultPlan
from repro.faults.chaos import render_report, run_chaos

pytestmark = pytest.mark.usefixtures("spmd_backend")

SEED = 20160214

#: Backend name -> (out_dir, report), filled as the module executes under
#: each backend param; the cross-backend test compares the entries.
_RUN_BY_BACKEND: dict = {}


def _nbody_chaos(out_dir, seed=SEED, **kwargs):
    kwargs.setdefault("ranks", 3)
    kwargs.setdefault("steps", 6)
    return run_chaos(seed=seed, out_dir=str(out_dir), app="nbody", **kwargs)


@pytest.fixture(scope="module")
def chaos_pair(tmp_path_factory, spmd_backend):
    """Two identical nbody chaos runs, shared module-wide."""
    d1 = str(tmp_path_factory.mktemp(f"nchaos1-{spmd_backend}"))
    d2 = str(tmp_path_factory.mktemp(f"nchaos2-{spmd_backend}"))
    r1 = _nbody_chaos(d1)
    r2 = _nbody_chaos(d2)
    _RUN_BY_BACKEND[spmd_backend] = (d1, r1)
    return (d1, r1), (d2, r2)


class TestNbodyChaosRun:
    def test_report_carries_app_and_forced_interval(self, chaos_pair):
        (_, report), _ = chaos_pair
        assert report["app"] == "nbody"
        # Recovery must never replay a communicating step, so the harness
        # forces per-step checkpoints regardless of the requested interval.
        assert report["checkpoint_interval"] == 1
        assert report["completed"]

    def test_requested_interval_is_overridden(self, tmp_path):
        report = _nbody_chaos(tmp_path, steps=4, checkpoint_interval=3)
        assert report["checkpoint_interval"] == 1

    def test_all_steps_accounted(self, chaos_pair):
        (_, report), _ = chaos_pair
        acct = report["accounting"]
        assert (
            acct["staged_steps"] + acct["degraded_steps"] + acct["skipped_steps"]
            == report["steps"]
        )

    def test_nbody_section_reports_particles(self, chaos_pair):
        (_, report), _ = chaos_pair
        nb = report["nbody"]
        assert len(nb["final_counts"]) == report["ranks"] - 1
        assert len(nb["particles_fingerprints"]) == report["ranks"] - 1
        assert all(isinstance(fp, int) for fp in nb["particles_fingerprints"])
        assert sum(nb["final_counts"]) > 0

    def test_rank_death_recovered(self, chaos_pair):
        (_, report), _ = chaos_pair
        assert report["fault_counts"].get("sim.step::die", 0) >= 1
        acct = report["accounting"]
        assert acct["deaths"] >= 1
        assert acct["checkpoint_restores"] >= acct["deaths"]

    def test_same_seed_byte_identical_reports(self, chaos_pair):
        (d1, _), (d2, _) = chaos_pair
        a = open(os.path.join(d1, "recovery_report.json"), "rb").read()
        b = open(os.path.join(d2, "recovery_report.json"), "rb").read()
        assert a == b

    def test_different_seed_differs(self, chaos_pair, tmp_path):
        (_, report), _ = chaos_pair
        other = _nbody_chaos(tmp_path, seed=SEED + 1)
        assert other["nbody"] != report["nbody"] or (
            other["fault_counts"] != report["fault_counts"]
        )

    def test_artifacts_written(self, chaos_pair):
        (d1, report), _ = chaos_pair
        report_path = os.path.join(d1, "recovery_report.json")
        assert json.load(open(report_path)) == json.loads(json.dumps(report))
        hists = json.load(open(os.path.join(d1, "histograms.json")))
        assert len(hists) == report["steps"]
        assert all(sum(h["counts"]) > 0 for h in hists)
        assert render_report(report)  # renders without raising

    def test_invalid_app_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_chaos(out_dir=str(tmp_path), app="lattice")


class TestDeathReplaysOwnershipExactly:
    """The heart of the satellite: kill a writer inside ``sim.step`` while
    its migration outboxes are computed but unsent, recover, and demand
    the final particle ownership (per-rank fingerprints and counts) be
    bit-identical to a fault-free run of the same seed."""

    @staticmethod
    def _run_with_plan(out_dir, events):
        return _nbody_chaos(
            out_dir, plan=FaultPlan(seed=SEED, events=tuple(events))
        )

    def test_mid_migration_death_matches_fault_free_run(self, tmp_path):
        clean = self._run_with_plan(tmp_path / "clean", [])
        death = self._run_with_plan(
            tmp_path / "death",
            [FaultEvent(SITE_SIM_STEP, "die", rank=1, step=3)],
        )
        assert death["fault_counts"].get("sim.step::die") == 1
        assert death["accounting"]["deaths"] == 1
        assert death["accounting"]["checkpoint_restores"] == 1
        # Exact ownership replay: same particles on the same ranks.
        assert death["nbody"] == clean["nbody"]

    def test_death_on_each_writer_rank_recovers(self, tmp_path):
        clean = self._run_with_plan(tmp_path / "c", [])
        for rank in (0, 1):
            report = self._run_with_plan(
                tmp_path / f"r{rank}",
                [FaultEvent(SITE_SIM_STEP, "die", rank=rank, step=2)],
            )
            assert report["completed"], rank
            assert report["nbody"] == clean["nbody"], rank


class TestCrossBackend:
    def test_reports_byte_identical_across_backends(self, chaos_pair):
        if len(_RUN_BY_BACKEND) < 2:
            pytest.skip("second backend param not executed yet")
        (d_a, _), (d_b, _) = (
            _RUN_BY_BACKEND["thread"],
            _RUN_BY_BACKEND["process"],
        )
        a = open(os.path.join(d_a, "recovery_report.json"), "rb").read()
        b = open(os.path.join(d_b, "recovery_report.json"), "rb").read()
        assert a == b


class TestCli:
    def test_repro_chaos_app_nbody(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "cli")
        rc = main(
            [
                "chaos",
                "--app", "nbody",
                "--seed", str(SEED),
                "--ranks", "3",
                "--steps", "4",
                "--out", out,
            ]
        )
        assert rc == 0
        report = json.load(open(os.path.join(out, "recovery_report.json")))
        assert report["app"] == "nbody"
        assert "nbody" in report
        assert "chaos run" in capsys.readouterr().out
