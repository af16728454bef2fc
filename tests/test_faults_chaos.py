"""Tests for the end-to-end chaos harness (repro.faults.chaos).

Parametrized over both execution backends (``spmd_backend``): the chaos
determinism contract -- same seed, same schedule, byte-identical artifacts
-- must hold per backend, and ``TestCrossBackend`` closes the loop by
asserting the artifacts are byte-identical *across* backends too.
"""

import json
import os

import pytest

from repro.faults import FaultEvent, FaultPlan, chaos_plan
from repro.faults.chaos import render_report, run_chaos


#: Backend name -> (out_dir, report) of that backend's seed-42 run, filled
#: by ``chaos_pair`` as the module executes under each backend param; the
#: cross-backend byte-identity test compares the two entries.
_RUN_BY_BACKEND: dict = {}


@pytest.fixture(scope="module")
def chaos_pair(tmp_path_factory, spmd_backend):
    """Two identical seed-42 runs (plus their reports), shared module-wide:
    chaos runs are the expensive part of this file."""
    d1 = str(tmp_path_factory.mktemp(f"chaos1-{spmd_backend}"))
    d2 = str(tmp_path_factory.mktemp(f"chaos2-{spmd_backend}"))
    r1 = run_chaos(seed=42, ranks=3, steps=8, out_dir=d1)
    r2 = run_chaos(seed=42, ranks=3, steps=8, out_dir=d2)
    _RUN_BY_BACKEND[spmd_backend] = (d1, r1)
    return (d1, r1), (d2, r2)


@pytest.fixture(scope="module", autouse=True)
def _backend(spmd_backend):
    """Run this whole module under each execution backend."""
    return spmd_backend


class TestChaosRun:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_chaos(ranks=1, out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_chaos(steps=2, out_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--ready-timeout", "0"),
            ("--ranks", "1"),
            ("--steps", "2"),
            ("--checkpoint-interval", "0"),
        ],
    )
    def test_cli_rejects_bad_argument_before_launch(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        """A bad argument is one stderr line and exit code 2; no rank starts."""
        import repro.faults.chaos as chaos
        from repro.cli import main

        def no_launch(*args, **kwargs):
            raise AssertionError("a job was launched")

        monkeypatch.setattr(chaos, "run_flexpath_job", no_launch)
        out = tmp_path / "out"
        assert main(["chaos", "--out", str(out), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("repro chaos: ")
        assert not out.exists()

    def test_completes_with_all_steps_accounted(self, chaos_pair):
        (_, report), _ = chaos_pair
        acct = report["accounting"]
        assert report["completed"]
        assert (
            acct["staged_steps"] + acct["degraded_steps"] + acct["skipped_steps"]
            == report["steps"]
        )
        assert 0 <= acct["lost_in_flight"] <= 1

    def test_structural_faults_recovered(self, chaos_pair):
        """The guaranteed rank death and endpoint disconnect both happen
        and both are absorbed."""
        (_, report), _ = chaos_pair
        assert report["accounting"]["deaths"] == 1
        assert report["accounting"]["checkpoint_restores"] == 1
        assert report["endpoint"]["disconnected_at_step"] is not None
        assert report["accounting"]["degraded_steps"] > 0
        assert report["fault_counts"]["sim.step::die"] == 1
        assert report["fault_counts"]["staging.endpoint::disconnect"] == 1

    def test_writer_accounting_uniform(self, chaos_pair):
        """The degrade decision is collective: every writer must report the
        identical staged/degraded/skipped split."""
        (_, report), _ = chaos_pair
        splits = {
            (w["staged_steps"], w["degraded_steps"], w["skipped_steps"])
            for w in report["writers"]
        }
        assert len(splits) == 1

    def test_artifacts_written(self, chaos_pair):
        (out_dir, report), _ = chaos_pair
        with open(os.path.join(out_dir, "recovery_report.json")) as fh:
            on_disk = json.load(fh)
        assert on_disk == json.loads(json.dumps(report))
        with open(os.path.join(out_dir, "histograms.json")) as fh:
            hists = json.load(fh)
        assert len(hists) == report["steps"]
        assert all(sum(h["counts"]) > 0 for h in hists)
        pngs = [
            f
            for sub in ("staged", "inline")
            if os.path.isdir(os.path.join(out_dir, sub))
            for f in os.listdir(os.path.join(out_dir, sub))
            if f.endswith(".png")
        ]
        assert pngs

    def test_same_seed_byte_identical(self, chaos_pair):
        """The hard determinism requirement: same seed, same schedule, same
        recovery actions, byte-identical artifacts."""
        (d1, r1), (d2, r2) = chaos_pair
        assert r1 == r2
        for name in ("recovery_report.json", "histograms.json"):
            with open(os.path.join(d1, name), "rb") as f1, open(
                os.path.join(d2, name), "rb"
            ) as f2:
                assert f1.read() == f2.read(), name
        for sub in ("staged", "inline"):
            p1, p2 = os.path.join(d1, sub), os.path.join(d2, sub)
            assert os.path.isdir(p1) == os.path.isdir(p2)
            if not os.path.isdir(p1):
                continue
            assert sorted(os.listdir(p1)) == sorted(os.listdir(p2))
            for png in sorted(os.listdir(p1)):
                with open(os.path.join(p1, png), "rb") as f1, open(
                    os.path.join(p2, png), "rb"
                ) as f2:
                    assert f1.read() == f2.read(), f"{sub}/{png}"

    def test_different_seed_differs(self, chaos_pair, tmp_path):
        (_, r1), _ = chaos_pair
        r3 = run_chaos(seed=7, ranks=3, steps=8, out_dir=str(tmp_path))
        assert r3["fault_schedule"] != r1["fault_schedule"]

    def test_fault_free_plan_stages_everything(self, tmp_path):
        """With an empty plan the resilient pipeline is pure overhead: all
        steps staged, none degraded, nothing lost."""
        report = run_chaos(
            seed=0,
            ranks=3,
            steps=4,
            out_dir=str(tmp_path),
            plan=FaultPlan(seed=0),
        )
        acct = report["accounting"]
        assert acct["staged_steps"] == 4
        assert acct["degraded_steps"] == acct["skipped_steps"] == 0
        assert acct["lost_in_flight"] == 0
        assert acct["deaths"] == 0
        assert report["endpoint"]["steps_analyzed"] == 4

    def test_render_report(self, chaos_pair):
        (_, report), _ = chaos_pair
        text = render_report(report)
        assert "seed=42" in text
        assert "all steps accounted for: yes" in text


class TestCrossBackend:
    def test_artifacts_byte_identical_across_backends(self, chaos_pair):
        """The headline equivalence claim for the chaos pipeline: for the
        same seed, the recovery report, histogram history, and every
        rendered PNG are byte-identical whether ranks were threads or OS
        processes.  Compares the cached seed-42 run of each backend, so it
        resolves on the second (process) pass of the module."""
        if len(_RUN_BY_BACKEND) < 2:
            pytest.skip("needs both backend runs; compared on the second pass")
        dt, rt = _RUN_BY_BACKEND["thread"]
        dp, rp = _RUN_BY_BACKEND["process"]
        assert rt == rp
        for name in ("recovery_report.json", "histograms.json"):
            with open(os.path.join(dt, name), "rb") as f1, open(
                os.path.join(dp, name), "rb"
            ) as f2:
                assert f1.read() == f2.read(), name
        for sub in ("staged", "inline"):
            p1, p2 = os.path.join(dt, sub), os.path.join(dp, sub)
            assert os.path.isdir(p1) == os.path.isdir(p2)
            if not os.path.isdir(p1):
                continue
            assert sorted(os.listdir(p1)) == sorted(os.listdir(p2))
            for png in sorted(os.listdir(p1)):
                with open(os.path.join(p1, png), "rb") as f1, open(
                    os.path.join(p2, png), "rb"
                ) as f2:
                    assert f1.read() == f2.read(), f"{sub}/{png}"


class TestChaosEdgePlans:
    def test_endpoint_death_only(self, tmp_path):
        """Kill just the endpoint: the job must finish in-line with every
        step accounted for and no hang (graceful-degradation contract)."""
        plan = FaultPlan(
            seed=5,
            events=(FaultEvent("staging.endpoint", "disconnect", rank=0, step=1),),
        )
        report = run_chaos(
            seed=5, ranks=3, steps=5, out_dir=str(tmp_path), plan=plan
        )
        acct = report["accounting"]
        assert report["completed"]
        assert acct["staged_steps"] + acct["degraded_steps"] + acct["skipped_steps"] == 5
        assert acct["degraded_steps"] >= 1

    def test_chaos_plan_used_by_default_is_seeded(self):
        assert chaos_plan(42, 2, 8) == chaos_plan(42, 2, 8)
