"""Tests for the experiment registry and CLI."""

import pytest

from repro.cli import main
from repro.experiments import available_experiments, run_experiment

_CLAIMS = [
    pytest.param(
        claim, id=f"{name}-{claim.what}" + ("-expected-mismatch" if claim.mismatch else "")
    )
    for name in available_experiments()
    for claim in run_experiment(name).claims
]


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        """Every paper figure and table, the burst-buffer extension and the
        three modeled ablations are in the registry with at least one claim."""
        expected = {
            "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
            "fig10", "fig11", "fig12", "fig15", "fig16", "fig17",
            "table1", "table2", "burstbuffer",
            "compositing", "placement", "staging_window",
        }
        assert expected <= set(available_experiments())
        assert all(run_experiment(name).claims for name in expected)

    @pytest.mark.parametrize("claim", _CLAIMS)
    def test_claim_holds(self, claim):
        """The model's value falls in the claim's band.  An expected
        mismatch holds the model to its own pinned shape; ``paper`` says
        what the paper shows instead."""
        lo, hi = claim.band
        inside = lo <= claim.value <= hi if claim.closed else lo < claim.value < hi
        assert inside, f"{claim.what} = {claim.value!r} outside {claim.band}; paper: {claim.paper}"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_table1_row_content(self):
        result = run_experiment("table1")
        assert [row[:2] for row in result.rows] == [("1K", 812), ("6K", 6496), ("45K", 45440)]
        assert result.lines()[0].startswith("1K")


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig17" in out

    def test_run_one(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "VTK I/O" in out
        assert "45440" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "fig10", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "=== fig10" in out and "=== fig15" in out

    def test_run_all(self, capsys):
        assert main(["run", "all"]) == 0
        out = capsys.readouterr().out
        for name in available_experiments():
            assert f"=== {name}" in out

    def test_unknown_is_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
