"""Wall-clock gate for the static analyzer over the full source tree.

The analyzer runs in CI on every push (``python -m repro.analyze src/
--format sarif``), so its cost is a direct tax on the development loop.
Statement-granular CFGs plus bounded path enumeration could in principle
blow up combinatorially; the gate pins the whole-tree analysis --
every file, every checker, witnesses included -- under 5 seconds::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_analyze.py -s
"""

from __future__ import annotations

import os

from repro.analyze import analyze_paths

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

#: Whole-tree budget (seconds).  CI runners are slower than dev boxes;
#: the analyzer typically finishes in well under a second.
BUDGET_S = 5.0


def test_full_tree_analysis_under_budget(report, best_of):
    nfiles = sum(
        1
        for dirpath, _, files in os.walk(_SRC)
        for f in files
        if f.endswith(".py")
    )
    findings: list = []

    def run() -> None:
        findings.clear()
        findings.extend(analyze_paths([_SRC]))

    wall = best_of(run, repeats=3)
    rows = [
        f"files analyzed        {nfiles}",
        f"raw findings          {len(findings)}",
        f"wall (best of 3)      {wall * 1e3:9.1f} ms",
        f"budget                {BUDGET_S * 1e3:9.1f} ms",
        f"per file              {wall / max(1, nfiles) * 1e3:9.2f} ms",
    ]
    report("analyze_full_tree", "static analyzer: full src/repro sweep", rows)
    assert wall < BUDGET_S, (
        f"full-tree analysis took {wall:.2f}s, budget {BUDGET_S:.1f}s"
    )
