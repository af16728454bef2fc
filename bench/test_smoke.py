"""Smoke test of the benchmark itself: ``pytest bench -q``.

Outside tier-1's ``testpaths`` on purpose: it runs all five workloads
(``--quick``: 5 timed steps each, both untraced and traced) and takes a
minute or two.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter

from bench.spec import END_TO_END, PER_LAYER, WORKLOADS, layers_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]
    assert doc["paths"] == ["bench"]


def test_quick_run_prints_every_metric_once():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    printed: dict[str, Counter] = {name: Counter() for name, _ in WORKLOADS}
    values: dict[tuple[str, str], float] = {}
    for line in proc.stdout.splitlines():
        workload, metric, value, _unit = line.split()
        printed[workload][metric] += 1
        values[workload, metric] = float(value)
    for workload, _ in WORKLOADS:
        expected = (
            [name for name, _, _, _ in END_TO_END]
            + ["failed_frac"]
            + layers_of(workload)
        )
        assert printed[workload] == Counter(expected), workload
        assert all(math.isfinite(values[workload, m]) for m in expected)
        assert values[workload, "failed_frac"] == 0.0
        assert values[workload, "driver.unattributed_frac"] <= 0.05
