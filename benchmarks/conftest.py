"""Shared benchmark fixtures.

The benchmarks run the real code on the thread-backed MPI runtime (timed
with pytest-benchmark): a ``test_fig*``/``test_table*`` file checks what a
paper figure claims about the program itself, a ``test_ablation_*`` file
one design choice.  The paper-scale series and their shape claims are the
registry in :mod:`repro.experiments` (``python -m repro run``), asserted in
tier-1.

Rows a benchmark reports are printed and also written under
``benchmarks/out/`` so they survive pytest's output capture; run with
``-s`` to see them inline.
"""

from __future__ import annotations

import os
import time

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture
def report():
    """Emit one experiment's rows: print + persist to benchmarks/out/."""

    def _report(name: str, header: str, rows: list[str]) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        lines = [header, "-" * len(header), *rows]
        text = "\n".join(lines)
        print(f"\n=== {name} ===\n{text}")
        path = os.path.join(OUT_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return path

    return _report


@pytest.fixture
def best_of():
    """Minimum wall-clock seconds over ``repeats`` calls (noise floor)."""

    def _best_of(fn, repeats: int) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    return _best_of
