"""Wall-clock checks that wait for rows in ``bench/``.

The paper's figures are checked in tier-1: their modeled series and
shape claims are :mod:`repro.experiments` entries, and the native runs of
the real code are ``tests/test_native_figures.py``.  This tree keeps only
checks whose verdict is a wall-clock time on the host that runs them: the
sort-last PNG ablation and the disabled fault layer's per-step budget,
each run by its own CI step, and the flat vs hybrid histogram kernel (the
trial that keeps ``analysis/hybrid.py``).  Each moves to a ``bench/`` row,
with its bound unchanged, when the bench grows one for it.
"""

from __future__ import annotations

import time

import pytest


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
