"""Shared fixtures: SPMD backend matrix, seeded RNG, shm leak guard.

``spmd_backend`` is the cross-backend equivalence hook: module-scoped and
parametrized over both execution backends, it runs every test in a module
that opts in (via an autouse alias fixture) once per backend by setting
``REPRO_SPMD_BACKEND`` -- exercising the same selection path users and CI
use, with zero changes at ``run_spmd`` call sites.  Module scope keeps it
compatible with hypothesis tests (a function-scoped fixture would trip the
``function_scoped_fixture`` health check) and groups each module's run by
backend.

``_shm_leak_guard`` is autouse everywhere: the process backend moves bulk
payloads through named ``/dev/shm`` segment files whose lifecycle contract is
"consumer unlinks, launcher sweeps the rest" -- any segment surviving a
test is a real leak and fails that test at teardown.  ``_tmp_leak_guard``
holds the session to the same rule for the temp directory.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.mpi import shm as _shm

#: The default seed for ``seeded_rng``; tests needing several independent
#: streams can derive children via ``rng.spawn``.
SEED = 20160214  # SC16 paper vintage


@pytest.fixture(scope="module", params=["thread", "process"])
def spmd_backend(request):
    """Run the requesting module once per SPMD execution backend.

    Selects the backend through ``REPRO_SPMD_BACKEND`` (the same knob the
    CI backend-matrix job uses), so unmodified ``run_spmd`` call sites are
    exercised on both backends.  Yields the backend name for tests that
    need to branch or label.
    """
    previous = os.environ.get("REPRO_SPMD_BACKEND")
    os.environ["REPRO_SPMD_BACKEND"] = request.param
    try:
        yield request.param
    finally:
        if previous is None:
            os.environ.pop("REPRO_SPMD_BACKEND", None)
        else:
            os.environ["REPRO_SPMD_BACKEND"] = previous


@pytest.fixture
def seeded_rng():
    """A deterministically seeded numpy Generator (no ambient randomness)."""
    return np.random.default_rng(SEED)


@pytest.fixture(autouse=True)
def _shm_leak_guard():
    """Fail any test that leaks a runtime shared-memory segment.

    Snapshots ``/dev/shm`` before the test; at teardown, briefly waits out
    in-flight transport teardown (worker processes exit asynchronously),
    then asserts no new ``repro-shm-*`` segment survived.  Survivors are
    unlinked so one leak cannot cascade into later tests.
    """
    before = set(_shm.list_segments())
    yield
    leaked = set(_shm.list_segments()) - before
    deadline = time.monotonic() + 2.0
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = set(_shm.list_segments()) - before
    if leaked:
        for name in leaked:
            try:
                os.unlink(os.path.join(_shm.SEGMENT_DIR, name))
            except FileNotFoundError:
                pass
        pytest.fail(f"leaked shared-memory segments: {sorted(leaked)}")


@pytest.fixture(scope="session", autouse=True)
def _tmp_leak_guard(tmp_path_factory):
    """Fail the session if it leaves a new entry in the temp directory.

    Exempt are pytest's own basetemp (``tmp_path`` lives there; pytest
    prunes old ones) and multiprocessing's ``pymp-*`` directory, which its
    exit hook removes after this teardown runs.
    """
    root = Path(tempfile.gettempdir()).resolve()
    before = set(root.iterdir())
    basetemp = tmp_path_factory.getbasetemp().resolve()
    yield
    left = sorted(
        str(p)
        for p in set(root.iterdir()) - before
        if not p.name.startswith("pymp-") and not basetemp.is_relative_to(p)
    )
    if left:
        pytest.fail(f"the session left entries in the temp directory: {left}")
