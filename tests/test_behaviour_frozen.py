"""Behaviour frozen across the PR 17 seam collapse.

The goldens under ``tests/data/`` were recorded from the commit *before*
the collective algebra, the received-data adaptor and the staging policy
were each reduced to one implementation; every artifact and journal those
seams produce must still come out byte-identical, on both SPMD backends.
``nbody_seed42`` was recorded the same way from the commit before the
cell-linked-grid friends-of-friends kernel replaced the brute-force one.
"""

import ast
import importlib
import inspect
import json
import zlib
from pathlib import Path

import pytest

from repro.analysis.slice_ import SlicePlane
from repro.analyze import RULE_CATALOG, analyze_source
from repro.apps.nbody import run_nbody
from repro.core import Bridge
from repro.faults.chaos import run_chaos
from repro.infrastructure import CatalystAdaptor
from repro.infrastructure.adios import StagingResilience, run_flexpath_job
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import shm
from repro.mpi.communicator import Communicator
from repro.mpi.process_backend import ProcessCommunicator
from repro.service import (
    ServiceServer,
    TenantRegistry,
    TenantSpec,
    issue_token,
    run_client_workload,
    run_workload_inproc,
)
from repro.service.workload import synthetic_steps

DATA = Path(__file__).parent / "data"


def _png_crcs(root, subdirs=("",)):
    crcs = {}
    for sub in subdirs:
        d = Path(root, sub)
        for path in sorted(d.glob("*.png")) if d.is_dir() else []:
            key = f"{sub}/{path.name}" if sub else path.name
            crcs[key] = zlib.crc32(path.read_bytes())
    return crcs


def _golden_json(*parts):
    return json.loads(DATA.joinpath(*parts).read_text())


# -- chaos: FlexPath staging + circuit breaker + fault switch -----------------


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_chaos_seed42_artifacts(tmp_path, backend):
    run_chaos(seed=42, ranks=4, steps=10, out_dir=str(tmp_path), backend=backend)
    golden = DATA / "chaos_seed42"
    for name in ("recovery_report.json", "histograms.json"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
    assert _png_crcs(tmp_path, ("staged", "inline")) == _golden_json(
        "chaos_seed42", "png_crcs.json"
    )


# -- service: one tenant stream, in process and through a socket --------------


def _assert_service_goldens(tenant_dir):
    assert (tenant_dir / "histograms.json").read_bytes() == (
        DATA / "service_alpha" / "histograms.json"
    ).read_bytes()
    assert _png_crcs(tenant_dir) == _golden_json("service_alpha", "png_crcs.json")


def test_service_inproc_artifacts(tmp_path):
    run_workload_inproc(
        "alpha", synthetic_steps("alpha", 6, (64, 64), 3), str(tmp_path), seed=3
    )
    _assert_service_goldens(tmp_path)


def test_service_socket_artifacts(tmp_path):
    server = ServiceServer(
        str(tmp_path / "s.sock"),
        TenantRegistry([TenantSpec("alpha")]),
        "golden-secret",
        str(tmp_path / "out"),
        seed=3,
    )
    server.start()
    try:
        run_client_workload(
            server.socket_path, "alpha", issue_token("golden-secret", "alpha"),
            6, shape=(64, 64), seed=3,
        )
    finally:
        server.stop()
    _assert_service_goldens(tmp_path / "out" / "tenants" / "alpha")
    assert (tmp_path / "out" / "decision_journal.json").read_bytes() == (
        DATA / "service_alpha" / "decision_journal.json"
    ).read_bytes()


# -- n-body: recorded with the brute-force halo finder (the parent of PR 19) ---


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_nbody_seed42_manifest(tmp_path, backend):
    """``halo_counts``/``halo_sizes``/PNG CRCs pin the whole particle path
    (gather, id sort, clustering, reductions, every endpoint), not only
    the friends-of-friends kernel that PR 19 replaced."""
    run_nbody(
        str(tmp_path), ranks=2, steps=6, n_particles=2048, seed=42,
        backend=backend,
    )
    golden = DATA / "nbody_seed42"
    for name in ("manifest.json", "halos.json"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


# -- the endpoint is a Bridge: sanitize changes nothing it produces -----------


def _flexpath_catalyst_pngs(out_dir, sanitize):
    dims = (10, 10, 8)

    def writer_program(comm, writer):
        sim = OscillatorSimulation(comm, dims, default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor())
        bridge.add_analysis(writer)
        bridge.initialize()
        sim.run(3, bridge)
        bridge.finalize()

    job = run_flexpath_job(
        n_writers=2,
        n_endpoints=1,
        writer_program=writer_program,
        analysis_factory=lambda comm: CatalystAdaptor(
            plane=SlicePlane(axis=2, index=4),
            resolution=(40, 32),
            output_dir=str(out_dir),
        ),
        sanitize=sanitize,
    )
    endpoint = job.endpoint_results[0]
    assert endpoint["result"] == {"images_written": 3}
    assert endpoint["steps_analyzed"] == 3
    for phase, count in (("initialize", 1), ("analysis", 3), ("finalize", 1)):
        assert endpoint["timers"][f"endpoint::{phase}"]["count"] == count
    # The analysis's own timers share the endpoint's registry (Fig. 9).
    assert endpoint["timers"]["catalyst::render"]["count"] == 3
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.png"))}


def test_flexpath_endpoint_sanitized_equals_plain(tmp_path):
    plain = _flexpath_catalyst_pngs(tmp_path / "plain", sanitize=False)
    guarded = _flexpath_catalyst_pngs(tmp_path / "guarded", sanitize=True)
    assert len(plain) == 3 and guarded == plain


# -- structure: a collective exists once, on both backends by construction ----

_PUBLIC = (
    "send", "recv", "recv_with_status", "sendrecv", "barrier", "allgather",
    "gather", "bcast", "scatter", "reduce", "allreduce", "alltoall", "exscan",
)


def test_process_backend_overrides_no_public_method():
    overridden = [n for n in (*_PUBLIC, "split") if n in vars(ProcessCommunicator)]
    assert overridden == []
    assert all(n in vars(Communicator) for n in _PUBLIC)
    assert "resolve" not in inspect.signature(ProcessCommunicator._exchange).parameters


def test_process_fabric_is_four_hooks_over_one_shm_path():
    """The process fabric is the four seam hooks plus its byte-counter
    split, and collectives share the consume-once segments sends use: no
    pooled collective ring comes back."""
    defined = {n for n, v in vars(ProcessCommunicator).items() if inspect.isfunction(v)}
    assert defined == {
        "_deliver", "_deliver_later", "_rendezvous", "_child", "_count_transport",
    }
    for gone in ("SegmentPool", "PoolRef", "AttachCache", "ReductionPlan"):
        assert not hasattr(shm, gone), gone


# -- structure: one staging attempt/skip policy --------------------------------


def test_one_staging_policy():
    """The circuit breaker is the only attempt/skip policy: no controller
    package, and no seam through which a second policy could be handed in."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.control")
    assert "policy" not in inspect.signature(StagingResilience).parameters
    assert "controller" not in inspect.signature(Bridge).parameters


# -- structure: every analyzer rule guards a live site -------------------------


def test_analyzer_rules_each_have_a_job():
    """Six rules, each reaching live sites in ``src/`` (DESIGN.md lists
    them), and every rule always runs.  Send-buffer reuse is held by the
    fabric itself (``test_send_buffer_reusable_after_send``)."""
    assert [rule.id for rule in RULE_CATALOG] == [
        "analysis-sim-import",
        "bare-time-call",
        "rank-divergent-collectives",
        "collective-in-rank-loop",
        "timer-typestate",
        "memory-typestate",
    ]
    with pytest.raises(ImportError):
        importlib.import_module("repro.analyze.checkers.forksafety")
    assert "rules" not in inspect.signature(analyze_source).parameters


# -- structure: particle-mesh gravity exists once ------------------------------

_SRC = Path(__file__).parent.parent / "src" / "repro"


def test_particle_mesh_gravity_exists_once():
    nyx = (_SRC / "apps" / "nyx_proxy.py").read_text()
    for private_copy in ("np.fft", "np.add.at", "sendrecv", "alltoall"):
        assert private_copy not in nyx, private_copy
    fft_users = set()
    for path in (*_SRC.glob("apps/*.py"), *_SRC.glob("data/*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Attribute) and n.attr == "fft"
                for n in ast.walk(fn)
            ):
                fft_users.add(f"{path.stem}.{fn.name}")
    assert fft_users == {"nbody.gravity_field"}


# -- structure: every module is run by a command, workload, figure or example --

_REPO = _SRC.parent.parent
_ROOTS = ("bench/workloads", "benchmarks", "examples")  # + src/repro/cli.py

#: Unreached on purpose; the value is why the module stays.
_UNREACHED_BUT_KEPT = {
    "perf/calibrate.py": "the input of ROADMAP item 3 (host-calibrated model)",
}


def _unreached_modules():
    """``src/repro`` files no import chain from ``cli.py`` or ``_ROOTS`` reaches.

    Lazy in-function imports count.  An ``__init__.py`` holding only a
    docstring, imports and ``__all__`` is transparent: ``from pkg import
    Name`` reaches the submodule that defines ``Name``, not every module
    the package re-exports.  ``__main__.py`` files are ``python -m`` entry
    scripts, not importable modules, and are left out.  The tree has no
    relative or star imports; one would resolve to nothing here and its
    target would be reported unreached.
    """
    paths = {}
    for p in _SRC.rglob("*.py"):
        parts = p.relative_to(_SRC.parent).with_suffix("").parts
        if parts[-1] != "__main__":
            paths[".".join(parts[: -1 if parts[-1] == "__init__" else None])] = p
    trees = {m: ast.parse(p.read_text()) for m, p in paths.items()}

    def imports(tree):
        """(module, imported name or None, bound name) per import statement."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((a.name, None, None) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield from ((node.module, a.name, a.asname or a.name) for a in node.names)

    def transparent(mod):
        return paths[mod].name == "__init__.py" and all(
            isinstance(n, (ast.Import, ast.ImportFrom))
            or (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))
            or (isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "__all__")
            for n in trees[mod].body
        )

    reached, walked, todo = set(), set(), []

    def enter(mod, names):
        """Run ``mod``; ``names`` limits a transparent package to those names."""
        reached.add(mod)
        if names is not None and transparent(mod):
            for target, orig, bound in imports(trees[mod]):
                if bound in names:
                    reach(target, orig)
        elif mod not in walked:
            walked.add(mod)
            todo.append(trees[mod])

    def reach(mod, name=None):
        if name and f"{mod}.{name}" in paths:
            mod, name = f"{mod}.{name}", None  # ``from pkg import submodule``
        if mod not in paths:
            return  # stdlib or third party
        bits = mod.split(".")
        for i in range(1, len(bits)):
            enter(".".join(bits[:i]), ())  # importing a.b.c runs a and a.b
        enter(mod, name and (name,))

    reach("repro.cli")
    for d in _ROOTS:
        todo += [ast.parse(p.read_text()) for p in (_REPO / d).rglob("*.py")]
    while todo:
        for target, orig, _ in imports(todo.pop()):
            reach(target, orig)
    return {str(paths[m].relative_to(_SRC)) for m in set(paths) - reached}


def test_every_module_is_reachable():
    assert _unreached_modules() == set(_UNREACHED_BUT_KEPT)
