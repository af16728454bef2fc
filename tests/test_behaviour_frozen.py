"""Behaviour frozen across the PR 17 seam collapse.

The goldens under ``tests/data/`` were recorded from the commit *before*
the collective algebra, the received-data adaptor and the staging policy
were each reduced to one implementation; every artifact and journal those
seams produce must still come out byte-identical, on both SPMD backends.
``nbody_seed42`` was recorded the same way from the commit before the
cell-linked-grid friends-of-friends kernel replaced the brute-force one.
"""

import ast
import functools
import importlib
import inspect
import json
import re
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.slice_ import SlicePlane
from repro.cli import main as cli_main
from repro.apps.nbody import run_nbody
from repro.core import AnalysisAdaptor, Bridge
from repro.faults.chaos import run_chaos
from repro.infrastructure import CatalystAdaptor
from repro.infrastructure.adios import StagingResilience, run_flexpath_job
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd, shm
from repro.mpi.communicator import Communicator, _Context
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
from repro.trace import TraceSession
from repro.util import Timer, TimerRegistry

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
        "alpha", synthetic_steps("alpha", 6, (64, 64), 3), str(tmp_path)
    )
    _assert_service_goldens(tmp_path)


def test_service_socket_artifacts(tmp_path):
    registry = TenantRegistry()
    registry.register(TenantSpec("alpha"))
    server = ServiceServer(
        str(tmp_path / "s.sock"),
        registry,
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
    split.  The collective exchange is written once, on ``Communicator``:
    no barrier rendezvous comes back on threads, and a contribution past
    the pair pipe's capacity still rides the consume-once segments sends
    use (no pooled collective ring, and no second, type-based spill rule
    with its threshold)."""
    defined = {n for n, v in vars(ProcessCommunicator).items() if inspect.isfunction(v)}
    assert defined == {
        "_deliver", "_deliver_later", "_contribute", "_child", "_count_transport",
    }
    assert [c for c in (Communicator, ProcessCommunicator) if "_rendezvous" in vars(c)] == [
        Communicator
    ]
    assert not hasattr(Communicator, "_sync")
    ctx = vars(_Context(2))
    for gone in ("barrier", "slots", "trace_slots", "sync_counts", "split_results"):
        assert gone not in ctx, gone
    for gone in ("SegmentPool", "PoolRef", "AttachCache", "ReductionPlan"):
        assert not hasattr(shm, gone), gone

    past_pipe = 2 << 20  # bytes, twice the pair pipe's capacity
    sess = TraceSession("one-exchange")
    run_spmd(
        2, lambda comm: comm.allgather(np.zeros(past_pipe // 8)),
        backend="process", trace=sess,
    )
    for rank in sess.ranks:
        rec = sess.recorder(rank)
        assert rec.total("mpi::allgather::bytes::shm") == past_pipe


# -- structure: one staging attempt/skip policy --------------------------------


def test_one_staging_policy():
    """The circuit breaker is the only attempt/skip policy: no controller
    package, and no seam through which a second policy could be handed in."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.control")
    assert "policy" not in inspect.signature(StagingResilience).parameters
    assert "controller" not in inspect.signature(Bridge).parameters


# -- structure: one simulation-side data adaptor --------------------------------

_DATA_CONTRACT = (
    "get_mesh", "get_array", "get_number_of_arrays", "get_array_name", "release_data",
)


def _data_adaptor_overrides(trees):
    """``file::class`` for each subclass of ``DataAdaptor`` in ``trees``
    (by base name, transitively) that defines a contract method."""
    classes = [
        (rel, node) for rel, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    adaptors = {"DataAdaptor"}
    grew = True
    while grew:
        before = len(adaptors)
        adaptors |= {
            node.name for _, node in classes
            if any((getattr(b, "id", None) or getattr(b, "attr", None)) in adaptors
                   for b in node.bases)
        }
        grew = len(adaptors) > before
    return {
        f"{rel}::{node.name}" for rel, node in classes
        if node.name in adaptors and node.name != "DataAdaptor"
        and any(isinstance(m, ast.FunctionDef) and m.name in _DATA_CONTRACT for m in node.body)
    }


_ONE_ADAPTOR = {
    "core/generic.py::SimulationDataAdaptor",
    "core/received.py::ReceivedDataAdaptor",
    "sanitize/guard.py::GuardedDataAdaptor",
}


def test_one_simulation_data_adaptor():
    """A simulation registers its mesh and arrays with the one adaptor; data
    that arrives by message and the sanitizer's proxy are the only other
    implementations of the contract."""
    assert _data_adaptor_overrides(_src_trees()) == _ONE_ADAPTOR


@pytest.mark.parametrize(
    ("source", "extra"),
    [
        pytest.param(
            "class Mine(SimulationDataAdaptor):\n"
            "    def get_array(self, association, name):\n        pass\n",
            {"apps/planted.py::Mine"}, id="subclass-overrides-get-array",
        ),
        pytest.param(
            "class Own(adaptors.DataAdaptor):\n    def get_mesh(self):\n        pass\n",
            {"apps/planted.py::Own"}, id="hand-written-adaptor",
        ),
        pytest.param(
            "class Registers(SimulationDataAdaptor):\n"
            "    def __init__(self, sim):\n        pass\n",
            set(), id="subclass-only-registers",
        ),
        pytest.param(
            "class Grid:\n    def get_array(self, association, name):\n        pass\n",
            set(), id="not-an-adaptor",
        ),
    ],
)
def test_adaptor_rule_on_planted_source(source, extra):
    trees = {**_src_trees(), Path("apps/planted.py"): ast.parse(source)}
    assert _data_adaptor_overrides(trees) == _ONE_ADAPTOR | extra


# -- structure: one guard per hazard, and no static analyzer -------------------


class _RaisesWhileTimed(AnalysisAdaptor):
    def execute(self, data):
        with self.timers.time("raising::phase"):
            raise ZeroDivisionError("planted")


def _exception_inside_time_leaves_no_timer_running(registry, block):
    with pytest.raises(ZeroDivisionError, match="planted"):
        block()
    for name in registry.names():
        with registry.time(name):  # raises if the failed block left it running
            pass
    return {name: registry.timer(name).count for name in registry.names()}


def test_one_guard_per_hazard(capsys):
    """The hazards a static analyzer once looked for fail at run time
    (``tests/test_hazard_guards.py``) or cannot be written, and the
    analyzer is gone with its command."""
    with pytest.raises(ImportError):
        importlib.import_module("repro.analyze")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["analyze", "src/"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'analyze'" in capsys.readouterr().err


def test_timer_has_no_public_start_or_stop():
    """A timer runs only inside ``TimerRegistry.time``, which stops it on
    every exit, so no file in the tree can leave one running."""
    assert not {"start", "stop", "running"} & set(dir(Timer))
    assert not hasattr(TimerRegistry, "active")


def test_exception_inside_time_leaves_no_timer_running():
    def raise_timed():
        with registry.time("phase"):
            raise ZeroDivisionError("planted")

    registry = TimerRegistry()
    counts = _exception_inside_time_leaves_no_timer_running(registry, raise_timed)
    assert counts == {"phase": 2}


def test_exception_inside_time_leaves_no_timer_running_in_a_sanitized_bridge():
    def in_sanitized_bridge(comm):
        sim = OscillatorSimulation(comm, (6, 6, 6), default_oscillators(), dt=0.1)
        bridge = Bridge(comm, sim.make_data_adaptor(), sanitize=True)
        bridge.add_analysis(_RaisesWhileTimed())
        bridge.initialize()
        return _exception_inside_time_leaves_no_timer_running(
            bridge.timers, lambda: sim.run(1, bridge)
        )

    counts = run_spmd(1, in_sanitized_bridge)[0]
    assert counts["raising::phase"] == 2
    assert counts["sensei::execute"] == 2


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


@functools.cache
def _src_trees():
    """Every ``src/repro`` file's syntax tree, keyed by its path under it."""
    return {p.relative_to(_SRC): ast.parse(p.read_text()) for p in _SRC.rglob("*.py")}

_ROOTS = ("bench/workloads", "benchmarks", "examples")  # + src/repro/cli.py

#: Unreached on purpose; the value is why the module stays.
_UNREACHED_BUT_KEPT = {
    "perf/calibrate.py": "the input of ROADMAP item 7 (host-calibrated model)",
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
    paths, trees = {}, {}
    for rel, tree in _src_trees().items():
        parts = ("repro", *rel.with_suffix("").parts)
        if parts[-1] != "__main__":
            mod = ".".join(parts[: -1 if parts[-1] == "__init__" else None])
            paths[mod], trees[mod] = _SRC / rel, tree

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


# -- structure: analyses see simulations only through the DataAdaptor ---------

_SIM_INTERNALS = ("repro.miniapp", "repro.apps")
_DECOUPLED = ("analysis", "infrastructure")


def _contract_breaches(trees):
    """``(file, line, what)`` for each import of simulation internals from
    ``analysis/`` or ``infrastructure/`` (the Sec. 3.2 decoupling) and each
    wall-clock ``time.time()`` call outside ``util/timers.py``."""
    for rel, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                modules = []
            if rel.parts[0] in _DECOUPLED and any(
                m == sim or m.startswith(sim + ".") for m in modules for sim in _SIM_INTERNALS
            ):
                yield str(rel), node.lineno, "imports simulation internals"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
                and getattr(node.func.value, "id", None) == "time"
                and rel != Path("util/timers.py")
            ):
                yield str(rel), node.lineno, "reads the wall clock"


def test_analyses_import_no_simulation_and_nothing_reads_the_wall_clock():
    assert list(_contract_breaches(_src_trees())) == []


@pytest.mark.parametrize(
    ("path", "source", "breach"),
    [
        pytest.param(
            "analysis/planted.py",
            "from repro.miniapp import OscillatorSimulation\n",
            "imports simulation internals",
            id="analysis-imports-miniapp",
        ),
        pytest.param(
            "analysis/planted.py",
            "import numpy\nfrom repro.apps import nbody\n",
            "imports simulation internals",
            id="analysis-imports-apps",
        ),
        pytest.param(
            "infrastructure/planted.py",
            "import repro.apps.nyx_proxy\n",
            "imports simulation internals",
            id="infrastructure-imports-apps",
        ),
        pytest.param(
            "infrastructure/planted.py",
            "from repro import miniapp\n",
            "imports simulation internals",
            id="infrastructure-imports-miniapp",
        ),
        pytest.param(
            "analysis/planted.py",
            "from repro.core.adaptors import DataAdaptor\n",
            None,
            id="analysis-imports-dataadaptor",
        ),
        pytest.param(
            "perf/calibrate.py",
            "from repro.miniapp import OscillatorSimulation\n",
            None,
            id="perf-imports-miniapp",
        ),
        pytest.param(
            "core/planted.py",
            "from repro.apps import nbody\n",
            None,
            id="core-imports-apps",
        ),
        pytest.param(
            "storage/planted.py",
            "import time\nstamp = time.time()\n",
            "reads the wall clock",
            id="storage-reads-wall-clock",
        ),
        pytest.param(
            "storage/planted.py",
            "import time\nstamp = time.perf_counter()\n",
            None,
            id="storage-reads-perf-counter",
        ),
        pytest.param(
            "util/timers.py",
            "import time\nstamp = time.time()\n",
            None,
            id="timers-reads-wall-clock",
        ),
    ],
)
def test_contract_on_planted_source(path, source, breach):
    """A planted breach is found on its last line; what the contract
    allows is not."""
    found = list(_contract_breaches({Path(path): ast.parse(source)}))
    assert found == ([(path, source.count("\n"), breach)] if breach else [])


# -- structure: every public name is used by something other than a test ------

#: Public names that only tests name, kept on purpose; the value is why.
_UNNAMED_BUT_KEPT = {
    "data/array.py::DataArray.component": "the accessor DataArray.values "
    "sends multi-component callers to",
    "data/array.py::DataArray.is_zero_copy_of": "the zero-copy check of "
    "Fig. 4; adaptor tests compare views with the simulation buffer by it",
    **dict.fromkeys(
        ["data/array.py::DataArray.slice_tuples", "data/particles.py::ParticleSet.slice_view"],
        "zero-copy ragged views; the sanitizer tests hold the write guard on "
        "them, though no analysis slices a population yet",
    ),
    **dict.fromkeys(
        ["data/dataset.py::Dataset.owned_mask", "data/dataset.py::Dataset.set_ghost_levels"],
        "the VTK model's vtkGhostLevels helpers (Nyx blanks by that array)",
    ),
    **dict.fromkeys(
        [f"data/multiblock.py::MultiBlockDataset.{n}" for n in (
            "get_block", "local_num_cells", "local_num_points", "num_local_blocks")],
        "VTK multiblock accessors; the received-data tests read blocks by them",
    ),
    **dict.fromkeys(
        [f"data/particles.py::ParticleSet.{n}" for n in ("momentum", "state_tuple", "total_mass")],
        "the n-body conservation and equality checks of the property tests",
    ),
    "faults/injector.py::FaultInjector.injections": "the injection log the "
    "fault tests and the cross-process log merge check read",
    **dict.fromkeys(
        ["perf/calibrate.py::calibrate_host", "perf/calibrate.py::HostCalibration.hist_factor",
         "perf/calibrate.py::HostCalibration.autocorr_factor"],
        "perf/calibrate.py is kept unreached on purpose (_UNREACHED_BUT_KEPT)",
    ),
    "render/rasterize.py::RenderedImage.coverage": "the pixel-coverage mask "
    "the raster and compositing tests assert on",
    "service/server.py::BytesInFlight.held": "the service's live byte "
    "budget; the backpressure tests read it",
    "util/memory.py::MemoryTracker.named": "the per-label balance the "
    "footprint tests of Figs. 4 and 7 read",
    "util/timers.py::TimerRegistry.merge_snapshot": "the cross-rank fold of "
    "as_dict snapshots, whose tests pin the lossless total/count/min/max merge",
    "service/endpoint.py::run_workload_inproc": "the service's reference "
    "oracle: the socket path's artifacts must equal what it writes",
    "trace/report.py::diff_ratios": "the per-phase measured / modeled ratios "
    "ROADMAP item 4 publishes per layer",
    "util/memory.py::sum_high_water": "MemoryTracker's aggregate high-water "
    "figure; ROADMAP item 13 decides it with the measured-memory path",
}


def _public_defs(tree):
    """``(qualified name, name)`` of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m.name


def _names_used(tree, reexport_only=False):
    """Identifiers ``tree`` names: names, attributes, imported names and
    identifier strings (``getattr(comm, "fault_injector", None)``).  A
    package ``__init__`` re-exporting a name, by import or in ``__all__``,
    does not use it."""
    exported = set()
    if reexport_only:
        for n in tree.body:
            if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets):
                exported.update(id(c) for c in ast.walk(n.value))
    for n in ast.walk(tree):
        if id(n) in exported:
            continue
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield n.value
        elif isinstance(n, ast.ImportFrom) and not reexport_only:
            yield from (a.name for a in n.names)


def _unnamed_public_names():
    """``file::name`` for each public name in ``src/repro`` that no source
    outside ``tests/`` names (its own module counts).  Matching is by bare
    name, so a method is reached by any attribute of that name."""
    used = set()
    for rel, tree in _src_trees().items():
        used.update(_names_used(tree, reexport_only=rel.name == "__init__.py"))
    for d in ("bench", "benchmarks", "examples"):
        for p in (_REPO / d).rglob("*.py"):
            used.update(_names_used(ast.parse(p.read_text())))
    return {
        f"{rel}::{qual}"
        for rel, tree in _src_trees().items()
        for qual, name in _public_defs(tree)
        if name not in used
    }


def test_every_public_name_is_used_outside_tests():
    assert _unnamed_public_names() == set(_UNNAMED_BUT_KEPT)


# -- structure: every option is set by something other than a test -----------

_MPI_SIGNATURE = "part of the MPI signature that communicator, compositing and reduction calls mirror"

#: Defaulted parameters that no call outside ``tests/`` passes, kept on
#: purpose; the value is why.
_UNSET_BUT_KEPT = {
    **dict.fromkeys(
        [
            "analysis/autocorrelation.py::AutocorrelationState.finalize(root=)",
            "analysis/histogram.py::parallel_histogram(root=)",
            "analysis/slice_.py::gather_global_slice(root=)",
            "mpi/communicator.py::Communicator.exscan(op=)",
            "mpi/communicator.py::Communicator.recv_with_status(tag=)",
            "mpi/communicator.py::Communicator.recv_with_status(timeout=)",
            "mpi/communicator.py::Communicator.scatter(root=)",
            "render/compositing.py::binary_swap(root=)",
            "render/compositing.py::direct_send(root=)",
        ],
        _MPI_SIGNATURE,
    ),
    "faults/policies.py::retry_call(sleep=)": "the seam through which the "
    "retry tests substitute a recording sleep",
    "faults/chaos.py::run_chaos(plan=)": "the seam through which the chaos "
    "tests substitute a fault-free or endpoint-only plan",
    **dict.fromkeys(
        ["service/client.py::run_client_workload(injector=)",
         "service/server.py::ServiceServer(injector=)"],
        "the seam through which the service fault tests inject wire and "
        "analysis faults",
    ),
    "service/server.py::ServiceServer(now=)": "the seam through which the "
    "token-expiry tests substitute a fake clock",
    "service/server.py::ServiceServer(trace=)": "the seam through which the "
    "service tests read the server's and tenants' trace",
    "apps/nbody.py::NBodySimulation(velocity_scale=)": "the slower initial "
    "velocities the n-body property and equivalence tests run at",
    **dict.fromkeys(
        ["faults/policies.py::CircuitBreaker(failure_threshold=)",
         "faults/policies.py::CircuitBreaker(probe_interval=)"],
        "the breaker thresholds the breaker state-machine tests sweep",
    ),
    "miniapp/simulation.py::OscillatorSimulation.make_data_adaptor(eager=)":
    "the eager-mapping reference the laziness tests compare against",
    "service/tenancy.py::issue_token(expires=)": "the expiry the token "
    "tests set to check rejection of an expired token",
    "apps/phasta_proxy.py::PhastaSliceRender(compression_level=)": "the "
    "Table 2 compression axis (store vs. zlib level 6)",
    "perf/apps_model.py::phasta_table2(compression=)": "the Table 2 "
    "compression axis of the modeled PHASTA row",
    "infrastructure/adios.py::run_flexpath_job(sanitize=)": "the sanitizer, "
    "a debugging mode the endpoint tests switch on",
    "mpi/launcher.py::run_spmd(trace_collectives=)": "the collective-trace "
    "debugging mode of the race-detector tests",
    **dict.fromkeys(
        [f"perf/calibrate.py::calibrate_host({p}=)" for p in ("image", "n", "window")],
        "perf/calibrate.py is kept unreached on purpose (_UNREACHED_BUT_KEPT)",
    ),
    "cli.py::main(argv=)": "the command line; the CLI tests pass argv, "
    "python -m repro passes none",
}


def _defaulted_params(tree):
    """``(qualified name, callee, parameter, index)`` for each parameter
    with a default on a public function, public method or public class
    constructor.  ``index`` is the parameter's position among the
    arguments a call passes (``self`` and ``cls`` are not passed), None
    for a keyword-only parameter; ``callee`` is the name a call uses."""
    def public_functions():
        """(function, qualified name, callee, leading arguments not passed)."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node, node.name, node.name, 0
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for m in node.body:
                if not isinstance(m, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", "") == "staticmethod" for d in m.decorator_list)
                if m.name == "__init__":
                    yield m, node.name, node.name, 1
                elif not m.name.startswith("_"):
                    yield m, f"{node.name}.{m.name}", m.name, 0 if static else 1

    for fn, qual, callee, skip in public_functions():
        a = fn.args
        positional = [*a.posonlyargs, *a.args][skip:]
        first = len(positional) - len(a.defaults)
        for i, p in enumerate(positional[first:], first):
            yield qual, callee, p.arg, i
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield qual, callee, p.arg, None


def _passes(call, param, index):
    """Whether ``call`` passes ``param``: by keyword, at or past ``index``
    by position, or through ``*``/``**`` unpacking that could reach it."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    if index is None:
        return False
    star = next((i for i, x in enumerate(call.args) if isinstance(x, ast.Starred)), None)
    return len(call.args) > index or (star is not None and star <= index)


def _unset_options(trees, callers):
    """``file::qualname(param=)`` for each defaulted parameter in ``trees``
    that no call in ``callers`` passes.  A call matches by the bare name it
    calls (``f(...)``, ``obj.f(...)``, ``Cls(...)``)."""
    calls: dict[str, list] = {}
    for tree in callers:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)
    return {
        f"{rel}::{qual}({param}=)"
        for rel, tree in trees.items()
        for qual, callee, param, index in _defaulted_params(tree)
        if not any(_passes(c, param, index) for c in calls.get(callee, ()))
    }


def _caller_trees():
    """Every source outside ``tests/`` that may call into ``src/repro``:
    the package itself, ``bench/``, ``benchmarks/``, ``examples/`` and the
    inline Python of the CI workflow."""
    trees = list(_src_trees().values())
    for d in ("bench", "benchmarks", "examples"):
        trees += [ast.parse(p.read_text()) for p in (_REPO / d).rglob("*.py")]
    ci = (_REPO / ".github" / "workflows" / "ci.yml").read_text()
    for m in re.finditer(r"<<'(\w+)'\n(.*?)\n\s*\1\n", ci, re.S):
        trees.append(ast.parse(textwrap.dedent(m.group(2))))
    return trees


def _option_drift(trees, callers, kept):
    """(unset options not on ``kept``, ``kept`` entries that are set)."""
    unset = _unset_options(trees, callers)
    return unset - set(kept), set(kept) - unset


def test_every_option_is_set_outside_tests():
    assert _option_drift(_src_trees(), _caller_trees(), _UNSET_BUT_KEPT) == (set(), set())


_PLANTED = "def f(a, b=1, *, c=2):\n    pass\n\n\nclass C:\n    def __init__(self, x=0):\n        pass\n\n    def m(self, y=0):\n        pass\n"


@pytest.mark.parametrize(
    ("caller", "kept", "new", "stale"),
    [
        pytest.param(
            "f(0, 1, c=2)\nC(1).m(2)\n", {}, set(), set(), id="all-set"
        ),
        pytest.param(
            "f(0, c=2)\nC(1).m(2)\n", {}, {"p.py::f(b=)"}, set(), id="unset-positional"
        ),
        pytest.param(
            "f(0, 1)\nC(1).m(2)\n", {}, {"p.py::f(c=)"}, set(), id="unset-keyword-only"
        ),
        pytest.param(
            "f(*args, **kw)\nC(x=1).m(y=2)\n", {}, set(), set(), id="unpacking-and-keywords"
        ),
        pytest.param(
            "f(0, 1, c=2)\nC().m()\n", {},
            {"p.py::C(x=)", "p.py::C.m(y=)"}, set(), id="self-is-not-an-argument",
        ),
        pytest.param(
            "f(0, 1, c=2)\nC(1).m(2)\n", {"p.py::f(b=)": "stale"},
            set(), {"p.py::f(b=)"}, id="stale-entry",
        ),
    ],
)
def test_option_rule_on_planted_source(caller, kept, new, stale):
    """A new defaulted parameter nothing passes is reported, and so is a
    kept entry that a caller now sets."""
    trees = {Path("p.py"): ast.parse(_PLANTED)}
    assert _option_drift(trees, [ast.parse(caller)], kept) == (new, stale)


# -- structure: every import is used -------------------------------------------


def _unused_imports(trees):
    """``file::name`` for each name a module imports but neither uses nor
    lists in its ``__all__`` (ruff's F401).  Names in quoted annotations
    count as used."""
    for rel, tree in trees.items():
        bound = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in n.names}
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                bound |= {a.asname or a.name for a in n.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "__all__":
                used |= set(ast.literal_eval(n.value))
            notes = [getattr(n, "returns", None), getattr(n, "annotation", None)]
            for note in filter(None, notes):
                for c in ast.walk(note):  # a quoted annotation: "TraceRecorder | None"
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        expr = ast.parse(c.value, mode="eval")
                        used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
        yield from (f"{rel}::{name}" for name in sorted(bound - used))


@pytest.mark.parametrize(
    ("source", "unused"),
    [
        pytest.param("import numpy as np\n", ["m.py::np"], id="unused-alias"),
        pytest.param("import os.path\nos.sep\n", [], id="dotted-import-used"),
        pytest.param("from x import A, B\n__all__ = ['A']\nB()\n", [], id="re-exported"),
        pytest.param("from x import T\ndef f(a: 'T | None'): pass\n", [], id="quoted-annotation"),
    ],
)
def test_import_rule_on_planted_source(source, unused):
    assert list(_unused_imports({Path("m.py"): ast.parse(source)})) == unused


def test_every_import_is_used():
    assert list(_unused_imports(_src_trees())) == []
