"""One table: an analysis makes the in situ products wherever it runs.

The paper runs the same histogram, autocorrelation and Catalyst slice in
situ, in transit (Figs. 8-9) and post hoc (Figs. 11-12).  Here each one is
built from the same configuration entry at every placement and must give
what it gives in situ on the 4 writers:

- in transit: the 4 writers stream to 1-3 FlexPath endpoints;
- post hoc: the 4 writers store every step and 1-3 readers read them back.

Histogram counts, vmin and vmax are exact; the autocorrelation's top-k
values are equal (cell indices follow each placement's decomposition); the
Catalyst PNG files are byte-identical.  Runs once per SPMD backend.
"""

import pytest

from repro.core import Bridge, configured_analyses
from repro.data import Association
from repro.infrastructure.adios import run_flexpath_job
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import run_spmd
from repro.posthoc import run_posthoc_analysis
from repro.storage import write_timestep
from repro.util import Configuration


@pytest.fixture(scope="module", autouse=True)
def _backend(spmd_backend):
    """Run this whole module under each execution backend."""
    return spmd_backend


WRITERS = 4
DIMS = (10, 10, 8)
STEPS = [1, 2, 3]
#: The analyses, by registered type and configuration.
ANALYSES = {
    "histogram": {"bins": 16},
    "autocorrelation": {"window": 3, "k": 3},
    "catalyst": {"axis": 2, "index": 4, "width": 40, "height": 32},
}
#: Where each analysis runs besides in situ, and on how many ranks.
PLACEMENTS = [(where, ranks) for where in ("in_transit", "posthoc") for ranks in (1, 2, 3)]


def _config(analysis, png_dir):
    """The configuration of ``analysis``; Catalyst writes its PNGs to
    ``png_dir``."""
    config = dict(ANALYSES[analysis])
    if analysis == "catalyst":
        config["output_dir"] = str(png_dir)
    return config


def _build(analysis, config):
    entry = {"type": analysis, **config}
    (built,) = configured_analyses(Configuration({"analyses": [entry]}))
    return built


def _products(analysis, result, png_dir):
    """What a placement made, in a form compared with ``==``."""
    if analysis == "histogram":
        return [(h.counts.tolist(), h.vmin, h.vmax) for h in result]
    if analysis == "autocorrelation":
        return [[value for value, _ in top] for top in result.top]
    return {p.name: p.read_bytes() for p in sorted(png_dir.iterdir())}


def _simulation(comm):
    return OscillatorSimulation(comm, DIMS, default_oscillators(), dt=0.1)


@pytest.fixture(scope="module")
def in_situ(spmd_backend, tmp_path_factory):
    """Every analysis in situ on the writers, which also store each step;
    returns the stored directory and each analysis's products."""
    root = tmp_path_factory.mktemp(f"in_situ_{spmd_backend}")
    stored = root / "vtk"

    def writers(comm):
        sim = _simulation(comm)
        adaptor = sim.make_data_adaptor()
        bridge = Bridge(comm, adaptor)
        analyses = [_build(a, _config(a, root / a)) for a in ANALYSES]
        for a in analyses:
            bridge.add_analysis(a)
        bridge.initialize()
        for _ in STEPS:
            sim.advance()
            bridge.execute(sim.time, sim.step)
            mesh = adaptor.get_mesh()
            mesh.add_array(Association.POINT, adaptor.get_array(Association.POINT, "data"))
            write_timestep(comm, stored, sim.step, sim.time, mesh, "data")
            adaptor.release_data()
        results = bridge.finalize()
        return [results.get(a.name) for a in analyses]

    results = run_spmd(WRITERS, writers)[0]
    products = {
        a: _products(a, result, root / a) for a, result in zip(ANALYSES, results)
    }
    assert len(products["histogram"]) == len(products["catalyst"]) == len(STEPS)
    return stored, products


def _stream(comm, writer):
    sim = _simulation(comm)
    bridge = Bridge(comm, sim.make_data_adaptor())
    bridge.add_analysis(writer)
    bridge.initialize()
    sim.run(len(STEPS), bridge)
    bridge.finalize()


@pytest.mark.parametrize("analysis", ANALYSES)
@pytest.mark.parametrize(
    "where,ranks", PLACEMENTS, ids=[f"{w}-{n}" for w, n in PLACEMENTS]
)
def test_placement_makes_the_in_situ_products(in_situ, where, ranks, analysis, tmp_path):
    stored, reference = in_situ
    config = _config(analysis, tmp_path)
    if where == "in_transit":
        job = run_flexpath_job(
            WRITERS, ranks, _stream, lambda comm: _build(analysis, config)
        )
        result = job.endpoint_results[0]["result"]
    else:

        def readers(comm):
            res = run_posthoc_analysis(comm, stored, STEPS, analysis, **config)
            assert res.steps == len(STEPS)
            return list(res.results.values())

        (result,) = run_spmd(ranks, readers)[0]
    assert _products(analysis, result, tmp_path) == reference[analysis]
