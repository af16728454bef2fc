"""NBody through every delivery path: four infrastructures, staging, the
service, and the CLI.

The acceptance criterion: one nbody run produces an artifact-checksum
manifest (density PNGs, power spectrum, halo counts, Catalyst/libsim
image CRCs) that is byte-identical across SPMD backends and rank counts.
"""

import json
import os

import pytest

from repro.apps.nbody import NBodyDataAdaptor, NBodySimulation, run_nbody
from repro.core.bridge import Bridge


#: Keys whose values must be invariant to decomposition and backend.
INVARIANT_KEYS = (
    "density_png_crcs",
    "power_spectrum",
    "halo_counts",
    "halo_sizes",
    "catalyst_png_crc",
    "libsim_png_crc",
)


def _manifest(tmp_path, sub, **kwargs):
    kwargs.setdefault("steps", 3)
    kwargs.setdefault("grid", 16)
    kwargs.setdefault("n_particles", 300)
    kwargs.setdefault("seed", 7)
    return run_nbody(str(tmp_path / sub), **kwargs)


class TestManifestEquivalence:
    def test_identical_across_rank_counts(self, tmp_path):
        manifests = {
            nr: _manifest(tmp_path, f"r{nr}", ranks=nr) for nr in (1, 2, 4)
        }
        for key in INVARIANT_KEYS:
            assert (
                manifests[1][key] == manifests[2][key] == manifests[4][key]
            ), key

    def test_identical_across_backends(self, tmp_path):
        thread = _manifest(tmp_path, "thread", ranks=2, backend="thread")
        process = _manifest(tmp_path, "process", ranks=2, backend="process")
        for key in INVARIANT_KEYS:
            assert thread[key] == process[key], key
        # Not just the summary: the bytes on disk must match too.
        for name in ("manifest.json", "density_proj_000002.png"):
            a = (tmp_path / "thread" / name).read_bytes()
            b = (tmp_path / "process" / name).read_bytes()
            assert a == b, name

    def test_artifacts_on_disk(self, tmp_path):
        manifest = _manifest(tmp_path, "full", ranks=2)
        out = tmp_path / "full"
        assert json.loads((out / "manifest.json").read_text()) == manifest
        assert (out / "steps.bp").exists()
        assert sorted(p.name for p in (out / "catalyst").glob("*.png"))
        assert sorted(p.name for p in (out / "libsim").glob("*.png"))
        assert (out / "glean").is_dir()
        assert (out / "power_spectrum.json").exists()
        assert (out / "halos.json").exists()

    def test_analyses_only_subset(self, tmp_path):
        manifest = _manifest(tmp_path, "bare", ranks=2, infrastructures=())
        assert "catalyst_png_crc" not in manifest
        assert manifest["infrastructures"] == []
        assert len(manifest["density_png_crcs"]) == 3

    def test_unknown_infrastructure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown infrastructures"):
            _manifest(tmp_path, "bad", infrastructures=("catalyst", "vtk"))


class TestFlexPathStaging:
    def test_nbody_density_through_staged_endpoint(self, tmp_path):
        """The fourth delivery mode: writers stage the density grid over
        FlexPath to an in-transit Catalyst endpoint."""
        from repro.analysis.slice_ import SlicePlane
        from repro.infrastructure.adios import run_flexpath_job
        from repro.infrastructure.catalyst import CatalystAdaptor

        grid = 16

        def writer_program(group, writer_adaptor):
            sim = NBodySimulation(group, grid=grid, n_particles=200, seed=5)
            bridge = Bridge(group, sim.make_data_adaptor())
            bridge.add_analysis(writer_adaptor)
            bridge.initialize()
            sim.run(3, bridge)
            return bridge.finalize()

        job = run_flexpath_job(
            2,
            1,
            writer_program,
            lambda comm: CatalystAdaptor(
                plane=SlicePlane(2, grid // 2),
                array=NBodyDataAdaptor.DENSITY,
                resolution=(100, 100),
                output_dir=str(tmp_path / "staged"),
            ),
            array=NBodyDataAdaptor.DENSITY,
            timeout=90.0,
        )
        flex = [w["AdiosFlexPathWriter"] for w in job.writer_results]
        assert all(f["steps_sent"] == 3 for f in flex)
        assert job.endpoint_results[0]["steps_analyzed"] == 3
        assert sorted(p.name for p in (tmp_path / "staged").glob("*.png"))


class TestServiceTenant:
    def test_nbody_stream_matches_inproc_oracle(self, tmp_path):
        """An nbody tenant streamed through the socket service produces
        byte-identical artifacts to the in-process oracle."""
        from repro.service import (
            ServiceServer,
            TenantRegistry,
            TenantSpec,
            issue_token,
            run_client_workload,
            run_workload_inproc,
        )
        from repro.service.workload import nbody_steps

        secret = "nbody-secret"
        registry = TenantRegistry()
        registry.register(TenantSpec("nb"))
        server = ServiceServer(
            str(tmp_path / "svc.sock"),
            registry,
            secret,
            str(tmp_path / "out"),
            render=False,
        )
        server.start()
        try:
            summary = run_client_workload(
                server.socket_path,
                "nb",
                issue_token(secret, "nb"),
                steps=3,
                shape=(8, 8),
                workload="nbody",
            )
        finally:
            server.stop()
        assert summary["steps_admitted"] == 3
        run_workload_inproc(
            "nb",
            nbody_steps("nb", 3, grid=8),
            str(tmp_path / "oracle"),
        )
        served = (
            tmp_path / "out" / "tenants" / "nb" / "histograms.json"
        ).read_bytes()
        oracle = (tmp_path / "oracle" / "histograms.json").read_bytes()
        assert served == oracle

    def test_nbody_steps_deterministic_and_tenant_distinct(self):
        from repro.service.workload import nbody_seed, nbody_steps

        a1 = [f[2]["data"].tobytes() for f in nbody_steps("a", 2, grid=8)]
        a2 = [f[2]["data"].tobytes() for f in nbody_steps("a", 2, grid=8)]
        b = [f[2]["data"].tobytes() for f in nbody_steps("b", 2, grid=8)]
        assert a1 == a2
        assert a1 != b
        assert nbody_seed("a") != nbody_seed("b")
        assert nbody_seed("a", seed=0) != nbody_seed("a", seed=1)

    def test_unknown_workload_rejected(self):
        from repro.service import run_client_workload

        with pytest.raises(ValueError, match="unknown workload"):
            run_client_workload("/nonexistent", "t", "tok", 1, workload="x")


class TestCli:
    def test_repro_nbody_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "cli")
        rc = main(
            [
                "nbody",
                "--out", out,
                "--ranks", "2",
                "--steps", "2",
                "--grid", "8",
                "--particles", "100",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "manifest.json" in text
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert os.path.exists(os.path.join(out, "measured.json"))
        assert os.path.exists(os.path.join(out, "phase_report.txt"))
        # The trace actually carries the nbody phases.
        doc = json.loads(open(os.path.join(out, "measured.json")).read())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "nbody::advance" in names
        assert "sensei::execute" in names

    def test_repro_nbody_subset_of_infrastructures(self, tmp_path):
        from repro.cli import main

        out = str(tmp_path / "cli2")
        rc = main(
            [
                "nbody",
                "--out", out,
                "--ranks", "1",
                "--steps", "2",
                "--grid", "8",
                "--particles", "50",
                "--infrastructures", "adios",
                "--no-sanitize",
            ]
        )
        assert rc == 0
        manifest = json.loads(
            open(os.path.join(out, "manifest.json")).read()
        )
        assert manifest["infrastructures"] == ["adios"]
        assert "catalyst_png_crc" not in manifest
