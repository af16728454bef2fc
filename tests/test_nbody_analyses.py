"""Particle analyses: FoF clustering, projection/spectrum invariance.

The cross-rank-count assertions here are *byte* comparisons: identical
PNG CRCs, identical spectra, identical halo counts for 1/2/4 ranks --
the property the fixed-point deposit and canonical FoF ordering exist
to provide.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.particles import (
    DensityProjectionAnalysis,
    FriendsOfFriendsAnalysis,
    ParticleAnalysisError,
    PowerSpectrumAnalysis,
    friends_of_friends,
    halo_sizes,
)
from repro.apps.nbody import NBodySimulation
from repro.core.bridge import Bridge
from repro.core.configurable import (
    configured_analyses,
    registered_analysis_types,
)
from repro.mpi import run_spmd
from repro.trace import TraceSession
from repro.util.config import Configuration


class TestFriendsOfFriends:
    def test_two_well_separated_clusters(self):
        a = 0.2 + 0.01 * np.random.default_rng(1).random((10, 3))
        b = 0.8 + 0.01 * np.random.default_rng(2).random((7, 3))
        pos = np.vstack([a, b])
        labels = friends_of_friends(pos, 0.05)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]
        assert halo_sizes(labels) == [10, 7]

    def test_labels_are_canonical_min_index(self):
        pos = np.array([[0.5, 0.5, 0.5], [0.51, 0.5, 0.5], [0.1, 0.1, 0.1]])
        labels = friends_of_friends(pos, 0.05)
        assert labels.tolist() == [0, 0, 2]

    def test_periodic_minimum_image_links_across_wrap(self):
        pos = np.array([[0.995, 0.5, 0.5], [0.005, 0.5, 0.5]])
        labels = friends_of_friends(pos, 0.05)
        assert labels[0] == labels[1]

    def test_isolated_particles_form_no_halos(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.5], [0.9, 0.9, 0.1]])
        labels = friends_of_friends(pos, 0.01)
        assert halo_sizes(labels) == []
        assert halo_sizes(labels, min_members=1) == [1, 1, 1]
        assert halo_sizes(np.empty(0, dtype=np.int64)) == []

    def test_partition_invariant_under_permutation(self):
        rng = np.random.default_rng(5)
        pos = rng.random((60, 3))
        labels = friends_of_friends(pos, 0.12)
        perm = rng.permutation(60)
        permuted = friends_of_friends(pos[perm], 0.12)
        # Same partition: particles i, j share a halo iff their images do.
        for i in range(60):
            for j in range(i + 1, 60):
                same = labels[i] == labels[j]
                pi, pj = np.nonzero(perm == i)[0][0], np.nonzero(perm == j)[0][0]
                assert same == (permuted[pi] == permuted[pj])


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_linking_length_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="linking_length"):
            friends_of_friends(np.zeros((2, 3)), bad)

    def test_non_finite_position_is_refused(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.2, np.nan, 0.2], [np.inf, 0.3, 0.3]])
        with pytest.raises(ValueError, match="finite"):
            friends_of_friends(pos, 0.05)
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            friends_of_friends(np.zeros((4, 2)), 0.05)


def _labels_and_peak(positions, linking_length):
    """Labels, and the peak bytes allocated while computing them (numpy
    reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        labels = friends_of_friends(positions, linking_length)
        return labels, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFriendsOfFriendsScale:
    """Count- and allocation-based: nothing here asserts a wall time."""

    def test_16384_uniform_matches_kdtree_components(self):
        spatial = pytest.importorskip("scipy.spatial")
        sparse = pytest.importorskip("scipy.sparse")
        n = 16384
        pos = np.random.default_rng(19).random((n, 3))
        ll = 0.2 * n ** (-1.0 / 3.0)
        pairs = spatial.cKDTree(pos, boxsize=1.0).query_pairs(
            ll, output_type="ndarray"
        )
        graph = sparse.coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
        )
        n_halos, component = sparse.csgraph.connected_components(
            graph, directed=False
        )
        smallest = np.full(n_halos, n)
        np.minimum.at(smallest, component, np.arange(n))
        labels = friends_of_friends(pos, ll)
        assert len(pairs) > 100 and n_halos < n  # the case is not vacuous
        assert np.array_equal(labels, smallest[component])

    def test_population_collapsed_into_one_cell_is_chunked(self):
        # 4096 mutually linked particles: 8.4e6 candidate pairs, all links.
        # Expanded at once that is >= 128 MiB of index arrays alone, and an
        # n x n float64 distance block is another 128 MiB; chunked, the
        # working set is a few arrays of ~_PAIR_CHUNK + n entries.
        pos = 0.5 + 0.01 * np.random.default_rng(4).random((4096, 3))
        labels, peak = _labels_and_peak(pos, 0.06)
        assert not labels.any()
        assert peak < 16 * 2**20

    def test_tiny_linking_length_keeps_the_cell_table_linear(self):
        # floor(1/ll)^3 would be a 1e18-entry table; cells only have to be
        # at least ll wide, so their number follows n instead.
        pos = np.random.default_rng(5).random((10, 3))
        pos[1] = pos[0] + 5e-7
        labels, peak = _labels_and_peak(pos, 1e-6)
        assert labels.tolist() == [0, 0, *range(2, 10)]
        assert peak < 2**20


#: Counters every collective samples once per call (point-to-point
#: sends sample ``mpi::send::bytes``).
_COLLECTIVE_COUNTERS = {
    f"mpi::{kind}::bytes"
    for kind in ("barrier", "allgather", "gather", "bcast", "scatter",
                 "reduce", "allreduce", "alltoall", "exscan", "split")
}


def _collectives(rec) -> int:
    return sum(1 for c in rec.counters if c.name in _COLLECTIVE_COUNTERS)


def _clustered(n, seed, blobs=12, sigma=0.02):
    rng = np.random.default_rng(seed)
    centres = rng.random((blobs, 3))
    pos = centres[rng.integers(blobs, size=n)]
    pos = pos + sigma * rng.standard_normal((n, 3))
    return pos - np.floor(pos)


class TestSplitPairSearch:
    def test_fof_step_enters_the_same_collectives_at_1_2_3_ranks(self):
        """Fault schedules are drawn per (site, rank, occurrence): a step
        must enter as many collectives as before the split (the particle
        gather, then two reductions; now the gather, the forest allgather
        and the count allgather) at every rank count."""

        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=256, seed=3)
            fof = FriendsOfFriendsAnalysis(linking_length=0.08)
            fof.initialize(comm)
            rec = comm.trace_recorder
            before = _collectives(rec)
            fof.execute(sim.make_data_adaptor())
            return _collectives(rec) - before, fof.history[-1][1]

        per_rank = {
            ranks: run_spmd(ranks, prog, trace=TraceSession(), timeout=60.0)
            for ranks in (1, 2, 3)
        }
        counts = {entry for rows in per_rank.values() for entry in rows}
        assert len(counts) == 1, per_rank
        assert next(iter(counts))[0] == 3

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pairs_counter_splits_the_serial_count(self, backend):
        pos = _clustered(2048, seed=11)
        serial_session = TraceSession()
        run_spmd(
            1, lambda comm: friends_of_friends(pos, 0.06, comm),
            trace=serial_session, timeout=60.0,
        )
        serial = serial_session.recorder(0).total("fof::pairs")
        assert serial > 10 * 2048  # clustered: far more pairs than particles
        for ranks in (2, 3, 4, 5):
            session = TraceSession()
            run_spmd(
                ranks, lambda comm: friends_of_friends(pos, 0.06, comm),
                trace=session, backend=backend, timeout=60.0,
            )
            pairs = [session.recorder(r).total("fof::pairs") for r in range(ranks)]
            assert sum(pairs) == serial
            for share in pairs:
                assert abs(share - serial / ranks) <= 0.1 * serial / ranks

    def test_rank_divergent_halo_count_is_one_allgather_error(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=3)
            fof = FriendsOfFriendsAnalysis(linking_length=0.08)
            fof.initialize(comm)
            if comm.rank == 1:
                fof.min_members = 64  # rank 1 counts no halo
            with pytest.raises(
                ParticleAnalysisError, match=r"rank-divergent halo counts"
            ):
                fof.execute(sim.make_data_adaptor())
            return True

        assert run_spmd(2, prog, timeout=60.0) == [True, True]


def _run_analyses(nranks, steps=3, grid=16, n=300, seed=7, out_dir=None):
    def prog(comm):
        sim = NBodySimulation(comm, grid=grid, n_particles=n, seed=seed)
        bridge = Bridge(comm, sim.make_data_adaptor(), sanitize=True)
        bridge.add_analysis(DensityProjectionAnalysis(grid=grid, output_dir=out_dir))
        bridge.add_analysis(PowerSpectrumAnalysis(grid=grid, output_dir=out_dir))
        bridge.add_analysis(FriendsOfFriendsAnalysis(linking_length=0.06))
        bridge.initialize()
        sim.run(steps, bridge)
        return bridge.finalize()

    return run_spmd(nranks, prog, timeout=90.0)[0]


class TestRankInvariance:
    def test_all_three_analyses_identical_across_1_2_4_ranks(self):
        results = {nr: _run_analyses(nr) for nr in (1, 2, 4)}
        r1, r2, r4 = results[1], results[2], results[4]
        assert (
            r1["DensityProjectionAnalysis"]["png_crcs"]
            == r2["DensityProjectionAnalysis"]["png_crcs"]
            == r4["DensityProjectionAnalysis"]["png_crcs"]
        )
        assert (
            r1["PowerSpectrumAnalysis"]["power"]
            == r2["PowerSpectrumAnalysis"]["power"]
            == r4["PowerSpectrumAnalysis"]["power"]
        )
        assert (
            r1["FriendsOfFriendsAnalysis"]["halo_counts"]
            == r2["FriendsOfFriendsAnalysis"]["halo_counts"]
            == r4["FriendsOfFriendsAnalysis"]["halo_counts"]
        )
        assert (
            r1["FriendsOfFriendsAnalysis"]["halo_sizes"]
            == r2["FriendsOfFriendsAnalysis"]["halo_sizes"]
            == r4["FriendsOfFriendsAnalysis"]["halo_sizes"]
        )

    def test_artifact_files_written(self, tmp_path):
        out = str(tmp_path / "artifacts")
        result = _run_analyses(2, out_dir=out)
        assert result["DensityProjectionAnalysis"]["steps"] == 3
        pngs = sorted(p.name for p in (tmp_path / "artifacts").glob("*.png"))
        assert pngs == [
            "density_proj_000001.png",
            "density_proj_000002.png",
            "density_proj_000003.png",
        ]
        assert (tmp_path / "artifacts" / "power_spectrum.json").exists()


class TestAnalysisBehavior:
    def test_spectrum_shape_and_bins(self):
        result = _run_analyses(2, grid=16)
        ps = result["PowerSpectrumAnalysis"]
        assert ps["k"] == list(range(9))  # 16//2 + 1 shells
        assert all(len(p) == 9 for p in ps["power"])
        assert all(v >= 0.0 for p in ps["power"] for v in p)

    def test_frequency_skips_steps(self):
        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=3)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(DensityProjectionAnalysis(grid=8, frequency=2))
            bridge.initialize()
            sim.run(4, bridge)
            return bridge.finalize()

        result = run_spmd(1, prog, timeout=60.0)[0]
        # Steps 1..4; only the even ones execute under frequency=2.
        assert result["DensityProjectionAnalysis"]["steps"] == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DensityProjectionAnalysis(grid=0)
        with pytest.raises(ValueError):
            PowerSpectrumAnalysis(frequency=0)
        with pytest.raises(ValueError):
            FriendsOfFriendsAnalysis(linking_length=0.0)
        with pytest.raises(ValueError):
            FriendsOfFriendsAnalysis(min_members=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_fof_linking_length_must_be_finite(self, bad):
        # ``nan <= 0`` is False: a sign test alone let NaN through.
        with pytest.raises(ValueError, match="linking_length"):
            FriendsOfFriendsAnalysis(linking_length=bad)
        config = Configuration(
            {"analyses": [{"type": "fof", "linking_length": bad}]}
        )
        with pytest.raises(ValueError, match="linking_length"):
            configured_analyses(config)

    def test_fof_refuses_non_finite_positions(self):
        """A NaN coordinate used to become a silent singleton halo; now
        every rank raises, naming the step and how many particles."""

        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=3)
            bridge = Bridge(comm, sim.make_data_adaptor())
            bridge.add_analysis(FriendsOfFriendsAnalysis(linking_length=0.08))
            bridge.initialize()
            sim.run(1, bridge)
            if comm.rank == 0:
                sim.particles.positions[:2, 1] = (np.nan, np.inf)
            with pytest.raises(
                ParticleAnalysisError,
                match=r"2 particle\(s\) with a non-finite position at step 7",
            ):
                bridge.execute(0.35, 7)
            return True

        assert run_spmd(2, prog, timeout=60.0) == [True, True]

    def test_registered_in_configurable_registry(self):
        types = registered_analysis_types()
        for name in ("density_projection", "power_spectrum", "fof"):
            assert name in types

    def test_configurable_analysis_builds_and_runs(self):
        config = Configuration(
            {
                "analyses": [
                    {"type": "density_projection", "grid": 8},
                    {"type": "fof", "linking_length": 0.08},
                ]
            }
        )

        def prog(comm):
            sim = NBodySimulation(comm, grid=8, n_particles=64, seed=3)
            bridge = Bridge(comm, sim.make_data_adaptor())
            for analysis in configured_analyses(config):
                bridge.add_analysis(analysis)
            bridge.initialize()
            sim.run(2, bridge)
            return bridge.finalize()

        result = run_spmd(2, prog, timeout=60.0)[0]
        assert result["DensityProjectionAnalysis"]["steps"] == 2
        assert len(result["FriendsOfFriendsAnalysis"]["halo_counts"]) == 2
