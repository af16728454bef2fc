"""Seeded property battery for the particle pipeline.

Every property here is asserted as *equality*, not tolerance: the dyadic
initial conditions and fixed-point deposit make conservation and
decomposition-independence exact, so hypothesis gets to hunt for seeds
that break bit-level invariants rather than epsilon budgets.

The SPMD-driving properties keep ``max_examples`` small -- each example
spins up a full multi-rank run -- while the pure-kernel properties
(deposit order/decomposition independence, FoF partition invariance and
equality with the brute-force oracle in ``tests/_fof_oracle.py``,
ragged-slice introspection) run at normal hypothesis volume.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.particles import friends_of_friends, halo_sizes
from repro.apps.nbody import NBodySimulation
from repro.data import DataArray, ParticleSet, cic_deposit_int
from repro.mpi import run_spmd
from repro.trace import TraceSession
from tests._fof_oracle import friends_of_friends as brute_force_fof

seeds = st.integers(min_value=0, max_value=2**16 - 1)

#: Linking lengths with an integer 1/ll (cell edge == ll before padding),
#: the 1/3 below which the half shell stops aliasing, and lengths past it.
_EDGE_LINKING_LENGTHS = (0.05, 0.0625, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.5)
linking_lengths = st.one_of(
    st.sampled_from(_EDGE_LINKING_LENGTHS),
    st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
)


def _adversarial_positions(rng, n, ll, snap, wrap_to_one, duplicate):
    """Positions in [-1, 2) bent towards the grid's failure modes."""
    pos = rng.random((n, 3)) * 3.0 - 1.0
    if n == 0:
        return pos
    if snap:
        # Onto the faces of the grids a linking length suggests (pitch ll,
        # 1/floor(1/ll), 1/(floor(1/ll) - 1)) and one ulp either side.
        per_side = max(int(1.0 / ll), 1)
        pitch = rng.choice(
            [ll, 1.0 / per_side, 1.0 / max(per_side - 1, 1)], size=pos.shape
        )
        face = np.round(pos / pitch) * pitch
        nudge = rng.integers(-1, 2, size=pos.shape)
        face = np.where(
            nudge == 0, face, np.nextafter(face, np.where(nudge < 0, -3.0, 3.0))
        )
        pos = np.where(rng.random(pos.shape) < 0.6, face, pos)
    if wrap_to_one:
        # -1e-20 - floor(-1e-20) rounds to exactly 1.0.
        pos[rng.integers(n), rng.integers(3)] = -1e-20
    if duplicate:
        dst = rng.integers(n, size=max(n // 4, 1))
        pos[dst] = pos[rng.integers(n, size=dst.size)]
    return pos


def _global_state(nranks, seed, steps, backend=None, **kw):
    """state_tuple + exact conservation bookkeeping for one seeded run."""

    def prog(comm):
        sim = NBodySimulation(
            comm,
            grid=8,
            n_particles=120,
            seed=seed,
            velocity_scale=0.25,
            **kw,
        )
        mass_before = comm.allreduce(sim.particles.masses.sum())
        count_before = comm.allreduce(sim.n_local)
        sim.run(steps)
        gathered = comm.allgather(
            (sim.particles.ids, sim.particles.positions,
             sim.particles.velocities, sim.particles.masses)
        )
        world = ParticleSet.concatenate([ParticleSet(*p) for p in gathered])
        return {
            "state": world.state_tuple(),
            "mass_before": mass_before,
            "mass_after": world.total_mass(),
            "count_before": count_before,
            "count_after": world.num_particles,
            "migrated": sim.migrated_out,
        }

    return run_spmd(nranks, prog, backend=backend, timeout=90.0)


class TestSeededConservation:
    @given(seed=seeds, steps=st.integers(min_value=1, max_value=4))
    @settings(max_examples=6, deadline=None)
    def test_count_and_mass_exact(self, seed, steps):
        results = _global_state(3, seed, steps)
        for r in results:
            assert r["count_after"] == r["count_before"]
            # Dyadic masses (multiples of 1/16): both sums are exact.
            assert r["mass_after"] == r["mass_before"]

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_momentum_exact_under_pure_drift(self, seed):
        def prog(comm):
            sim = NBodySimulation(
                comm, grid=8, n_particles=100, seed=seed, velocity_scale=0.25
            )
            sim.gravity = 0.0
            before = comm.allreduce(sim.particles.momentum())
            sim.run(3)
            after = comm.allreduce(sim.particles.momentum())
            return before.tobytes() == after.tobytes()

        assert all(run_spmd(2, prog, timeout=90.0))


class TestSeededEquivalence:
    @given(seed=seeds)
    @settings(max_examples=4, deadline=None)
    def test_thread_vs_process_bit_identical(self, seed):
        thread = _global_state(2, seed, 3, backend="thread")
        process = _global_state(2, seed, 3, backend="process")
        assert thread[0]["state"] == process[0]["state"]
        assert [r["migrated"] for r in thread] == [
            r["migrated"] for r in process
        ]

    @given(seed=seeds, steps=st.integers(min_value=1, max_value=3))
    @settings(max_examples=5, deadline=None)
    def test_rank_count_invariance(self, seed, steps):
        one = _global_state(1, seed, steps)[0]["state"]
        four = _global_state(4, seed, steps)[0]["state"]
        assert one == four

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_migration_restores_ownership(self, seed):
        """Migration runs at the *start* of each step, so after the last
        drift some particles may sit off-rank -- but one more migration
        must hand every one of them to its owning slab."""

        def prog(comm):
            sim = NBodySimulation(
                comm, grid=8, n_particles=100, seed=seed,
                velocity_scale=0.25,
            )
            sim.run(3)
            sim._migrate()
            owners = sim._owner_ranks(sim.particles.positions[:, 0])
            return bool(np.all(owners == comm.rank))

        assert all(run_spmd(3, prog, timeout=90.0))


def _population(seed, n):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 3))
    masses = rng.integers(1, 17, n) / 16.0
    return positions, masses


class TestDepositProperties:
    @given(seed=seeds, n=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_order_independence(self, seed, n):
        positions, masses = _population(seed, n)
        grid = cic_deposit_int(positions, masses, 8)
        perm = np.random.default_rng(seed + 1).permutation(n)
        permuted = cic_deposit_int(positions[perm], masses[perm], 8)
        assert grid.tobytes() == permuted.tobytes()

    @given(
        seed=seeds,
        n=st.integers(min_value=0, max_value=200),
        split=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_decomposition_independence(self, seed, n, split):
        """Depositing any two-way split of the population and summing the
        int64 grids equals depositing the whole population at once."""
        positions, masses = _population(seed, n)
        split = min(split, n)
        whole = cic_deposit_int(positions, masses, 8)
        parts = cic_deposit_int(
            positions[:split], masses[:split], 8
        ) + cic_deposit_int(positions[split:], masses[split:], 8)
        assert whole.tobytes() == parts.tobytes()

    @given(seed=seeds, n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_quantized_mass_bounded_error(self, seed, n):
        """Each particle spreads over 8 corners; rounding each corner
        contribution costs at most 1/2 ulp of the scale, so the total
        integer mass is within 4*n of the exact scaled sum."""
        from repro.data import DEPOSIT_SCALE

        positions, masses = _population(seed, n)
        grid = cic_deposit_int(positions, masses, 8)
        exact = round(masses.sum() * DEPOSIT_SCALE)
        assert abs(int(grid.sum()) - exact) <= 4 * n


class TestFoFProperties:
    @given(seed=seeds, n=st.integers(min_value=2, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_partition_invariant_under_permutation(self, seed, n):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        labels = friends_of_friends(pos, 0.15)
        perm = rng.permutation(n)
        permuted = friends_of_friends(pos[perm], 0.15)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        same = labels[:, None] == labels[None, :]
        same_p = permuted[inverse][:, None] == permuted[inverse][None, :]
        assert bool(np.all(same == same_p))

    @given(seed=seeds, n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_halo_sizes_partition_the_population(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = friends_of_friends(rng.random((n, 3)), 0.2)
        assert sum(halo_sizes(labels, min_members=1)) == n
        assert all(s >= 2 for s in halo_sizes(labels))


    @given(
        seed=seeds,
        n=st.integers(min_value=0, max_value=300),
        ll=linking_lengths,
        snap=st.booleans(),
        wrap_to_one=st.booleans(),
        duplicate=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_equal_the_brute_force_oracle(
        self, seed, n, ll, snap, wrap_to_one, duplicate
    ):
        """Not the same partition -- the same array: the grid only
        proposes candidates, the link arithmetic is the oracle's."""
        rng = np.random.default_rng(seed)
        pos = _adversarial_positions(rng, n, ll, snap, wrap_to_one, duplicate)
        assert np.array_equal(
            friends_of_friends(pos, ll), brute_force_fof(pos, ll)
        )

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_shuffled_chain_collapses_to_one_label(self, seed):
        """400 links end to end in shuffled index order: the worst case
        for label propagation (one label must travel the whole chain)."""
        rng = np.random.default_rng(seed)
        chain = np.full((401, 3), 0.5)
        chain[:, 0] = 0.002 * np.arange(401)
        pos = chain[rng.permutation(401)]
        labels = friends_of_friends(pos, 0.0021)
        assert np.array_equal(labels, brute_force_fof(pos, 0.0021))
        assert not labels.any()

    def test_link_the_rounded_distance_accepts_across_two_exact_cells(self):
        """0.5 - nextafter(0.25, 0) rounds to exactly 0.25, so the pair is
        linked at ll = 0.25 -- yet with four cells of edge exactly ll the
        two particles would sit in cells 0 and 2.  The grid pads its edge
        past every separation the rounded test can accept."""
        pos = np.array([[np.nextafter(0.25, 0.0), 0.1, 0.1], [0.5, 0.1, 0.1]])
        assert brute_force_fof(pos, 0.25).tolist() == [0, 0]
        assert friends_of_friends(pos, 0.25).tolist() == [0, 0]


def _clustered(rng, n, blobs=8, sigma=0.02):
    """Gaussian blobs wrapped into the unit box: dense cells beside
    empty ones, the shape a halo finder sees after a few hundred steps."""
    centres = rng.random((blobs, 3))
    pos = centres[rng.integers(blobs, size=n)] + sigma * rng.standard_normal(
        (n, 3)
    )
    return pos - np.floor(pos)


def _fof_population(kind, rng, n, ll):
    if kind == "uniform":
        return rng.random((n, 3))
    if kind == "clustered":
        return _clustered(rng, n)
    if kind == "one_cell":
        return 0.5 + 0.3 * ll * rng.random((n, 3))
    if kind == "dense_cut":
        # Most particles in one cell, so its pairs outweigh a share and a
        # share boundary falls inside the cell's run.
        pos = rng.random((n, 3))
        pos[: max(n - 5, 0)] = 0.5 + 0.3 * ll * rng.random((max(n - 5, 0), 3))
        return pos
    # "wrap": particles on both faces of the periodic box.
    pos = rng.random((n, 3))
    pos[rng.random((n, 3)) < 0.3] = 1.0
    pos[rng.random((n, 3)) < 0.3] = -1e-20
    return pos


def _split_labels(pos, ll, ranks, backend):
    return run_spmd(
        ranks,
        lambda comm: friends_of_friends(pos, ll, comm),
        backend=backend,
        timeout=60.0,
    )


class TestSplitFoF:
    """The pair search split across ranks gives every rank the serial
    labels, whatever the cut: the shares partition the candidate pairs and
    the min-label merge is canonical."""

    @given(
        seed=seeds,
        kind=st.sampled_from(
            ["uniform", "clustered", "one_cell", "dense_cut", "wrap"]
        ),
        n=st.integers(min_value=0, max_value=160),
        ll=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
        ranks=st.integers(min_value=1, max_value=5),
        backend=st.sampled_from(["thread", "process"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_equals_serial_and_oracle(
        self, seed, kind, n, ll, ranks, backend
    ):
        pos = _fof_population(kind, np.random.default_rng(seed), n, ll)
        serial = friends_of_friends(pos, ll)
        assert np.array_equal(serial, brute_force_fof(pos, ll))
        for labels in _split_labels(pos, ll, ranks, backend):
            assert np.array_equal(labels, serial)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize(
        "n, ranks", [(0, 1), (0, 3), (1, 2), (2, 5), (3, 5), (4, 4)]
    )
    def test_fewer_particles_than_ranks(self, n, ranks, backend):
        pos = np.random.default_rng(n).random((n, 3)) * 0.02
        for labels in _split_labels(pos, 0.05, ranks, backend):
            assert np.array_equal(labels, brute_force_fof(pos, 0.05))

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_a_share_boundary_cuts_the_dense_cell(self, ranks):
        """195 of 200 particles in one cell: its own-cell pairs are nearly
        all the work, so shares of equal pair counts must cut its run."""
        pos = _fof_population("dense_cut", np.random.default_rng(7), 200, 0.05)
        session = TraceSession()
        out = run_spmd(
            ranks,
            lambda comm: friends_of_friends(pos, 0.05, comm),
            trace=session,
            timeout=60.0,
        )
        pairs = [session.recorder(r).total("fof::pairs") for r in range(ranks)]
        assert sum(pairs) >= 195 * 194 // 2
        assert max(pairs) < sum(pairs) * 1.1 / ranks
        for labels in out:
            assert np.array_equal(labels, brute_force_fof(pos, 0.05))


class TestRaggedSliceProperties:
    @given(
        seed=seeds,
        n=st.integers(min_value=0, max_value=50),
        lo=st.integers(min_value=0, max_value=50),
        span=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_slice_tuples_zero_copy_and_fingerprint(self, seed, n, lo, span):
        """Any per-rank slice of a ragged population stays zero-copy and
        fingerprints identically to a fresh copy of the same tuples."""
        rng = np.random.default_rng(seed)
        base = DataArray.from_aos("position", rng.random((n, 3)))
        lo = min(lo, n)
        hi = min(lo + span, n)
        view = base.slice_tuples(lo, hi)
        assert view.is_zero_copy
        assert view.num_tuples == hi - lo
        fresh = DataArray.from_aos("position", base.as_aos()[lo:hi].copy())
        assert view.fingerprint() == fresh.fingerprint()
