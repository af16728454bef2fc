"""Cross-transport equivalence for collectives and sends.

The process backend frames a collective contribution the way it frames a
send, and one rule picks the transport: a frame whose body (pickle stream
plus out-of-band buffers) fits the pair pipe crosses it -- small arrays in
band, arrays of 4 KiB or more as out-of-band buffers -- and a larger body
rides one consume-once shared-memory segment per peer; on the thread
backend there is no transport at all.  The contract is that the choice is
*invisible*: every collective returns bit-identical results on both
backends, including Fortran-order and non-contiguous inputs, and a body
past the pipe serializes zero bytes onto it (the
``mpi::<kind>::bytes::{shm,pickled}`` counter split proves it).

Each transport is reached by payload size: :data:`SIZES` spans the
in-band pickle, the out-of-band pipe and the segment.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import run_chaos
from repro.mpi import BACKENDS, run_spmd
from repro.mpi.ops import MAX, PROD, SUM
from repro.trace import TraceSession

#: float64 element counts whose frames take each transport: in band
#: (512 B), out of band on the pipe (64 KiB), and a segment (2 MiB, past
#: the pipe's 1 MiB).
SIZES = (64, 1 << 13, 1 << 18)


def _run(backend, prog, nranks=3, **kwargs):
    return run_spmd(nranks, prog, backend=backend, **kwargs)


def _equal_on_both_backends(prog):
    """Run ``prog`` on each backend; the results must be equal."""
    thread, process = (_run(backend, prog) for backend in BACKENDS)
    assert process == thread


def _make_array(rank, seed, n, dtype, layout):
    """Deterministic per-rank array in the requested memory layout.

    ``sliced`` builds a larger buffer and returns a strided view --
    the non-contiguous case the segment packer must copy correctly.
    """
    rng = np.random.default_rng(seed * 1000 + rank)
    if np.issubdtype(np.dtype(dtype), np.integer):
        base = rng.integers(1, 5, size=2 * n).astype(dtype)
    else:
        base = rng.random(2 * n).astype(dtype)
    if layout == "sliced":
        return base[::2]
    if layout == "fortran":
        return np.asfortranarray(base[:n].reshape(8, -1))
    return base[:n]


def _fingerprint(tree):
    """Recursive bytes-level fingerprint of a result tree."""
    if isinstance(tree, np.ndarray):
        return ("nd", tree.shape, tree.dtype.str, tree.tobytes())
    if isinstance(tree, (list, tuple)):
        return (type(tree).__name__, tuple(_fingerprint(v) for v in tree))
    if isinstance(tree, dict):
        return ("dict", tuple(sorted((k, _fingerprint(v)) for k, v in tree.items())))
    return tree


class TestTransportEquivalence:
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from(SIZES),
        dtype=st.sampled_from(["f8", "i8", "f4"]),
        layout=st.sampled_from(["c", "fortran", "sliced"]),
        op=st.sampled_from([SUM, MAX, PROD]),
    )
    @settings(max_examples=8, deadline=None)
    def test_allreduce_and_gather_bit_identical(self, seed, n, dtype, layout, op):
        def prog(comm):
            a = _make_array(comm.rank, seed, n, dtype, layout)
            red = comm.allreduce(a, op=op)
            gat = comm.gather(a, root=0)
            return _fingerprint((red, gat))

        _equal_on_both_backends(prog)

    @pytest.mark.parametrize("layout", ["c", "fortran", "sliced"])
    def test_every_collective_bit_identical(self, layout):
        """All collectives, at every size in :data:`SIZES`, on both
        backends."""

        def prog(comm, n):
            a = _make_array(comm.rank, 7, n, "f8", layout)
            out = {
                "allreduce": comm.allreduce(a),
                "reduce": comm.reduce(a, op=MAX, root=1),
                "allgather": comm.allgather(a),
                "gather": comm.gather(a, root=0),
                "bcast": comm.bcast(a if comm.rank == 2 else None, root=2),
                "scatter": comm.scatter(
                    [a * r for r in range(comm.size)] if comm.rank == 0 else None,
                    root=0,
                ),
                "alltoall": comm.alltoall([a + r for r in range(comm.size)]),
                "exscan": comm.exscan(a),
            }
            return {k: _fingerprint(v) for k, v in out.items()}

        for n in SIZES:
            _equal_on_both_backends(lambda comm: prog(comm, n))

    def test_mixed_payload_trees_bit_identical(self):
        """Tuples mixing large arrays, small arrays, and scalars: the
        whole tree is one frame, which rides a segment when its body is
        past the pipe, whatever its leaves weigh."""

        def prog(comm, n):
            big = np.full(n, float(comm.rank + 1))
            small = np.arange(4, dtype=np.int32) + comm.rank
            val = (big, {"rank": comm.rank, "small": small}, comm.rank * 0.5)
            return _fingerprint(comm.allgather(val))

        for n in SIZES:
            _equal_on_both_backends(lambda comm: prog(comm, n))


class TestZeroSerialization:
    def test_large_collectives_pickle_zero_array_bytes(self):
        """No byte of a contribution past the pipe's capacity crosses a
        pipe.  The per-kind byte counters are split by transport; the
        pickled share must be zero and the shm share must carry the full
        payload, counted once per contribution however many peers got a
        segment.  ``alltoall``'s list is one frame like any other."""
        n = SIZES[-1]
        kinds = ("allreduce", "allgather", "gather", "bcast", "alltoall")

        def prog(comm):
            a = np.full(n, float(comm.rank + 1))
            comm.allreduce(a)
            comm.allgather(a)
            comm.gather(a, root=0)
            comm.bcast(a if comm.rank == 0 else None, root=0)
            comm.alltoall([a] * comm.size)

        sess = TraceSession("zero-serialization")
        _run("process", prog, trace=sess)
        for rank in sess.ranks:
            rec = sess.recorder(rank)
            for kind in kinds:
                stem = f"mpi::{kind}::bytes"
                total = rec.total(stem)
                if kind == "bcast" and rank != 0:
                    # Non-root ranks contribute None to bcast: no payload.
                    assert total == 0, (rank, kind)
                else:
                    assert total >= n * 8, (rank, kind)
                shm = rec.total(f"{stem}::shm")
                pickled = rec.total(f"{stem}::pickled")
                assert shm + pickled == total, (rank, kind)
                assert pickled == 0, (rank, kind)

    def test_small_collectives_ride_pickled_envelopes(self):
        """A body that fits the pipe keeps segments out of the way: all
        bytes pickled, none in a segment."""

        def prog(comm):
            comm.allreduce(np.arange(16, dtype=np.float64) + comm.rank)

        sess = TraceSession("small-pickled")
        _run("process", prog, trace=sess)
        for rank in sess.ranks:
            rec = sess.recorder(rank)
            total = rec.total("mpi::allreduce::bytes")
            assert total == 16 * 8
            assert rec.total("mpi::allreduce::bytes::shm") == 0
            assert rec.total("mpi::allreduce::bytes::pickled") == total


class TestRaggedPayloads:
    """Variable-length (gatherv-style) contributions: the particle
    migration traffic shape.  Per-rank array lengths differ, some ranks
    legitimately contribute *zero* elements, and the empty contributions
    must neither deadlock a transport nor allocate 0-byte shm segments."""

    @staticmethod
    def _ragged(rank, n_factor=1000):
        """rank 0 -> empty, rank r -> r * n_factor elements."""
        n = rank * n_factor
        return (
            np.arange(n, dtype=np.int64) + rank,
            np.full((n, 3), float(rank)),
        )

    def test_ragged_allgather_bit_identical(self):
        def prog(comm):
            return _fingerprint(comm.allgather(self._ragged(comm.rank)))

        _equal_on_both_backends(prog)

    def test_ragged_gather_with_empty_root_contribution(self):
        def prog(comm):
            return _fingerprint(comm.gather(self._ragged(comm.rank), root=0))

        _equal_on_both_backends(prog)

    def test_migration_shaped_exchange_bit_identical(self):
        """Point-to-point all-pairs exchange of ragged outboxes, exactly
        the nbody migration pattern: send-all-then-receive-all, with rank
        0 sending empty arrays to everyone."""

        def prog(comm):
            for dest in range(comm.size):
                if dest != comm.rank:
                    n = comm.rank * 500  # rank 0: empty payloads
                    comm.send(
                        (np.arange(n, dtype=np.int64),
                         np.full((n, 3), float(dest))),
                        dest,
                        tag=9,
                    )
            inbox = []
            for src in range(comm.size):
                if src != comm.rank:
                    inbox.append(comm.recv(src, tag=9))
            return _fingerprint(inbox)

        _equal_on_both_backends(prog)

    def test_empty_arrays_never_allocate_segments(self):
        """A zero-length contribution's frame is far under the pipe: it
        stays on the pickle path, and no 0-byte segment is created."""

        def prog(comm):
            empty = (np.empty(0, dtype=np.int64), np.empty((0, 3)))
            comm.allgather(empty)
            for dest in range(comm.size):
                if dest != comm.rank:
                    comm.send(empty, dest, tag=5)
            for src in range(comm.size):
                if src != comm.rank:
                    comm.recv(src, tag=5)

        sess = TraceSession("ragged-empty")
        _run("process", prog, trace=sess)
        for rank in sess.ranks:
            rec = sess.recorder(rank)
            for kind in ("allgather", "send"):
                assert rec.total(f"mpi::{kind}::bytes::shm") == 0, (rank, kind)

    def test_nbody_migration_state_identical_across_transports(self):
        """End to end: the particle app's migrated global state is
        bit-identical whether migration payloads ride pickled frames or
        thread-shared memory."""
        from repro.apps.nbody import NBodySimulation
        from repro.data import ParticleSet

        def prog(comm):
            sim = NBodySimulation(
                comm, grid=8, n_particles=200, seed=3, velocity_scale=0.25
            )
            sim.run(4)
            parts = comm.allgather(
                (sim.particles.ids, sim.particles.positions,
                 sim.particles.velocities, sim.particles.masses)
            )
            world = ParticleSet.concatenate([ParticleSet(*p) for p in parts])
            return world.state_tuple(), sim.migrated_out

        ref, got = (_run(backend, prog) for backend in BACKENDS)
        assert sum(r[1] for r in ref) > 0  # migration actually exercised
        assert [r[0] for r in got] == [r[0] for r in ref]


class TestChaosWithShmCollectives:
    def test_chaos_artifacts_invariant_to_transport(self, tmp_path):
        """Regression gate for the fault-injection draw order: the chaos
        pipeline's artifacts must be byte-identical whether its traffic
        rides the process fabric or thread-shared memory."""
        dirs = {}
        for backend in BACKENDS:
            dirs[backend] = str(tmp_path / backend)
            run_chaos(seed=42, ranks=3, steps=6, out_dir=dirs[backend], backend=backend)

        d1, d2 = (dirs[backend] for backend in BACKENDS)
        names = []
        for root, _, files in os.walk(d1):
            rel = os.path.relpath(root, d1)
            names.extend(os.path.join(rel, f) for f in files)
        assert names
        for name in sorted(names):
            with open(os.path.join(d1, name), "rb") as f1, open(
                os.path.join(d2, name), "rb"
            ) as f2:
                assert f1.read() == f2.read(), name
