"""Tests for the simulated MPI runtime, run on both execution backends.

Everything downstream (histogram reductions, autocorrelation top-k merges,
image compositing, ADIOS staging) rests on these semantics.  The module is
parametrized over ``backend=["thread", "process"]`` (see ``spmd_backend``
in conftest): every assertion here -- results, failure attribution, abort
latency, timeout diagnostics -- must hold identically on both.
"""

import functools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mpi as mpi
from repro.faults import SITE_MPI_SEND, FaultEvent, FaultPlan
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIError, SPMDError, launcher, run_spmd


@pytest.fixture(scope="module", autouse=True)
def _backend(spmd_backend):
    """Run this whole module under each execution backend."""
    return spmd_backend


def test_rank_and_size():
    def prog(comm):
        return (comm.rank, comm.size)

    out = run_spmd(4, prog)
    assert out == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_single_rank_world():
    assert run_spmd(1, lambda c: c.allreduce(5)) == [5]


def test_invalid_nranks():
    with pytest.raises(ValueError):
        run_spmd(0, lambda c: None)


#: Per collective kind: how two ranks call it with their buffer, and where
#: rank 1 finds rank 0's contribution in what the call returns.  Rank 1
#: contributes zeros, so its sums equal rank 0's row.
_REUSE_CALLS = {
    "allgather": (lambda comm, buf: comm.allgather(buf), lambda out: out[0]),
    "gather": (lambda comm, buf: comm.gather(buf, root=1), lambda out: out[0]),
    "bcast": (lambda comm, buf: comm.bcast(buf, root=0), lambda out: out),
    "scatter": (
        lambda comm, buf: comm.scatter([buf, buf] if comm.rank == 0 else None),
        lambda out: out,
    ),
    "alltoall": (lambda comm, buf: comm.alltoall([buf, buf]), lambda out: out[0]),
    "reduce": (lambda comm, buf: comm.reduce(buf, root=1), lambda out: out),
    "allreduce": (lambda comm, buf: comm.allreduce(buf), lambda out: out),
    "exscan": (lambda comm, buf: comm.exscan(buf), lambda out: out),
}


@functools.cache
def _ndarray_kinds():
    """Bare arrays that a byte copy alone would not carry: object
    references, a structured dtype, a mask (also over a non-native byte
    order), a non-C order, a non-native byte order and a datetime unit.
    Each kind comes in three sizes: past the 4 KiB out-of-band minimum,
    as ``<kind>_small`` below it, and as ``<kind>_large`` past the pair
    pipe's 1 MiB capacity, so that its frame rides a segment.  Built once:
    a test that changes an array changes a copy."""
    kinds = {}
    for suffix, n, side, masked in (
        ("", 1 << 14, 128, 0.2), ("_small", 3, 2, 0.6), ("_large", 1 << 18, 512, 0.2),
    ):
        rng = np.random.default_rng(0)
        structured = np.zeros(n, dtype=[("a", "<f8"), ("b", "<i4")])
        structured["a"] = rng.random(n)
        structured["b"] = np.arange(n)
        kinds.update({
            f"object{suffix}": np.array([f"cell{i}" for i in range(n)], dtype=object),
            f"structured{suffix}": structured,
            f"masked{suffix}": np.ma.masked_array(rng.random(n), mask=rng.random(n) < masked),
            f"masked_big_endian{suffix}": np.ma.masked_array(
                rng.random(n).astype(">f8"), mask=rng.random(n) < masked
            ),
            f"fortran{suffix}": np.asfortranarray(rng.random((side, side))),
            f"big_endian{suffix}": rng.random(n).astype(">f8"),
            f"datetime{suffix}": np.arange(n).astype("datetime64[s]"),
        })
    return kinds


def _arrived_as_sent(got, sent):
    """Which of type, dtype and shape, values and mask ``got`` kept."""
    return {
        "type": type(got) is type(sent),
        "dtype": got.dtype == sent.dtype and got.shape == sent.shape,
        "values": got.tolist() == sent.tolist()
        if sent.dtype.hasobject
        else got.tobytes() == sent.tobytes(),
        "mask": np.array_equal(np.ma.getmaskarray(got), np.ma.getmaskarray(sent)),
    }


class TestPointToPoint:
    def test_send_recv_scalar(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        out = run_spmd(2, prog)
        assert out[1] == {"a": 7}

    def test_send_recv_numpy_is_copied(self):
        """Receiver must not alias the sender's buffer (separate address
        spaces).  Both arrays come back as rank results: on the thread
        backend they are the very objects the ranks held, so the aliasing
        assertions are exact; on the process backend separation is physical
        and the same assertions hold trivially."""

        def prog(comm):
            if comm.rank == 0:
                a = np.arange(10.0)
                comm.send(a, dest=1)
                return a
            return comm.recv(source=0)

        sent, got = run_spmd(2, prog)
        assert np.array_equal(sent, got)
        assert got.base is None
        assert not np.shares_memory(sent, got)

    @pytest.mark.parametrize("kind", sorted(_ndarray_kinds()))
    def test_every_ndarray_kind_arrives_as_sent(self, kind):
        """Type, dtype, shape, values and mask of a bare array survive a
        send, whether it rides a segment or the pipe."""
        sent = _ndarray_kinds()[kind]

        def prog(comm):
            if comm.rank == 0:
                comm.send(sent, dest=1)
                return None
            got = comm.recv(source=0)
            # Compared on the receiving rank: a rank's result crosses back
            # to the launcher by another path.
            return {**_arrived_as_sent(got, sent), "writeable": got.flags.writeable}

        checks = run_spmd(2, prog, timeout=30.0)[1]
        assert checks == dict.fromkeys(checks, True)

    @pytest.mark.parametrize("kind", sorted(_ndarray_kinds()))
    @pytest.mark.parametrize("writeable", [True, False])
    def test_every_ndarray_kind_returns_as_returned(self, kind, writeable):
        """A rank's returned array reaches the launcher as the rank held
        it, read-only flag included: on threads it is the object itself."""

        def prog(comm):
            out = _ndarray_kinds()[kind].copy()
            out.flags.writeable = writeable
            return out

        got = run_spmd(2, prog, timeout=30.0)[1]
        sent = _ndarray_kinds()[kind]
        checks = {**_arrived_as_sent(got, sent), "writeable": got.flags.writeable == writeable}
        assert checks == dict.fromkeys(checks, True)

    @pytest.mark.parametrize("fault", ["none", "delay", "drop", "duplicate"])
    def test_send_buffer_reusable_after_send(self, fault):
        """``send`` captures the payload before it returns, on every path:
        a sender that reuses its buffer at once must not change what
        arrives, even when the ``mpi.send`` site delays, drops or
        duplicates the message (a later delivery of a live reference
        would carry the overwritten bytes)."""
        plan = None
        if fault != "none":
            plan = FaultPlan(
                seed=0, events=(FaultEvent(SITE_MPI_SEND, fault, rank=0, occurrence=0),)
            )

        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(16)
                comm.send(buf, dest=1)
                buf[:] = -1
                return None
            return comm.recv(source=0)

        got = run_spmd(2, prog, faults=plan, timeout=10.0)[1]
        assert np.array_equal(got, np.arange(16))

    @pytest.mark.parametrize("kind", sorted(_REUSE_CALLS))
    def test_collective_buffer_reusable_after_return(self, kind):
        """A collective captures every contribution before it returns: rank
        0 arrives last, so it is the first to leave, and clobbers its buffer
        at once -- rank 1 must still receive the bytes rank 0 contributed,
        in every iteration (a peer reading a live reference after its owner
        moved on would see the overwrite)."""
        call, pick = _REUSE_CALLS[kind]
        iterations = 200

        def prog(comm):
            wrong = 0
            for i in range(iterations):
                if comm.rank == 0:
                    buf = np.arange(64) + i
                    time.sleep(0.0002)
                    call(comm, buf)
                    buf[:] = -1
                else:
                    got = pick(call(comm, np.zeros(64, dtype=int)))
                    wrong += not np.array_equal(got, np.arange(64) + i)
            return wrong

        assert run_spmd(2, prog, timeout=30.0)[1] == 0

    def test_tag_matching_out_of_order(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        out = run_spmd(2, prog)
        assert out[1] == ("first", "second")

    def test_any_source_any_tag(self):
        def prog(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank)
                return None
            got = sorted(comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(comm.size - 1))
            return got

        out = run_spmd(4, prog)
        assert out[0] == [1, 2, 3]

    def test_recv_with_status(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=42)
                return None
            return comm.recv_with_status(ANY_SOURCE, ANY_TAG)

        out = run_spmd(2, prog)
        assert out[1] == ("x", 0, 42)

    def test_sendrecv_ring(self):
        """A Python object and three ndarray planes (on the process backend
        one pickled in band, one out of band on the pipe, one past the
        pipe's capacity in a segment) around the ring -- the halo-exchange
        shape AVF-LESLIE and binary swap rely on."""

        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            planes = [
                comm.sendrecv(
                    np.full(shape, float(comm.rank)), dest=right, source=left
                )
                for shape in ((4, 4), (128, 128), (512, 512))
            ]
            return comm.sendrecv(comm.rank, dest=right, source=left), planes

        out = run_spmd(4, prog)
        assert [o[0] for o in out] == [3, 0, 1, 2]
        for rank, (left, planes) in enumerate(out):
            assert [p.shape for p in planes] == [(4, 4), (128, 128), (512, 512)], rank
            assert all(np.all(p == left) for p in planes), rank

    @pytest.mark.parametrize("fault", ["none", "delay", "duplicate"])
    def test_send_to_self(self, fault):
        """A rank sends to itself and ``sendrecv``s with itself: a small
        array, one big enough to leave the pickle stream out of band on the
        process backend, and a Python object.  The process fabric has no pipe from
        a rank to itself, so this is its own path, faulted sends included;
        the sent buffer is clobbered at once and must not show through."""
        plan = None
        if fault != "none":
            plan = FaultPlan(
                seed=0,
                events=tuple(
                    FaultEvent(SITE_MPI_SEND, fault, rank=r, occurrence=0)
                    for r in range(2)
                ),
            )

        def prog(comm):
            me = comm.rank
            small = np.arange(8) + me
            comm.send(small, dest=me, tag=3)
            small[:] = -1
            got = comm.recv(source=me, tag=3)
            big = np.full(20_000, float(me + 1))
            echoed = comm.sendrecv(big, dest=me, source=me)
            obj = comm.sendrecv({"rank": me}, dest=me, source=me, recvtag=0)
            return got.tolist(), float(echoed.sum()), echoed.shape, obj

        out = run_spmd(2, prog, faults=plan, timeout=10.0)
        for rank, (got, total, shape, obj) in enumerate(out):
            assert got == list(range(rank, rank + 8)), rank
            assert (total, shape) == (20_000.0 * (rank + 1), (20_000,)), rank
            assert obj == {"rank": rank}, rank

    def test_two_threads_of_a_rank_communicate_at_once(self):
        """Rank 0's main thread blocks in a receive while a second thread
        sends more than a pipe holds and then receives too: on the process
        backend one of them moves the rank's bytes for both, and the other's
        unwritten bytes must still get out."""

        def prog(comm):
            big = [np.full(7_000, float(i)) for i in range(40)]  # 2.2 MB
            if comm.rank == 1:
                got = comm.recv(source=0, tag=5)
                comm.send(sum(float(a.sum()) for a in got), dest=0, tag=6)
                comm.send("done", dest=0, tag=7)
                return None
            out = {}

            def second():
                time.sleep(0.05)  # the main thread is waiting by now
                comm.send(big, dest=1, tag=5)
                out["echo"] = comm.recv(source=1, tag=6)

            t = threading.Thread(target=second)
            t.start()
            out["main"] = comm.recv(source=1, tag=7)
            t.join(10.0)
            return out

        out = run_spmd(2, prog, timeout=10.0)[0]
        assert out == {"main": "done", "echo": 7_000.0 * sum(range(40))}

    def test_send_out_of_range_dest(self):
        def prog(comm):
            comm.send(1, dest=99)

        with pytest.raises(SPMDError):
            run_spmd(2, prog)

    def test_recv_timeout_is_deadlock_error(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # never sent

        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, timeout=0.2)
        assert any(isinstance(e, MPIError) for e in ei.value.failures.values())


class TestCollectives:
    def test_barrier_all_pass(self):
        def prog(comm):
            comm.barrier()
            return True

        assert run_spmd(8, prog) == [True] * 8

    def test_bcast_scalar_and_array(self):
        def prog(comm):
            v = comm.bcast(42 if comm.rank == 0 else None)
            a = comm.bcast(np.arange(5) if comm.rank == 0 else None)
            return v, a.sum()

        out = run_spmd(4, prog)
        assert all(o == (42, 10) for o in out)

    def test_bcast_nonzero_root(self):
        def prog(comm):
            return comm.bcast("hi" if comm.rank == 2 else None, root=2)

        assert run_spmd(4, prog) == ["hi"] * 4

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank**2, root=1)

        out = run_spmd(4, prog)
        assert out[0] is None and out[2] is None and out[3] is None
        assert out[1] == [0, 1, 4, 9]

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(comm.rank + 1)

        assert run_spmd(3, prog) == [[1, 2, 3]] * 3

    def test_scatter(self):
        def prog(comm):
            data = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(data)

        assert run_spmd(4, prog) == [0, 10, 20, 30]

    def test_scatter_wrong_length_raises(self):
        def prog(comm):
            data = [1] if comm.rank == 0 else None
            return comm.scatter(data)

        with pytest.raises(SPMDError):
            run_spmd(2, prog)

    def test_reduce_sum_scalar(self):
        def prog(comm):
            return comm.reduce(comm.rank + 1, op=mpi.SUM, root=0)

        out = run_spmd(4, prog)
        assert out[0] == 10
        assert out[1:] == [None, None, None]

    def test_allreduce_ops(self):
        def prog(comm):
            v = float(comm.rank + 1)
            return (
                comm.allreduce(v, mpi.SUM),
                comm.allreduce(v, mpi.MIN),
                comm.allreduce(v, mpi.MAX),
                comm.allreduce(v, mpi.PROD),
            )

        out = run_spmd(4, prog)
        assert out == [(10.0, 1.0, 4.0, 24.0)] * 4

    def test_allreduce_numpy_elementwise(self):
        def prog(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=np.int64), mpi.SUM)

        out = run_spmd(4, prog)
        for a in out:
            assert np.array_equal(a, np.full(3, 6))

    def test_alltoall(self):
        def prog(comm):
            return comm.alltoall([comm.rank * 10 + d for d in range(comm.size)])

        out = run_spmd(3, prog)
        assert out[0] == [0, 10, 20]
        assert out[1] == [1, 11, 21]
        assert out[2] == [2, 12, 22]

    def test_alltoall_wrong_length(self):
        with pytest.raises(SPMDError):
            run_spmd(3, lambda c: c.alltoall([1, 2]))

    def test_exscan(self):
        def prog(comm):
            return comm.exscan(comm.rank + 1, mpi.SUM)

        assert run_spmd(4, prog) == [None, 1, 3, 6]

    def test_collectives_reused_many_times(self):
        """Back-to-back collectives interleaved with splits, on more ranks
        than cores and with a short thread switch interval: a rank may
        leave a collective while its peers still collect, so every row
        must still pair with the same call on every rank."""

        def prog(comm):
            total = 0
            for i in range(200):
                total += comm.allreduce(i + comm.rank)
                if i % 50 == 0:
                    sub = comm.split(color=comm.rank % 2)
                    assert sub.allgather(i) == [i] * sub.size
            return total

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            out = run_spmd(4, prog, timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert out == [sum(4 * i + 6 for i in range(200))] * 4

    def test_reduction_determinism(self):
        """Rank-ordered folding => bitwise identical results on every rank."""

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.random(16), mpi.SUM)

        a = run_spmd(4, prog)
        b = run_spmd(4, prog)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert np.array_equal(a[0], a[3])

class TestSplit:
    def test_split_even_odd(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            return (sub.rank, sub.size, sub.allreduce(comm.rank))

        out = run_spmd(4, prog)
        # evens: world 0,2 -> sum 2 ; odds: world 1,3 -> sum 4
        assert out[0] == (0, 2, 2)
        assert out[2] == (1, 2, 2)
        assert out[1] == (0, 2, 4)
        assert out[3] == (1, 2, 4)

    def test_split_undefined_color(self):
        def prog(comm):
            sub = comm.split(color=0 if comm.rank == 0 else -1)
            return sub if sub is None else sub.size

        out = run_spmd(3, prog)
        assert out == [1, None, None]

    def test_split_key_reorders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        out = run_spmd(3, prog)
        assert out == [2, 1, 0]

    def test_sequential_splits(self):
        def prog(comm):
            a = comm.split(color=comm.rank % 2)
            b = comm.split(color=comm.rank // 2)
            return (a.size, b.size)

        out = run_spmd(4, prog)
        assert out == [(2, 2)] * 4

    def test_subcommunicator_isolated_from_parent(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            if sub.rank == 0:
                sub.send(comm.rank, dest=1 % sub.size) if sub.size > 1 else None
            got = sub.recv(source=0) if sub.rank == 1 else None
            comm.barrier()
            return got

        out = run_spmd(4, prog)
        assert out[2] == 0 and out[3] == 1

class TestFailurePropagation:
    def test_exception_reported_with_rank(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom on 2")
            comm.barrier()

        with pytest.raises(SPMDError) as ei:
            run_spmd(4, prog, timeout=5.0)
        assert 2 in ei.value.failures
        assert "boom on 2" in str(ei.value)

    def test_mismatched_collectives_deadlock_detected(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 never calls barrier

        with pytest.raises(SPMDError):
            run_spmd(2, prog, timeout=0.3)

    def test_failure_unblocks_peers_without_waiting_for_timeout(self):
        """One rank raising must abort its peers' blocking receives
        immediately -- not strand them until the watchdog timeout."""

        def prog(comm):
            if comm.rank == 0:
                raise ValueError("dead on arrival")
            comm.recv(source=0)  # would block for the full timeout

        t0 = time.perf_counter()
        with pytest.raises(SPMDError) as ei:
            run_spmd(3, prog, timeout=60.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"peers hung {elapsed:.1f}s behind a dead rank"
        # The real error is attributed to rank 0; the aborted peers are
        # reported as collateral, not as failures of their own.
        assert set(ei.value.failures) == {0}
        assert ei.value.aborted_ranks == [1, 2]
        assert "dead on arrival" in str(ei.value)
        assert "ranks [1, 2] aborted after the failure" in str(ei.value)

    def test_failure_unblocks_peers_stuck_in_collective(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("no barrier for me")
            comm.barrier()

        t0 = time.perf_counter()
        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, timeout=60.0)
        assert time.perf_counter() - t0 < 10.0
        assert set(ei.value.failures) == {1}
        assert ei.value.aborted_ranks == [0]

    def test_rank_that_never_returns_is_named(self, spmd_backend):
        """The thread launcher's join is bounded: a rank still running the
        watchdog timeout plus a grace period after a peer finished fails the
        job by thread name instead of hanging the launcher."""
        if spmd_backend != "thread":
            pytest.skip("the bounded join is the thread launcher's")
        release = threading.Event()

        def prog(comm):
            if comm.rank == 1:
                release.wait(60.0)  # stuck outside the communicator

        t0 = time.perf_counter()
        try:
            with pytest.raises(SPMDError) as ei:
                run_spmd(3, prog, timeout=0.5)
        finally:
            release.set()
        assert time.perf_counter() - t0 < 0.5 + launcher._JOIN_GRACE + 5.0
        assert set(ei.value.failures) == {1}
        assert "rank 1 (thread spmd-rank-1) still running" in str(ei.value)

    def test_rank_abort_exported(self):
        assert issubclass(mpi.RankAbort, MPIError)


class TestConfigurableTimeouts:
    def test_collective_timeout_names_arrived_and_missing_ranks(self):
        """The timeout diagnostic must say which ranks reached the
        collective and which did not -- the per-rank attribution a 120s
        opaque hang never gave."""

        def prog(comm):
            comm.timeout = 0.3
            if comm.rank != 1:
                comm.barrier()

        with pytest.raises(SPMDError) as ei:
            run_spmd(3, prog, timeout=5.0)
        msgs = [str(e) for e in ei.value.failures.values()]
        assert any("ranks [1] had not arrived" in m for m in msgs)
        assert any("arrived: [0, 2]" in m for m in msgs)

    def test_communicator_timeout_validated(self):
        def prog(comm):
            assert comm.timeout > 0
            comm.timeout = 1.5
            assert comm.timeout == 1.5
            with pytest.raises(ValueError):
                comm.timeout = 0

        run_spmd(1, prog)

    def test_recv_timeout_override(self):
        """A per-call timeout shorter than the communicator's governs, and
        the communicator stays usable after the timeout."""

        def prog(comm):
            if comm.rank == 0:
                with pytest.raises(MPIError):
                    comm.recv(source=1, timeout=0.2)
            comm.barrier()
            if comm.rank == 1:
                comm.send("late", dest=0)
                return None
            return comm.recv(source=1)

        out = run_spmd(2, prog, timeout=10.0)
        assert out[0] == "late"

    def test_split_inherits_timeout(self):
        def prog(comm):
            comm.timeout = 2.5
            return comm.split(color=0).timeout

        assert run_spmd(2, prog) == [2.5, 2.5]


class TestReduceOps:
    def test_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            mpi.SUM.reduce([])

    def test_fold_order(self):
        assert mpi.SUM.reduce([1, 2, 3]) == 6
        assert mpi.MIN.reduce([3, 1, 2]) == 1
        assert mpi.MAX.reduce([3, 1, 2]) == 3
        assert mpi.PROD.reduce([2, 3, 4]) == 24

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.integers(2, 6))
    def test_allreduce_matches_local_fold(self, values, nranks):
        """allreduce(v_r) == fold of per-rank values, for any value set."""
        vals = (values * nranks)[:nranks]

        def prog(comm):
            return comm.allreduce(vals[comm.rank], mpi.SUM)

        expected = mpi.SUM.reduce(vals)
        out = run_spmd(nranks, prog)
        assert all(o == pytest.approx(expected) for o in out)
