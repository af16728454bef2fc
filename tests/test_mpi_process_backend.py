"""Tests specific to the process-backed SPMD runtime.

The equivalence matrix (test_mpi_runtime / the adios and chaos suites,
parametrized over ``spmd_backend``) proves both backends compute the same
thing; this file covers what only the process backend can
get wrong: real process lifecycle (no orphans after failures, including
hard ``os._exit`` deaths), shared-memory payload transfer and sweep,
start-method safety, backend selection plumbing, and the merge paths that
carry fault logs and trace data back across the process boundary.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time

import multiprocessing as mp

import numpy as np
import pytest

import repro
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults.injector import InjectedRankDeath
from repro.mpi import BACKENDS, MPIError, SPMDError, resolve_backend, run_spmd
from repro.mpi import process_backend
from repro.mpi import shm as shm_mod
from repro.trace import TraceSession

#: ``src/``, for the child interpreters some tests start.
_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _ring_allreduce(comm):
    """One send/recv ring pass plus an allreduce; returns plain floats."""
    a = np.arange(32, dtype=np.float64) + comm.rank
    comm.send(a, (comm.rank + 1) % comm.size, tag=3)
    r = comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
    return float(comm.allreduce(float(r.sum())))


def _rank_pid(comm):
    """Each rank's PID, for asserting real process-per-rank execution."""
    return comm.rank, os.getpid()


def _ring_and_allgather(comm):
    """A collective contribution and a send, each past the pipe's capacity
    (1.2 MB of values), so each rides a segment where one can be made."""
    a = np.arange(150_000, dtype=np.float64) * (comm.rank + 1)
    g = comm.allgather(a)
    comm.send(a * 2, (comm.rank + 1) % comm.size, tag=9)
    r = comm.recv(source=(comm.rank - 1) % comm.size, tag=9)
    return np.concatenate(g + [r])


#: Frames :func:`_pickled_flood` is cut into, each under the pipe's capacity.
_FLOOD_FRAMES = 8


def _pickled_flood(rank):
    """Over 4 MiB of arrays: mostly big enough to travel out of band, plus
    many small ones inline.  Sent whole, its body rides a segment; cut into
    :data:`_FLOOD_FRAMES` slices, each frame fits the pipe and together
    they overfill it."""
    rng = np.random.default_rng(rank)
    return [rng.random(7_000) for _ in range(80)] + [
        rng.random(10) for _ in range(3_000)
    ]


def _same_bytes(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


def _no_live_children():
    """True once no worker processes survive (reaped by the launcher)."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not mp.active_children():
            return True
        time.sleep(0.05)
    return False


class TestBackendSelection:
    def test_resolve_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPMD_BACKEND", raising=False)
        assert resolve_backend() == "thread"
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
        assert resolve_backend() == "process"
        # An explicit argument beats the environment.
        assert resolve_backend("thread") == "thread"
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            resolve_backend("greenlet")
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "fiber")
        with pytest.raises(ValueError, match="unknown SPMD backend"):
            run_spmd(1, lambda c: None)

    def test_backends_constant(self):
        assert BACKENDS == ("thread", "process")

    def test_process_backend_runs_distinct_processes(self):
        out = run_spmd(3, _rank_pid, backend="process")
        pids = {pid for _, pid in out}
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_thread_backend_shares_this_process(self):
        out = run_spmd(3, _rank_pid, backend="thread")
        assert {pid for _, pid in out} == {os.getpid()}

    def test_env_var_selects_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
        out = run_spmd(2, _rank_pid)
        assert os.getpid() not in {pid for _, pid in out}


class TestProcessLifecycle:
    def test_worker_exception_leaves_no_orphans(self):
        """The SPMDError abort cascade must terminate every rank process:
        a worker exception may not strand its peers as live children."""

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(SPMDError) as ei:
            run_spmd(4, prog, backend="process", timeout=30.0)
        assert set(ei.value.failures) == {1}
        assert ei.value.aborted_ranks == [0, 2, 3]
        assert _no_live_children(), "worker processes survived the abort"

    def test_hard_rank_death_leaves_no_orphans(self):
        """A rank dying without reporting (os._exit -- no exception, no
        result) must be detected, attributed with its exit code, and must
        release and reap every peer."""

        def prog(comm):
            if comm.rank == 2:
                os._exit(17)
            comm.barrier()

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            run_spmd(3, prog, backend="process", timeout=60.0)
        assert time.monotonic() - t0 < 30.0
        assert set(ei.value.failures) == {2}
        assert "exit code 17" in str(ei.value.failures[2])
        assert sorted(ei.value.aborted_ranks) == [0, 1]
        assert _no_live_children(), "worker processes survived a rank death"

    def test_failure_releases_blocked_peers_quickly(self):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("dead on arrival")
            comm.recv(source=0)

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            run_spmd(3, prog, backend="process", timeout=60.0)
        assert time.monotonic() - t0 < 30.0
        assert set(ei.value.failures) == {0}
        assert ei.value.aborted_ranks == [1, 2]

    @pytest.mark.parametrize("nranks", [2, 3])
    def test_ranks_flooding_each_other_cannot_deadlock(self, nranks):
        """Every rank writes more than a pipe holds to its peers at the same
        time, in frames that each fit the pipe, before it receives: no
        write may block, what a pipe cannot take waits in a backlog, and
        every byte must arrive exactly.  The same payload sent whole, in a
        ``sendrecv`` and an ``allgather``, rides segments."""

        def prog(comm):
            mine = _pickled_flood(comm.rank)
            assert sum(a.nbytes for a in mine) >= 4 << 20
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            for part in range(_FLOOD_FRAMES):
                comm.send(mine[part::_FLOOD_FRAMES], dest=right, tag=part)
            parts = [comm.recv(source=left, tag=part) for part in range(_FLOOD_FRAMES)]
            got = comm.sendrecv(mine, dest=right, source=left)
            rows = comm.allgather(mine)
            theirs = _pickled_flood(left)
            return (
                all(
                    _same_bytes(p, theirs[part::_FLOOD_FRAMES])
                    for part, p in enumerate(parts)
                )
                and _same_bytes(got, theirs)
                and all(_same_bytes(row, _pickled_flood(r)) for r, row in enumerate(rows))
            )

        assert run_spmd(nranks, prog, backend="process", timeout=60.0) == [
            True
        ] * nranks

    def test_rank_raising_with_unsent_bytes_ends_the_job(self, monkeypatch):
        """Rank 0 raises while over 1 MiB it sent is still unwritten, for a
        peer that never reads (and a segment it never consumes).  The job
        ends with rank 0's error once the abort's grace has run out, the
        peer is ended, and nothing is left behind."""
        monkeypatch.setattr(process_backend, "_EXIT_GRACE", 1.0)

        def prog(comm):
            if comm.rank == 1:
                time.sleep(60.0)  # never reads
                return
            comm.send(np.ones(200_000), dest=1)
            flood = _pickled_flood(0)
            for part in range(_FLOOD_FRAMES):
                comm.send(flood[part::_FLOOD_FRAMES], dest=1)
            owed = sum(len(b) for b in comm._ctx.runtime._outlets[1].backlog)
            assert owed > 1 << 20, owed
            raise RuntimeError("dies holding a backlog")

        t0 = time.monotonic()
        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, backend="process", timeout=60.0)
        assert time.monotonic() - t0 < process_backend._EXIT_GRACE + 4.0
        assert set(ei.value.failures) == {0}
        assert "dies holding a backlog" in str(ei.value.failures[0])
        assert ei.value.aborted_ranks == [1]
        assert _no_live_children(), "worker processes survived the abort"
        assert shm_mod.list_segments() == []

    @pytest.mark.parametrize("chunk", [5, 997, 4099, 65_000])
    def test_frames_arrive_whole_from_any_split(self, chunk):
        """A reader sees a pipe's bytes in whatever pieces the writer's
        partial writes left: frames cut at every chunk size -- inside a
        head, a pickle stream or an out-of-band buffer -- still come out
        whole and exact, in order, a last frame whose body is in a segment
        included."""
        envs = [
            ("pt", "w", 0, 1, None, {"a": 1}),
            ("coll", "w", 0, None, (0, np.arange(20_000.0))),
            ("pt", "w", 0, 2, None, [np.full(10, i) for i in range(1_000)]),
            ("pt", "w", 0, 3, None, [np.full(600, i) for i in range(3)]),
            ("pt", "w", 0, 4, None, [np.full(600, i) for i in range(2)]),
        ]
        prefix = f"{shm_mod.SHM_PREFIX}-split{chunk}-0-"
        wire = b""
        for segment, env in enumerate(envs):
            stream, raws = process_backend._pickle(env)
            if segment < 4:  # the body follows its head on the pipe
                pieces = [process_backend._head(stream, raws, 0), stream, *raws]
            else:  # only the head crosses the pipe
                shm_mod.write_segment(f"{prefix}{segment}", [stream, *raws])
                pieces = [process_backend._head(stream, raws, segment)]
            wire += b"".join(map(bytes, pieces))
        assert len(wire) > 2 * process_backend._STAGE_BYTES
        r, w = os.pipe()  # holds 64 KiB: each chunk is read before the next
        os.set_blocking(r, False)
        inlet, got = process_backend._Inlet(r, prefix), []
        try:
            for at in range(0, len(wire), chunk):
                os.write(w, wire[at : at + chunk])
                inlet.pull(got.append)
        finally:
            os.close(r)
            os.close(w)
        assert len(got) == len(envs)
        for sent, arrived in zip(envs, got):
            assert pickle.dumps(arrived, protocol=4) == pickle.dumps(sent, protocol=4)
        assert shm_mod.list_segments(f"split{chunk}") == []

    def test_rank_runs_no_helper_thread(self):
        """A rank moves its own bytes: after a send, a receive and an
        allreduce, the only thread in the rank process is its main thread."""

        def prog(comm):
            peer = 1 - comm.rank
            comm.send(np.arange(10), dest=peer)
            comm.recv(source=peer)
            comm.allreduce(np.ones(4))
            return [t is threading.main_thread() for t in threading.enumerate()]

        assert run_spmd(2, prog, backend="process") == [[True], [True]]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
    def test_job_pipes_are_all_closed(self):
        """Every pipe end a job opens in the launcher is closed when it
        returns: the launcher's open descriptors come back to where they
        were after 20 consecutive 3-rank jobs."""
        run_spmd(3, _ring_allreduce, backend="process")
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            run_spmd(3, _ring_allreduce, backend="process")
        assert len(os.listdir("/proc/self/fd")) == before

    def test_no_thread_leak_in_parent(self):
        """The launcher must not accumulate helper threads run over run."""
        run_spmd(2, _ring_allreduce, backend="process")
        before = threading.active_count()
        for _ in range(3):
            run_spmd(2, _ring_allreduce, backend="process")
        assert threading.active_count() <= before + 1


class _CountsItsPickles:
    """A collective row that counts, in the rank that owns it, how often
    it is pickled."""

    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return (_CountsItsPickles, ())


class TestSharedMemoryTransport:
    def test_collective_row_is_pickled_once_for_every_peer(self):
        """An inline row goes to its 3 peers as one frame, pickled once."""

        def prog(comm):
            comm.allgather(_CountsItsPickles())
            return _CountsItsPickles.pickled

        assert run_spmd(4, prog, backend="process") == [1, 1, 1, 1]

    def test_the_pipe_capacity_picks_the_transport(self):
        """One rule for sends and collectives: a frame whose body fits the
        pair pipe crosses it and counts only as ``::pickled``; a body past
        the pipe's capacity rides a segment and counts as ``::shm``.  The
        values arrive as on the thread backend, and no segment survives."""
        r, w = os.pipe()
        try:
            capacity = process_backend._capacity(w)
        finally:
            os.close(r)
            os.close(w)
        fits, past = capacity // 16, capacity // 4  # float64 values

        def prog(comm):
            got = []
            for n in (fits, past):
                a = np.arange(n, dtype=np.float64) + comm.rank
                comm.send(a, dest=1 - comm.rank)
                got.append(comm.recv(source=1 - comm.rank))
                got.extend(comm.allgather(a))
            return [x.tobytes() for x in got]

        sess = TraceSession("pipe-capacity")
        t = run_spmd(2, prog, backend="thread")
        p = run_spmd(2, prog, backend="process", trace=sess)
        assert p == t
        for rank in sess.ranks:
            rec = sess.recorder(rank)
            for stem in ("mpi::send::bytes", "mpi::allgather::bytes"):
                assert rec.total(f"{stem}::pickled") == fits * 8, (rank, stem)
                assert rec.total(f"{stem}::shm") == past * 8, (rank, stem)
        assert shm_mod.list_segments() == []

    def test_large_payloads_ride_shared_memory(self):
        """Payloads past the pipe's capacity go through segments, and the
        results still match the thread backend exactly."""
        sess = TraceSession("segments")
        t = run_spmd(3, _ring_and_allgather, backend="thread")
        p = run_spmd(3, _ring_and_allgather, backend="process", trace=sess)
        for a, b in zip(t, p):
            assert a.tobytes() == b.tobytes()
        for rank in sess.ranks:
            rec = sess.recorder(rank)
            assert rec.total("mpi::send::bytes::shm") == rec.total("mpi::send::bytes")
        assert shm_mod.list_segments() == []

    def test_inline_fallback_without_segment_dir(self, monkeypatch, tmp_path):
        """A host without the segment directory cannot create a segment:
        every frame past the pipe's capacity goes down the pipe whole, and
        results stay bit-identical to the thread backend."""
        monkeypatch.setattr(shm_mod, "SEGMENT_DIR", str(tmp_path / "absent"))
        sess = TraceSession("no-segment-dir")
        t = run_spmd(3, _ring_and_allgather, backend="thread")
        p = run_spmd(3, _ring_and_allgather, backend="process", trace=sess)
        for a, b in zip(t, p):
            assert a.tobytes() == b.tobytes()
        for rank in sess.ranks:
            rec = sess.recorder(rank)
            for stem in ("mpi::send::bytes", "mpi::allgather::bytes"):
                assert rec.total(f"{stem}::shm") == 0, (rank, stem)
                assert rec.total(f"{stem}::pickled") == rec.total(stem) > 0

    @pytest.mark.parametrize("damage", ["short", "missing"])
    def test_damaged_segment_raises_naming_it(self, damage):
        """A segment shorter than the regions it should fill, or gone, is a
        typed error that names it -- never a region of uninitialised bytes
        -- and the consumer still unlinks what is there."""
        name = f"{shm_mod.SHM_PREFIX}-damaged{damage}-0-1"
        shm_mod.write_segment(name, [b"head", np.arange(1024, dtype=np.float64)])
        path = os.path.join(shm_mod.SEGMENT_DIR, name)
        if damage == "short":
            os.truncate(path, 100)
        else:
            os.unlink(path)
        with pytest.raises(shm_mod.SegmentError, match=f"{name} is {damage}"):
            shm_mod.read_segment(name, [bytearray(4), np.empty(8192, dtype=np.uint8)])
        assert shm_mod.list_segments(f"damaged{damage}") == []

    @pytest.mark.parametrize("damage", ["short", "missing"])
    def test_lost_segment_fails_the_receiver_naming_it(self, monkeypatch, damage):
        """The receiving rank cannot read a segment: the receive or collective
        waiting for it fails at once, with the segment's name, instead of
        running out its timeout."""
        write = shm_mod.write_segment

        def damaged(name, pieces):
            write(name, pieces)
            path = os.path.join(shm_mod.SEGMENT_DIR, name)
            if damage == "short":
                os.truncate(path, os.path.getsize(path) // 2)
            else:
                os.unlink(path)

        monkeypatch.setattr(process_backend, "write_segment", damaged)

        def p2p(comm):
            if comm.rank == 0:
                comm.send(np.ones(200_000), dest=1)
            else:
                comm.recv(source=0)

        def collective(comm):
            comm.allgather(np.ones(200_000))
        for prog, ranks in ((p2p, {1}), (collective, {0, 1})):
            t0 = time.monotonic()
            with pytest.raises(SPMDError) as ei:
                run_spmd(2, prog, backend="process", timeout=60.0)
            assert time.monotonic() - t0 < 20.0, prog.__name__
            # Both allgather rows are damaged; a rank whose own row lost the
            # race with the launcher's abort is reported as collateral.
            assert ranks >= set(ei.value.failures), prog.__name__
            assert ranks == set(ei.value.failures) | set(ei.value.aborted_ranks)
            for exc in ei.value.failures.values():
                assert isinstance(exc, shm_mod.SegmentError), repr(exc)
                assert f"{shm_mod.SHM_PREFIX}-" in str(exc)
                assert f"is {damage}" in str(exc)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_job_starts_no_resource_tracker_and_leaves_no_segment(self):
        """Segments move by file syscalls, so a job registers nothing with
        ``multiprocessing.resource_tracker``: after the job the launcher
        has no child process left, and no segment survives.  A fresh
        interpreter, because a tracker outlives the job that started it."""
        script = textwrap.dedent(
            """
            import os
            from repro.mpi import run_spmd, shm
            from tests.test_mpi_process_backend import _ring_and_allgather

            run_spmd(2, _ring_and_allgather, backend="process")
            children = []
            for entry in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{entry}/stat") as fh:
                        stat = fh.read()
                except OSError:
                    continue
                if int(stat[stat.rfind(")") + 2 :].split()[1]) == os.getpid():
                    children.append(entry)
            print(children, shm.list_segments())
            """
        )
        root = os.path.dirname(_SRC)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, root]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[] []", out.stdout + out.stderr

    def test_send_buffer_snapshot_beats_feeder_thread(self):
        """Regression: mutating an array right after send() must not change
        what the receiver sees.  When the fabric pickled in a background
        feeder thread, a by-reference inline payload (e.g. the view
        np.ascontiguousarray returns for a contiguous slice) shipped the
        mutated bytes -- the bug that silently lost mass in the Nyx halo
        fold.  Now the sending thread pickles and writes before returning."""

        def prog(comm):
            field = np.zeros((4, 64), dtype=np.float64)
            field[0] = comm.rank + 1.0
            # ascontiguousarray of a contiguous slice is a *view*.
            comm.send(np.ascontiguousarray(field[0]), (comm.rank + 1) % comm.size)
            field[0] = 0.0
            got = comm.recv(source=(comm.rank - 1) % comm.size)
            return float(got.sum())

        for backend in BACKENDS:
            out = run_spmd(2, prog, backend=backend)
            assert out == [2.0 * 64, 1.0 * 64], backend

    def test_segments_swept_after_aborted_job(self):
        """A job that dies with envelopes in flight must not leak segments:
        the launcher sweeps the job's namespace after reaping workers.  Two
        shapes: unmatched sends, and collective contributions (one segment
        per peer) sent to a rank that raised before entering the
        collective."""

        def unmatched_sends(comm):
            big = np.ones(200_000, dtype=np.float64)
            # Unmatched sends: the receiver dies before consuming them.
            comm.send(big, dest=(comm.rank + 1) % comm.size)
            if comm.rank == 0:
                raise RuntimeError("die with payloads in flight")
            comm.barrier()

        def unentered_allreduce(comm):
            if comm.rank == 0:
                raise RuntimeError("die before the collective")
            comm.allreduce(np.ones(200_000, dtype=np.float64))  # 1.6 MB

        for prog in (unmatched_sends, unentered_allreduce):
            with pytest.raises(SPMDError) as ei:
                run_spmd(3, prog, backend="process", timeout=30.0)
            assert set(ei.value.failures) == {0}, prog.__name__
            deadline = time.monotonic() + 5.0
            while shm_mod.list_segments() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert shm_mod.list_segments() == [], prog.__name__


class TestCrossBoundaryMerging:
    def test_unpicklable_result_is_a_clear_diagnostic(self):
        """A program returning something that cannot cross the process
        boundary must fail with a message saying exactly that -- not a
        silent hang or a pickling stack trace."""

        def prog(comm):
            return threading.Lock()  # unpicklable

        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, backend="process", timeout=30.0)
        assert any(
            "unpicklable" in str(exc) for exc in ei.value.failures.values()
        )

    def test_injected_rank_death_crosses_process_boundary(self):
        """InjectedRankDeath has a custom __init__; it must still arrive in
        the launcher as the same type with rank/step intact."""

        def prog(comm):
            if comm.rank == 1:
                raise InjectedRankDeath(rank=1, step=4)
            comm.barrier()

        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, backend="process", timeout=30.0)
        exc = ei.value.failures[1]
        assert isinstance(exc, InjectedRankDeath)
        assert (exc.rank, exc.step) == (1, 4)

    def test_fault_log_merges_into_launcher_injector(self):
        """Per-rank injectors draw in their own processes; the launcher's
        injector must absorb their logs into the same deterministic
        schedule the shared-injector thread backend records."""
        rules = (FaultRule("mpi.send", "duplicate", 0.6),)

        def prog(comm):
            for i in range(5):
                comm.send(i, (comm.rank + 1) % comm.size, tag=i)
            return [comm.recv(source=(comm.rank - 1) % comm.size, tag=i) for i in range(5)]

        inj_t = FaultInjector(FaultPlan(seed=11, rules=rules))
        inj_p = FaultInjector(FaultPlan(seed=11, rules=rules))
        t = run_spmd(3, prog, faults=inj_t, timeout=30.0)
        p = run_spmd(3, prog, faults=inj_p, timeout=30.0, backend="process")
        assert t == p
        assert inj_p.injections > 0
        assert inj_t.schedule() == inj_p.schedule()
        assert inj_t.counts_by_kind() == inj_p.counts_by_kind()

    def test_trace_merges_into_launcher_session(self):
        """Spans and counters recorded inside rank processes must land in
        the launcher's TraceSession with the same taxonomy and totals the
        thread backend produces."""

        def prog(comm):
            rec = comm.trace_recorder
            with rec.span("work"):
                comm.allreduce(np.arange(8, dtype=np.float64))
            comm.send(b"x" * 32, (comm.rank + 1) % comm.size)
            comm.recv(source=(comm.rank - 1) % comm.size)
            return None

        sessions = {}
        for backend in BACKENDS:
            sess = TraceSession(backend)
            run_spmd(2, prog, trace=sess, backend=backend, timeout=30.0)
            sessions[backend] = sess
        t, p = sessions["thread"], sessions["process"]
        assert t.ranks == p.ranks == [0, 1]
        assert sorted({s.name for s in t.spans()}) == sorted(
            {s.name for s in p.spans()}
        )

        def transport_specific(name):
            # The process backend additionally splits every payload-bytes
            # counter by transport (shm segments vs. pickled envelopes); the
            # thread backend has no transport, so those names are
            # legitimately process-only.
            return name.endswith(("::shm", "::pickled"))

        for rank in p.ranks:
            rt, rp = t.recorder(rank), p.recorder(rank)
            assert rt.counter_names() == [
                n for n in rp.counter_names() if not transport_specific(n)
            ]
            for name in rt.counter_names():
                assert rt.total(name) == rp.total(name), name
            # The split must account for every byte of the totals it splits.
            for name in rp.counter_names():
                if name.endswith("::pickled"):
                    stem = name[: -len("::pickled")]
                    assert rp.total(name) + rp.total(f"{stem}::shm") == rp.total(
                        stem
                    ), stem
            assert [s.name for s in rp.spans] == [s.name for s in rt.spans]
            assert all(s.rank == rank for s in rp.spans)

    def test_live_connection_fails_fast_across_processes(self):
        """Shared-address-space layers must work across processes or fail
        with a clear diagnostic.  LiveConnection is the latter: each rank
        process would get a private copy and publishes would silently
        vanish, so any cross-process use raises instead."""
        from repro.core import LiveConnection

        conn = LiveConnection()

        def prog(comm):
            conn.drain_updates()

        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, backend="process", timeout=30.0)
        assert any(
            "cannot cross a process boundary" in str(e)
            for e in ei.value.failures.values()
        )
        # Same-process use (the thread backend) stays unrestricted.
        assert run_spmd(2, prog, backend="thread") == [None, None]

    def test_collective_trace_divergence_raises_on_every_rank(self):
        """The race detector's cross-check is backend-portable: divergent
        collectives raise CollectiveMismatchError on all ranks, not a
        timeout."""
        from repro.mpi import CollectiveMismatchError

        def prog(comm):
            if comm.rank == 0:
                comm.bcast(1, root=0)
            else:
                comm.barrier()

        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, backend="process", timeout=30.0)
        assert all(
            isinstance(exc, CollectiveMismatchError)
            for exc in ei.value.failures.values()
        )
        assert len(ei.value.failures) == 2

    def test_timeout_diagnostic_matches_thread_backend(self):
        """The deadlock watchdog must name arrived/missing ranks in the
        exact phrasing the thread backend uses."""

        def prog(comm):
            if comm.rank != 1:
                comm.barrier()

        messages = {}
        for backend in BACKENDS:
            with pytest.raises(SPMDError) as ei:
                run_spmd(3, prog, backend=backend, timeout=1.0)
            failing = [e for e in ei.value.failures.values() if isinstance(e, MPIError)]
            # How many blocked ranks raise their own timeout (vs being
            # released by the abort cascade first) is a race; the text of
            # the diagnostic is not.
            assert failing, f"no timeout diagnostic on the {backend} backend"
            messages[backend] = {str(e) for e in failing}
            assert len(messages[backend]) == 1
        assert messages["thread"] == messages["process"]
        (msg,) = messages["process"]
        assert "ranks [1] had not arrived" in msg
        assert "arrived: [0, 2]" in msg
