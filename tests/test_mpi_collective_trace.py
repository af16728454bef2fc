"""Tests for the SPMD collective-trace race detector."""

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    SUM,
    MAX,
    CollectiveMismatchError,
    MPIError,
    SPMDError,
    run_spmd,
)


def _spmd_error(excinfo) -> str:
    """Flattened per-rank traceback text of an SPMDError."""
    return str(excinfo.value)


class TestDivergenceDetection:
    def test_rank_conditional_collective_fails_fast(self):
        """The motivating bug: a collective inside a rank branch.  Rank 0's
        barrier pairs with rank 1's allgather -- immediate error, not a
        120 s deadlock timeout."""

        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            comm.allgather(comm.rank)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0)
        msg = _spmd_error(excinfo)
        assert "CollectiveMismatchError" in msg
        assert "divergent collective kinds" in msg
        assert "rank 0:" in msg and "rank 1:" in msg
        assert "barrier" in msg and "allgather" in msg

    def test_divergent_reduce_ops(self):
        def prog(comm):
            op = SUM if comm.rank == 0 else MAX
            comm.allreduce(1.0, op)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0)
        assert "divergent reduce ops" in _spmd_error(excinfo)

    def test_divergent_roots(self):
        def prog(comm):
            comm.bcast(comm.rank, root=comm.rank)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0)
        assert "divergent roots" in _spmd_error(excinfo)

    def test_mismatched_reduction_shapes_fail_with_both_payloads(self):
        def prog(comm):
            shape = (4,) if comm.rank == 0 else (5,)
            comm.allreduce(np.ones(shape), SUM)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0)
        msg = _spmd_error(excinfo)
        assert "incompatible reduction payloads" in msg
        # Both ranks' payload signatures appear in the divergence report.
        assert "(4,)" in msg and "(5,)" in msg

    def test_mismatched_reduction_dtypes_fail(self):
        def prog(comm):
            dtype = np.float64 if comm.rank == 0 else np.float32
            comm.reduce(np.ones(3, dtype=dtype), SUM, root=0)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0)
        msg = _spmd_error(excinfo)
        assert "incompatible reduction payloads" in msg
        assert "float64" in msg and "float32" in msg

    def test_gather_with_heterogeneous_payloads_is_fine(self):
        """Non-reducing collectives legitimately carry per-rank shapes."""

        def prog(comm):
            return comm.gather(np.ones(comm.rank + 1), root=0)

        out = run_spmd(3, prog, timeout=30.0)
        assert [len(v) for v in out[0]] == [1, 2, 3]

    def test_matched_collectives_pass(self):
        def prog(comm):
            comm.barrier()
            total = comm.allreduce(np.ones(4), SUM)
            return float(total.sum())

        assert run_spmd(4, prog, timeout=30.0) == [16.0] * 4


class TestTraceMode:
    def test_call_sites_reported_under_trace(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            comm.allgather(comm.rank)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0, trace_collectives=True)
        msg = _spmd_error(excinfo)
        # Under tracing the divergence report names this test file.
        assert "test_mpi_collective_trace.py" in msg

    def test_hint_points_at_trace_mode_when_disabled(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            comm.allgather(comm.rank)

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=30.0)
        assert "trace_collectives=True" in _spmd_error(excinfo)

    @staticmethod
    def _diverge_after_two(comm):
        comm.barrier()
        comm.allreduce(1.0, SUM)
        if comm.rank == 0:
            comm.barrier()
        comm.allgather(comm.rank)

    def test_history_recorded_under_trace(self):
        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, self._diverge_after_two, timeout=30.0, trace_collectives=True)
        history = _spmd_error(excinfo).split("recent collectives on rank 0:")[1]
        kinds = [line.split()[1].split("(")[0] for line in history.strip().splitlines()[:3]]
        assert kinds == ["barrier", "allreduce", "barrier"]

    def test_history_empty_when_not_tracing(self):
        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, self._diverge_after_two, timeout=30.0)
        assert "recent collectives" not in _spmd_error(excinfo)


class TestWildcardReceiveRaces:
    def test_any_source_race_flagged_under_trace(self):
        """Two sends race for one wildcard receive: flagged, not fatal."""

        # Rank 0 waits on a barrier that the senders only reach after
        # sending, guaranteeing both messages are in the mailbox when the
        # wildcard recv runs.
        def prog2(comm):
            if comm.rank != 0:
                comm.send(comm.rank * 10, dest=0, tag=5)
                comm.barrier()
                comm.barrier()
                return []
            comm.barrier()  # both sends have completed (eager/buffered)
            comm.recv(source=ANY_SOURCE, tag=5)
            comm.recv(source=ANY_SOURCE, tag=5)
            comm.barrier()
            return comm.race_events

        events = run_spmd(3, prog2, timeout=30.0, trace_collectives=True)[0]
        # The first wildcard recv raced against two matching sends.
        assert len(events) >= 1
        first = events[0]
        assert first["rank"] == 0
        assert first["source"] == ANY_SOURCE
        assert len(first["candidates"]) == 2

    def test_no_race_event_for_specific_source(self):
        def prog(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=5)
                comm.barrier()
                return []
            comm.barrier()
            comm.recv(source=1, tag=5)
            comm.recv(source=2, tag=5)
            return comm.race_events

        assert run_spmd(3, prog, timeout=30.0, trace_collectives=True)[0] == []

    def test_races_not_tracked_when_disabled(self):
        def prog(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=5)
                comm.barrier()
                return []
            comm.barrier()
            comm.recv(source=ANY_SOURCE, tag=5)
            comm.recv(source=ANY_SOURCE, tag=5)
            return comm.race_events

        assert run_spmd(3, prog, timeout=30.0)[0] == []


class TestDeadlockTimeoutDiagnostics:
    def test_missing_collective_times_out_with_history_hint(self):
        """A rank that never reaches the collective still times out (there
        is nothing to cross-check), but the error carries trace context."""

        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 exits without ever calling a collective

        with pytest.raises(SPMDError) as excinfo:
            run_spmd(2, prog, timeout=2.0)
        msg = _spmd_error(excinfo)
        assert "MPIError" in msg
