"""Integration tests: fault injection wired through MPI, storage and the
miniapp -- plus the recovery paths that absorb each fault."""

import numpy as np
import pytest

from repro.faults import (
    SITE_MPI_SEND,
    SITE_SIM_STEP,
    SITE_STORAGE_WRITE,
    CheckpointManager,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedRankDeath,
    InjectedWriteError,
    RetryPolicy,
    retry_call,
)
from repro.miniapp import OscillatorSimulation
from repro.miniapp.oscillator import default_oscillators
from repro.mpi import SPMDError, run_spmd
from repro.storage import BPReader, BPWriter, mpiio_read_block, mpiio_write_collective
from repro.trace import TraceRecorder
from repro.util import Extent
from repro.util.decomp import regular_decompose_3d

#: A noisy fabric: most sends are delayed/duplicated/dropped, yet the
#: reliable-transport emulation must keep results exact.
NOISY_FABRIC = FaultPlan(
    seed=11,
    rules=(
        FaultRule(SITE_MPI_SEND, "delay", 0.30, params={"seconds": 0.002}),
        FaultRule(SITE_MPI_SEND, "duplicate", 0.20),
        FaultRule(SITE_MPI_SEND, "drop", 0.10, params={"retransmit_after": 0.004}),
    ),
)


class TestInjector:
    def test_type_checked(self):
        with pytest.raises(TypeError):
            run_spmd(1, lambda c: None, faults="not a plan")

    def test_one_shot_event_fires_once(self):
        inj = FaultInjector(FaultPlan(seed=0, events=(
            FaultEvent(SITE_SIM_STEP, "die", rank=0),
        )))
        assert inj.draw(SITE_SIM_STEP, 0).kind == "die"
        assert inj.draw(SITE_SIM_STEP, 0) is None
        assert inj.injections == 1

    def test_per_rank_cap(self):
        inj = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(SITE_SIM_STEP, "stall", 1.0, max_firings=2),
        )))
        fired = {r: sum(inj.draw(SITE_SIM_STEP, r) is not None for _ in range(5))
                 for r in (0, 1)}
        assert fired == {0: 2, 1: 2}

    def test_schedule_is_sorted_and_counts_match(self):
        inj = FaultInjector(FaultPlan(seed=0, rules=(
            FaultRule(SITE_SIM_STEP, "stall", 1.0),
        )))
        for rank in (1, 0, 1):
            inj.draw(SITE_SIM_STEP, rank, step=rank)
        sched = inj.schedule()
        assert [(e["rank"], e["occurrence"]) for e in sched] == [(0, 0), (1, 0), (1, 1)]
        assert inj.counts_by_kind() == {"sim.step::stall": 3}


class TestMPIFaults:
    def test_point_to_point_exact_under_noise(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(30):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(30)]

        out = run_spmd(2, prog, faults=NOISY_FABRIC, timeout=30.0)
        assert out[1] == list(range(30))

    def test_collectives_exact_under_noise(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule("mpi.collective", "stall", 0.2, params={"seconds": 0.002}),
        ))

        def prog(comm):
            return [comm.allreduce(comm.rank + i) for i in range(20)]

        clean = run_spmd(4, prog)
        noisy = run_spmd(4, prog, faults=plan, timeout=30.0)
        assert noisy == clean

    def test_injection_traced(self):
        plan = FaultPlan(seed=1, events=(
            FaultEvent(SITE_MPI_SEND, "duplicate", rank=0, occurrence=0),
        ))
        inj = FaultInjector(plan)

        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                return None
            return comm.recv(source=0)

        out = run_spmd(2, prog, faults=inj, timeout=10.0)
        assert out[1] == "x"
        assert inj.counts_by_kind() == {"mpi.send::duplicate": 1}


class TestStorageFaults:
    def _extent(self, comm, dims):
        ext, _, _ = regular_decompose_3d(dims, comm.size, comm.rank)
        return ext

    def test_bp_write_fail_raises_injected(self, tmp_path):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(SITE_STORAGE_WRITE, "write_fail", rank=0, occurrence=0),
        ))
        path = str(tmp_path / "f.bp")

        def prog(comm):
            w = BPWriter(comm, path, (4, 4, 4))
            w.begin_step()
            with pytest.raises(InjectedWriteError):
                w.write("data", np.zeros((4, 4, 4)), Extent(0, 3, 0, 3, 0, 3))

        run_spmd(1, prog, faults=plan)

    def test_bp_partial_write_is_idempotent_under_retry(self, tmp_path):
        """A truncated write rolls the file back, so the retry lands on a
        clean offset and the final file round-trips exactly."""
        plan = FaultPlan(seed=0, events=(
            FaultEvent(SITE_STORAGE_WRITE, "write_partial", rank=0, occurrence=0,
                       params={"fraction": 0.5}),
            FaultEvent(SITE_STORAGE_WRITE, "write_fail", rank=0, occurrence=1),
        ))
        path = str(tmp_path / "p.bp")
        data = np.arange(64.0).reshape(4, 4, 4)

        def prog(comm):
            w = BPWriter(comm, path, (4, 4, 4))
            w.begin_step()
            retry_call(
                lambda: w.write("data", data, Extent(0, 3, 0, 3, 0, 3)),
                RetryPolicy(max_attempts=4, base_delay=0.0),
            )
            w.end_step()
            w.close()

        run_spmd(1, prog, faults=plan)
        back = BPReader(path).read("data", step=0)
        np.testing.assert_array_equal(back, data)

    def test_mpiio_unretried_failure_propagates(self, tmp_path):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(SITE_STORAGE_WRITE, "write_fail", rank=0, occurrence=0),
        ))

        def prog(comm):
            ext = Extent(0, 3, 0, 3, 0, 3)
            mpiio_write_collective(
                comm, str(tmp_path / "u.raw"), np.zeros((4, 4, 4)), ext, (4, 4, 4)
            )

        with pytest.raises(SPMDError) as ei:
            run_spmd(1, prog, faults=plan, timeout=10.0)
        assert isinstance(ei.value.failures[0], InjectedWriteError)


class TestSimulationFaults:
    DIMS = (8, 8, 8)

    def test_death_raises_before_mutation(self):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(SITE_SIM_STEP, "die", rank=0, step=2),
        ))

        def prog(comm):
            sim = OscillatorSimulation(comm, self.DIMS, default_oscillators(), dt=0.01)
            sim.advance()
            before = (sim.step, sim.time, sim.field.copy())
            with pytest.raises(InjectedRankDeath) as ei:
                sim.advance()
            after = (sim.step, sim.time, sim.field)
            return ei.value.rank, ei.value.step, before[0] == after[0], np.array_equal(
                before[2], after[2]
            )

        rank, step, step_unchanged, field_unchanged = run_spmd(1, prog, faults=plan)[0]
        assert (rank, step) == (0, 2)
        assert step_unchanged and field_unchanged

    def test_checkpoint_recovery_is_exact(self):
        """Die at step 5, rewind to the step-3 checkpoint, replay: the final
        field must be byte-identical to a fault-free run (the one-shot death
        event does not re-fire during replay)."""
        plan = FaultPlan(seed=0, events=(
            FaultEvent(SITE_SIM_STEP, "die", rank=0, step=5),
        ))

        def prog(comm, steps=6):
            sim = OscillatorSimulation(comm, self.DIMS, default_oscillators(), dt=0.01)
            ckpt = CheckpointManager(interval=3)
            ckpt.save(sim)
            deaths = 0
            for _ in range(steps):
                try:
                    sim.advance()
                except InjectedRankDeath:
                    deaths += 1
                    ckpt.recover_step(sim, sim.advance)
                    sim.advance()
                ckpt.maybe_save(sim)
            return deaths, ckpt.restores, sim.step, sim.field

        deaths, restores, step, field = run_spmd(1, prog, faults=plan)[0]
        _, _, clean_step, clean_field = run_spmd(1, prog)[0]
        assert (deaths, restores) == (1, 1)
        assert step == clean_step == 6
        assert np.array_equal(field, clean_field)
