"""Each hazard has one guard, and the guard fires on executed code.

The bugs below are planted in programs that run: a collective only some
ranks reach, an allocation nobody frees, a timer started without its stop.
Each fails at run time on both SPMD backends, with an error that names the
ranks, the planted line or the label -- or it cannot be written at all.
DESIGN.md ("Hazards and their guards") lists the same table.
"""

import inspect

import numpy as np
import pytest

from repro.core import AnalysisAdaptor, Bridge, LazyStructuredDataAdaptor
from repro.data import Association
from repro.mpi import CollectiveMismatchError, SPMDError, run_spmd
from repro.sanitize import SanitizerError
from repro.util import Extent, MemoryAccountingError, MemoryTracker, TimerRegistry

#: Long enough for a process rank to start, short enough to keep the
#: deadlocked cases at about a second each.
_WATCHDOG = 1.0


def _line_of(fn, text):
    """Source line number of the first line of ``fn`` containing ``text``."""
    lines, first = inspect.getsourcelines(fn)
    return first + next(i for i, line in enumerate(lines) if text in line)


def _spmd_failure(program):
    with pytest.raises(SPMDError) as info:
        run_spmd(2, program, timeout=_WATCHDOG)
    return str(info.value)


# -- collectives: only some ranks reach the call -------------------------------


def rank_guarded_collective(comm):
    data = comm.rank
    if comm.rank == 0:
        comm.reduce(data)  # planted
    comm.barrier()
    return data


def early_exit_collective(comm):
    if comm.rank >= comm.size // 2:
        return None
    comm.bcast(comm.rank)  # planted
    comm.barrier()
    return comm.rank


def loop_divergent_collective(comm):
    for _ in range(comm.rank):
        comm.barrier()  # planted


def rank_guarded_barrier(comm):
    if comm.rank == 0:
        comm.barrier()  # planted


class RootOnlyReducer:
    """The guard reads the rank off ``self`` rather than off ``comm``."""

    root = 0

    def __init__(self, comm):
        self.comm, self._rank = comm, comm.rank

    def go(self, x):
        if self._rank == self.root:
            self.comm.reduce(x)  # planted
        self.comm.barrier()


def rank_guarded_method(comm):
    RootOnlyReducer(comm).go(comm.rank)


@pytest.mark.usefixtures("spmd_backend")
class TestCollectiveHazards:
    def test_rank_guarded_collective_raises_at_once(self):
        """Rank 0's reduce meets rank 1's barrier: the record cross-check
        raises on both ranks, printing each rank's call."""
        msg = _spmd_failure(rank_guarded_collective)
        assert CollectiveMismatchError.__name__ in msg
        assert "divergent collective kinds" in msg
        assert "rank 0: #1 reduce" in msg and "rank 1: #1 barrier" in msg
        line = _line_of(rank_guarded_collective, "# planted")
        assert f"line {line}, in rank_guarded_collective" in msg

    def test_early_exit_collective_names_the_missing_rank(self):
        msg = _spmd_failure(early_exit_collective)
        assert "ranks [1] had not arrived" in msg
        line = _line_of(early_exit_collective, "# planted")
        assert f"line {line}, in early_exit_collective" in msg

    def test_loop_divergent_collective_names_the_missing_rank(self):
        msg = _spmd_failure(loop_divergent_collective)
        assert "ranks [0] had not arrived" in msg
        line = _line_of(loop_divergent_collective, "# planted")
        assert f"line {line}, in loop_divergent_collective" in msg

    def test_rank_guarded_barrier_names_the_missing_rank(self):
        msg = _spmd_failure(rank_guarded_barrier)
        assert "ranks [1] had not arrived" in msg
        line = _line_of(rank_guarded_barrier, "# planted")
        assert f"line {line}, in rank_guarded_barrier" in msg

    def test_rank_guarded_collective_in_a_method_raises_at_once(self):
        msg = _spmd_failure(rank_guarded_method)
        assert CollectiveMismatchError.__name__ in msg
        assert "rank 0: #1 reduce" in msg and "rank 1: #1 barrier" in msg
        line = _line_of(RootOnlyReducer.go, "# planted")
        assert f"line {line}, in go" in msg

    def test_time_around_a_collective_stops_on_every_rank(self):
        """``TimerRegistry.time`` is the try/finally around a collective."""

        def prog(comm):
            registry = TimerRegistry()
            with registry.time("phase"):
                total = comm.allreduce(1)
            with registry.time("phase"):  # raises if the first left it running
                pass
            return total, registry.timer("phase").count

        assert run_spmd(2, prog) == [(2, 2), (2, 2)]


# -- memory: an allocate without its free, a free without its allocate ---------


def _adaptor(comm):
    ext = Extent(0, 3, 0, 3, 0, 0)
    ad = LazyStructuredDataAdaptor(comm, ext, ext)
    ad.register_array(Association.POINT, "data", lambda: np.zeros((4, 4)))
    return ad


def _scratch(memory):
    memory.allocate(64, label="c::scratch")


class UnpairedLabels(AnalysisAdaptor):
    """``a::buffer`` is never freed; ``c::scratch`` is allocated by a helper
    that frees nothing."""

    def initialize(self, comm):
        self.memory.allocate(1024, label="a::buffer")

    def execute(self, data):
        _scratch(self.memory)
        return True


class FreeWithoutAllocate(AnalysisAdaptor):
    def execute(self, data):
        return True

    def finalize(self):
        self.memory.free(1024, label="b::buffer")


class UnfreedBuffer(AnalysisAdaptor):
    def initialize(self, comm):
        self.memory.allocate(1024, label="a::buffer")

    def execute(self, data):
        return True


class Fixed(AnalysisAdaptor):
    """A static footprint and a tracked array: the ledger leaves both
    alone, though neither is freed by hand."""

    def initialize(self, comm):
        self.memory.add_static(4096, label="lib::code")
        self.values = self.memory.track_array(np.zeros(8), label="lib::values")

    def execute(self, data):
        return True


class Paired(AnalysisAdaptor):
    def initialize(self, comm):
        self.memory.allocate(256, label="lib::bins")

    def execute(self, data):
        self.memory.allocate(32, label="lib::frame")
        self.memory.free(32, label="lib::frame")
        return True

    def finalize(self):
        self.memory.free(256, label="lib::bins")


def _run_bridge(analysis, *, sanitize=True, memory=None):
    def prog(comm):
        mem = memory if memory is not None else MemoryTracker()
        b = Bridge(comm, _adaptor(comm), memory=mem, sanitize=sanitize)
        b.add_analysis(analysis())
        b.initialize()
        for step in range(2):
            b.execute(0.1 * step, step)
        b.finalize()
        return mem.owed()

    return run_spmd(1, prog)[0]


@pytest.mark.usefixtures("spmd_backend")
class TestMemoryLedger:
    def test_unfreed_labels_raise_at_finalize_naming_each(self):
        with pytest.raises(SPMDError) as info:
            _run_bridge(UnpairedLabels)
        msg = str(info.value)
        assert SanitizerError.__name__ in msg
        assert "a::buffer (1024 B)" in msg and "c::scratch (128 B)" in msg

    def test_allocate_never_freed_raises_at_finalize(self):
        with pytest.raises(SPMDError) as info:
            _run_bridge(UnfreedBuffer)
        msg = str(info.value)
        assert SanitizerError.__name__ in msg
        assert "a::buffer (1024 B)" in msg and "c::scratch" not in msg

    def test_unfreed_labels_pass_without_sanitize(self):
        assert _run_bridge(UnpairedLabels, sanitize=False) == {
            "a::buffer": 1024,
            "c::scratch": 128,
        }

    def test_free_without_allocate_raises_naming_the_label(self):
        with pytest.raises(SPMDError) as info:
            _run_bridge(FreeWithoutAllocate)
        msg = str(info.value)
        assert MemoryAccountingError.__name__ in msg
        assert "label='b::buffer'" in msg

    def test_static_footprints_and_tracked_arrays_are_exempt(self):
        assert _run_bridge(Fixed) == {}

    def test_paired_allocate_and_free_is_clean(self):
        assert _run_bridge(Paired) == {}

    def test_debt_from_before_the_bridge_is_not_blamed_on_it(self):
        mem = MemoryTracker()
        mem.allocate(512, label="sim::halo")
        assert _run_bridge(Paired, memory=mem) == {"sim::halo": 512}


# -- timers: a start without its stop cannot be written ------------------------


def timer_chained_start(registry):
    registry.timer("phase").start()


def timer_leak_branch(registry, flag=False):
    t = registry.timer("phase")
    t.start()
    if flag:
        t.stop()


def timer_leak_exception(registry, comm=None):
    t = registry.timer("exchange")
    t.start()
    total = comm.allreduce(1)
    t.stop()
    return total


def timer_leak_straight_line(registry):
    t = registry.timer("phase")
    t.start()
    return sum(range(8))


class ChainedStart(AnalysisAdaptor):
    def execute(self, data):
        self.timers.timer("phase").start()
        return True


def timer_chained_start_in_analysis(registry):
    analysis = ChainedStart()
    analysis.set_instrumentation(registry, MemoryTracker())
    analysis.execute(None)


@pytest.mark.parametrize(
    "planted",
    [
        timer_chained_start,
        timer_leak_branch,
        timer_leak_exception,
        timer_leak_straight_line,
        timer_chained_start_in_analysis,
    ],
)
def test_timer_start_without_stop_is_unwritable(planted):
    with pytest.raises(AttributeError, match="'Timer' object has no attribute 'start'"):
        planted(TimerRegistry())
