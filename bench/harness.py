"""What the five workloads share: the run plan, the timed loop, the step
log, artifact accounting and the leak checks."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Plan:
    """How one worker run measures.

    The timed phase is a sequence of segments of ``seg_steps`` steps.  It
    ends after ``segments`` segments when that is set (``--quick`` and
    set-up-only runs, which use 0), otherwise at the first segment boundary
    at least ``seconds`` after the first timed step.
    """

    traced: bool
    seconds: float
    segments: int | None
    seg_steps: int
    warmup: int
    #: The orchestrator's ``time.monotonic()`` just before it spawned this
    #: worker; ``setup_s`` counts from here.
    spawn_t: float
    workdir: str

    @property
    def setup_only(self) -> bool:
        return self.segments == 0


@dataclass
class StepLog:
    """Rank 0's timing of the timed phase."""

    setup_s: float = 0.0
    #: Per timed step: seconds in ``advance`` and in the whole step
    #: (``advance`` start to ``bridge.execute`` return).
    advance_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    #: Per segment: ``(steps, wall seconds)``; the wall excludes the
    #: bench's own continue/stop agreement between segments.
    segments: list[tuple[int, float]] = field(default_factory=list)

    def clear_steps(self) -> None:
        """Forget the warm-up steps."""
        self.advance_s.clear()
        self.step_s.clear()

    def as_dict(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "advance_s": self.advance_s,
            "step_s": self.step_s,
            "segments": self.segments,
        }


def run_segments(plan: Plan, log: StepLog, one_segment, agree) -> None:
    """Drive the timed phase.

    ``one_segment()`` runs ``plan.seg_steps`` steps, appending to
    ``log.advance_s``/``log.step_s``, and returns the segment's wall
    seconds.  ``agree(done)`` returns rank 0's verdict on every rank (a
    broadcast), so all ranks leave the loop at the same segment boundary.
    """
    log.setup_s = time.monotonic() - plan.spawn_t
    if plan.setup_only:
        return
    begin = time.perf_counter()
    while True:
        wall = one_segment()
        log.segments.append((plan.seg_steps, wall))
        if plan.segments is not None:
            done = len(log.segments) >= plan.segments
        else:
            done = time.perf_counter() - begin >= plan.seconds
        if agree(done):
            return


def drive_bridge(plan: Plan, tracer, comm, sim, bridge, advance_metric: str) -> StepLog:
    """Warm up, then run the timed phase of a simulation behind a bridge.

    Each step is ``sim.advance()`` then ``bridge.execute(...)`` under the
    bench's two boundary spans; between segments rank 0's continue/stop
    verdict is broadcast on ``comm``.
    """
    log = StepLog()

    def step() -> None:
        tracer.step = sim.step + 1
        t0 = time.perf_counter()
        with tracer.span("sim.advance", advance_metric):
            sim.advance()
        t1 = time.perf_counter()
        with tracer.span("bridge.execute", "core.bridge_self_s"):
            bridge.execute(sim.time, sim.step)
        t2 = time.perf_counter()
        log.advance_s.append(t1 - t0)
        log.step_s.append(t2 - t0)

    def segment() -> float:
        t0 = time.perf_counter()
        for _ in range(plan.seg_steps):
            step()
        return time.perf_counter() - t0

    def agree(done: bool) -> bool:
        with tracer.span("driver.agree", "driver.agree_s"):
            return comm.bcast(done, root=0)

    for _ in range(plan.warmup):
        step()
    log.clear_steps()
    run_segments(plan, log, segment, agree)
    return log


def tree_bytes(root: str) -> int:
    """Bytes of every regular file under ``root``."""
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def make_oscillators(spec: list[tuple]):
    """``bench.inputs.oscillators`` tuples -> ``repro`` oscillator objects."""
    from repro.miniapp import Oscillator, OscillatorKind

    return [
        Oscillator(OscillatorKind(kind), tuple(centre), radius, omega, zeta)
        for kind, centre, radius, omega, zeta in spec
    ]


def timer_totals(timers) -> dict[str, float]:
    """``TimerRegistry`` -> ``{name: total seconds}`` (the program's own
    clock, used only for the report-only cross-check)."""
    return {name: entry["total"] for name, entry in timers.as_dict().items()}


def counter_totals(session) -> dict[str, float]:
    """Latest value of every program counter, summed over ranks."""
    out: dict[str, float] = {}
    if session is None:
        return out
    for rank in session.ranks:
        rec = session.recorder(rank)
        for name in rec.counter_names():
            out[name] = out.get(name, 0.0) + rec.total(name)
    return out


# -- hygiene --------------------------------------------------------------------


def process_table():
    """``(pid, state, ppid, session id)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue  # exited while we were listing
        # The fields after the parenthesised command name: state, ppid,
        # pgrp, session.
        fields = stat[stat.rfind(")") + 2 :].split()
        yield int(entry), fields[0], int(fields[1]), int(fields[3])


def _is_resource_tracker(pid: int) -> bool:
    """``multiprocessing``'s own helper: it lives as long as the process
    that used shared memory and exits with it."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"multiprocessing.resource_tracker" in fh.read()
    except OSError:
        return False


def leaks(workdir: str) -> list[str]:
    """What this worker left behind: child processes, shared-memory
    segments of the SPMD runtime, or its temp tree (which holds the
    service's socket file)."""
    found = [
        f"child process {pid}"
        for pid, _, ppid, _ in process_table()
        if ppid == os.getpid() and not _is_resource_tracker(pid)
    ]
    try:
        shm = [n for n in os.listdir("/dev/shm") if n.startswith("repro-shm-")]
    except OSError:
        shm = []
    found += [f"shared-memory segment {name}" for name in shm]
    if os.path.exists(workdir):
        found.append(f"temp tree {workdir}")
    return found
