"""SPMD launcher: ``mpiexec -n N`` for the simulated runtime.

``run_spmd(nranks, program, ...)`` spawns one worker per rank, hands each a
:class:`~repro.mpi.communicator.Communicator`, and collects per-rank return
values.  Two execution backends provide the workers:

- ``backend="thread"`` (the default): one thread per rank sharing the
  process; collective rows and messages are posted straight into the
  peers' in-process FIFOs and mailboxes.
- ``backend="process"``: one OS process per rank
  (:mod:`repro.mpi.process_backend`), pickled-envelope pipe transport with
  bulk payloads mapped through ``multiprocessing.shared_memory`` -- real
  concurrency for numpy-heavy ranks, at process-spawn cost.

The backend can also be selected job-wide with the ``REPRO_SPMD_BACKEND``
environment variable; an explicit ``backend=`` argument wins.  Program
results, collective semantics, trace records, and fault injection schedules
are observably equivalent across backends (the test suite's equivalence
matrix asserts bit-identical results); only timing differs.

Any rank raising aborts the whole job: the shared context tree is
aborted, so peers blocked in collectives *or* point-to-point receives (on
the world communicator or any sub-communicator) are released immediately
with :class:`~repro.mpi.communicator.RankAbort` instead of burning the
watchdog timeout -- mirroring ``MPI_Abort`` semantics.  The resulting
:class:`SPMDError` attributes the failure: originating rank(s) with full
tracebacks, collateral aborted ranks listed separately.  Under the process
backend the abort cascade also *terminates* every still-live rank process
-- a failed job never leaves orphans.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.mpi.communicator import (
    DEFAULT_TIMEOUT,
    Communicator,
    RankAbort,
    _Context,
    _thread_world_rank,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector, FaultPlan
    from repro.trace import TraceSession


class SPMDError(RuntimeError):
    """A rank of an SPMD program raised; carries per-rank tracebacks.

    ``failures`` holds only *originating* failures; ranks that were
    released from a blocking operation because of another rank's failure
    appear in ``aborted_ranks`` instead of being misreported as failures
    of their own.
    """

    def __init__(
        self,
        failures: dict[int, BaseException],
        tracebacks: dict[int, str],
        aborted_ranks: Sequence[int] = (),
    ):
        self.failures = failures
        self.tracebacks = tracebacks
        self.aborted_ranks = sorted(aborted_ranks)
        detail = "\n".join(
            f"--- rank {rank} ---\n{tb}" for rank, tb in sorted(tracebacks.items())
        )
        collateral = (
            f"\nranks {self.aborted_ranks} aborted after the failure"
            if self.aborted_ranks
            else ""
        )
        super().__init__(
            f"{len(failures)} rank(s) failed: {sorted(failures)}{collateral}\n{detail}"
        )


#: Execution backends ``run_spmd`` accepts.
BACKENDS = ("thread", "process")


def resolve_backend(backend: "str | None" = None) -> str:
    """The effective backend: explicit arg > ``REPRO_SPMD_BACKEND`` > thread."""
    choice = backend or os.environ.get("REPRO_SPMD_BACKEND") or "thread"
    if choice not in BACKENDS:
        raise ValueError(
            f"unknown SPMD backend {choice!r}; expected one of {BACKENDS}"
        )
    return choice


def run_spmd(
    nranks: int,
    program: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    rank_args: Sequence[tuple] | None = None,
    trace_collectives: bool = False,
    trace: "TraceSession | None" = None,
    faults: "FaultPlan | FaultInjector | None" = None,
    backend: "str | None" = None,
    start_method: "str | None" = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``program(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    nranks:
        World size.  Thread-backed, so keep it modest (tests use 2-32).
    program:
        The SPMD entry point; receives the rank's communicator first.
    timeout:
        Deadlock watchdog for blocked collectives/recvs, in seconds.  Each
        rank's :class:`Communicator` takes it as its constructor timeout;
        a collective that trips it reports which ranks had and had not
        arrived at that collective.
    rank_args:
        Optional per-rank extra positional arguments (length ``nranks``);
        appended after ``args``.
    trace_collectives:
        Debug mode for the collective-trace race detector: records call
        sites and a per-rank rolling history for divergence diagnostics,
        and flags ``ANY_SOURCE``/``ANY_TAG`` receives that raced against
        multiple matching sends (``comm.race_events``).  The divergence
        cross-check itself is always on.
    trace:
        Optional :class:`repro.trace.TraceSession`.  Each rank's
        communicator gets that rank's :class:`~repro.trace.TraceRecorder`
        attached before the thread starts, so collective byte counters and
        any component that resolves ``comm.trace_recorder`` (the
        :class:`~repro.core.bridge.Bridge`, timers, memory trackers)
        record into the shared session.  ``None`` (the default) leaves
        every hook at a single pointer comparison.
    faults:
        Optional :class:`repro.faults.FaultPlan` (or an already-built
        :class:`~repro.faults.FaultInjector`, when the caller wants to keep
        the injection log).  Attached to the communicator context, it
        drives deterministic fault injection at the ``mpi.send`` /
        ``mpi.collective`` sites and is discoverable by any component via
        ``comm.fault_injector``.  ``None`` (the default) keeps every fault
        hook at a single pointer comparison.
    backend:
        ``"thread"`` or ``"process"``; ``None`` defers to the
        ``REPRO_SPMD_BACKEND`` environment variable and then the thread
        default.  The process backend requires picklable program return
        values (they cross a real address-space boundary).
    start_method:
        Process-backend only: ``multiprocessing`` start method ("fork",
        "spawn", "forkserver"); ``None`` defers to
        ``REPRO_SPMD_START_METHOD`` and then fork where available.  Spawn
        and forkserver additionally require the *program* to be picklable
        (a module-level function, not a closure).

    Returns
    -------
    list with ``program``'s return value for each rank, in rank order.
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    if rank_args is not None and len(rank_args) != nranks:
        raise ValueError("rank_args must have one tuple per rank")

    injector = None
    if faults is not None:
        from repro.faults import FaultInjector, FaultPlan

        if isinstance(faults, FaultInjector):
            injector = faults
        elif isinstance(faults, FaultPlan):
            injector = FaultInjector(faults)
        else:
            raise TypeError("faults must be a FaultPlan or FaultInjector")

    if resolve_backend(backend) == "process":
        from repro.mpi.process_backend import run_spmd_process

        return run_spmd_process(
            nranks,
            program,
            args,
            kwargs,
            timeout=timeout,
            rank_args=rank_args,
            trace_collectives=trace_collectives,
            trace=trace,
            injector=injector,
            start_method=start_method,
        )

    ctx = _Context(nranks, trace=trace_collectives, injector=injector)
    results: list[Any] = [None] * nranks
    failures: dict[int, BaseException] = {}
    tracebacks: dict[int, str] = {}
    aborted: set[int] = set()
    lock = threading.Lock()
    # Recorders are created eagerly, before any thread starts: TraceSession
    # lazily materializes per-rank recorders, and doing that from inside
    # racing rank threads would contend on the session dict.
    recorders = (
        [trace.recorder(rank) for rank in range(nranks)]
        if trace is not None
        else None
    )

    def worker(rank: int) -> None:
        _thread_world_rank.rank = rank
        comm = Communicator(ctx, rank, timeout=timeout)
        if recorders is not None:
            comm.attach_trace(recorders[rank])
        extra = tuple(rank_args[rank]) if rank_args is not None else ()
        try:
            results[rank] = program(comm, *args, *extra, **kwargs)
        except RankAbort:
            # Collateral: released because some other rank already failed.
            with lock:
                aborted.add(rank)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with lock:
                failures[rank] = exc
                tracebacks[rank] = traceback.format_exc()
            # Release peers blocked in collectives or receives, on the
            # world context and every sub-communicator, so the job
            # terminates with rank attribution instead of hanging until
            # the watchdog timeout.
            ctx.abort(f"rank {rank} raised {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if failures:
        raise SPMDError(failures, tracebacks, aborted_ranks=aborted)
    if aborted:  # pragma: no cover - defensive; abort implies a failure
        raise SPMDError(
            {},
            {},
            aborted_ranks=aborted,
        )
    return results
