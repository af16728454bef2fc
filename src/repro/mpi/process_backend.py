"""Process-backed SPMD runtime: one OS process per rank.

The thread backend (:mod:`repro.mpi.launcher`) serializes every
numpy-heavy rank on the GIL, which understates contention and can hide
ordering bugs that only appear under true concurrency.  This backend runs
the identical :class:`~repro.mpi.communicator.Communicator` program with
one *process* per rank:

- **Transport** is a pickled-envelope pipe fabric: each rank owns one
  inbound ``multiprocessing`` queue; a drainer thread in every worker
  routes arriving envelopes into per-communicator mailboxes (the same
  :class:`~repro.mpi.communicator._Mailbox` the thread backend uses, so
  tag/source matching, the pending-envelope non-overtaking rule, and
  sequence-number duplicate suppression are literally the same code).
  Bulk numpy payloads spill to consume-once ``/dev/shm`` segment files,
  written and read with ``pwrite`` / ``preadv`` (:mod:`repro.mpi.shm`),
  instead of riding the pipe.  A segment the drainer cannot read (missing
  or short) aborts the rank with a :class:`~repro.mpi.shm.SegmentError`
  naming it, rather than leaving its receiver to time out.
- **Collectives** are the base class's row exchange; this fabric only
  carries a row to a peer, as a ``coll`` envelope that the drainer posts to
  the communicator's per-source FIFO -- the same
  :class:`~repro.mpi.communicator._CommState` the thread fabric posts to
  directly.  A contribution is encoded for each peer by the
  same :class:`~repro.mpi.shm.PayloadCodec` sends use, so one rule covers
  both: a bare ndarray at or above the threshold rides a consume-once
  segment, anything else is pickled.  The ``mpi::<kind>::bytes`` counter
  is split into ``::shm`` and ``::pickled`` so traces prove which
  transport carried the bytes.
- **Faults** are the ``mpi.send`` / ``mpi.collective`` sites the base
  :class:`~repro.mpi.communicator.Communicator` owns; this fabric only
  implements "deliver now" and "deliver later" (delay and drop-retransmit
  are sender-side timers that deliver a pending envelope's payload late,
  exactly mirroring the thread transport).  Each
  worker rebuilds its :class:`~repro.faults.FaultInjector` from the
  (immutable) plan; because draws are counter-hashed per (site, rank,
  occurrence) and every site draws with rank identities unique to that
  process, the per-rank logs merge into the same deterministic schedule
  the shared-injector thread backend produces.
- **Failure handling** mirrors ``MPI_Abort``: a worker that raises ships
  its exception to the launcher, which broadcasts an abort envelope to
  every peer (releasing blocked receives and collectives with
  :class:`~repro.mpi.communicator.RankAbort`), then joins with a grace
  period and terminates/kills stragglers -- a failed job never leaves
  orphaned rank processes behind.

Start methods: ``fork`` (the default where available) supports closure
programs, which is what the test matrix uses.  ``spawn`` and
``forkserver`` are fully supported for *picklable* (module-level)
programs; the transport itself -- queues, shared-memory names, plans,
recorders -- is picklable by construction.  Select with
``run_spmd(..., start_method=...)`` or ``REPRO_SPMD_START_METHOD``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.mpi.communicator import (
    _HISTORY_LIMIT,
    Communicator,
    MPIError,
    RankAbort,
    _CommState,
    _copy_payload,
    _payload_nbytes,
    _thread_world_rank,
)
from repro.mpi.shm import PayloadCodec, SegmentError, cleanup_segments

#: Communicator id of the world communicator.
_WORLD_ID = "w"

#: Seconds the launcher waits for a dead worker's already-sent result to
#: surface from the queue before declaring "died without reporting".
_DEATH_GRACE = 1.0

#: Seconds workers get to exit cleanly after an abort broadcast before the
#: launcher escalates to terminate()/kill().
_EXIT_GRACE = 5.0

_JOB_COUNTER = itertools.count()


# --------------------------------------------------------------------------
# Per-worker runtime: envelope routing
# --------------------------------------------------------------------------


class _Runtime:
    """One worker process's view of the job fabric.

    Owns the inbound queue drainer, the per-communicator states, the
    payload codec, and any sender-side fault-delivery timers.
    """

    def __init__(self, rank: int, size: int, queues, job_tag: str) -> None:
        self.rank = rank
        self.size = size
        self.queues = queues
        self.codec = PayloadCodec(job_tag, rank)
        self.abort_reason: str | None = None
        #: The segment error that made this rank's drainer abort it: the
        #: rank reports it as its own failure, not as collateral.
        self.failure: SegmentError | None = None
        self._states: dict[str, _CommState] = {}
        self._lock = threading.Lock()
        self._timers: list[threading.Timer] = []
        self._drainer = threading.Thread(
            target=self._drain, name=f"spmd-drain-{rank}", daemon=True
        )

    def start(self) -> None:
        self._drainer.start()

    # -- states ------------------------------------------------------------
    def state(self, cid: str) -> _CommState:
        with self._lock:
            st = self._states.get(cid)
            if st is None:
                st = self._states[cid] = _CommState()
                if self.abort_reason is not None:
                    # The job already aborted; anything blocking on this
                    # late-created communicator must release immediately.
                    st.abort(self.abort_reason)
            return st

    # -- outbound ----------------------------------------------------------
    def put(self, dest_world: int, env: tuple) -> None:
        self.queues[dest_world].put(env)

    def put_later(self, delay: float, dest_world: int, env: tuple) -> None:
        """Deliver ``env`` after ``delay`` seconds (injected delay/drop)."""
        timer = threading.Timer(delay, self.put, args=(dest_world, env))
        timer.daemon = True
        with self._lock:
            self._timers.append(timer)
        timer.start()

    def flush_timers(self, timeout: float = 2.0) -> None:
        """Wait for in-flight delayed deliveries before the worker exits.

        A worker that exits with a pending delivery timer would strand its
        receiver (the thread backend never has this problem -- all ranks
        share one process).  Injected delays are milliseconds, so this is
        a bounded, normally-instant wait.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            timers = list(self._timers)
        for t in timers:
            t.join(max(0.0, deadline - time.monotonic()))

    # -- inbound -----------------------------------------------------------
    def _drain(self) -> None:
        inbound = self.queues[self.rank]
        decode = self.codec.decode
        while True:
            try:
                env = inbound.get()
            except BaseException:  # pragma: no cover - teardown race
                # The queue's read end can break mid-get during interpreter
                # shutdown; a drainer has nothing useful to do about it.
                return
            kind = env[0]
            if kind == "stop":
                return
            if kind == "abort":
                self._abort_local(env[1])
                continue
            st = self.state(env[1])
            try:
                if kind == "pt":
                    _, _, src, tag, seq, spec = env
                    st.mailbox.put(src, tag, decode(spec), seq=seq)
                elif kind == "pend":
                    _, _, src, tag, seq = env
                    st.mailbox.put_pending(src, tag, seq)
                elif kind == "fulfill":
                    _, _, src, seq, spec = env
                    st.mailbox.fulfill(src, seq, decode(spec))
                elif kind == "coll":
                    _, _, src, record, spec = env
                    st.post(src, record, decode(spec))
            except SegmentError as exc:
                # The payload is lost: release whatever waits for it now
                # instead of letting it run out its timeout.
                if self.failure is None:
                    self.failure = exc
                self._abort_local(f"rank {self.rank} lost a payload: {exc}")

    def _abort_local(self, reason: str) -> None:
        with self._lock:
            self.abort_reason = reason
            states = list(self._states.values())
        for st in states:
            st.abort(reason)

    def stop(self) -> None:
        # Wake the drainer out of its blocking get and see it exit before
        # the interpreter starts tearing down the queue machinery under it;
        # daemon=True backstops the case where the queue is already broken.
        try:
            self.queues[self.rank].put(("stop",))
        except (OSError, ValueError):  # pragma: no cover - teardown race
            pass
        self._drainer.join(2.0)


# --------------------------------------------------------------------------
# Communicator over the process fabric
# --------------------------------------------------------------------------


class _ProcessContext:
    """Duck-typed stand-in for the thread backend's ``_Context``.

    Carries exactly the attributes the base :class:`Communicator` methods
    read: ``size``, ``trace``, ``injector``, ``histories``, ``race_events``,
    ``lock``, and a ``states`` mapping that resolves this process's own
    :class:`~repro.mpi.communicator._CommState`.  ``members`` maps
    communicator-local ranks to world ranks for envelope routing.
    """

    def __init__(
        self,
        runtime: _Runtime,
        cid: str,
        members: Sequence[int],
        local_rank: int,
        trace: bool,
        injector,
    ) -> None:
        self.runtime = runtime
        self.cid = cid
        self.members = list(members)
        self.size = len(self.members)
        self.trace = trace
        self.injector = injector
        self.histories = [deque(maxlen=_HISTORY_LIMIT) for _ in range(self.size)]
        self.race_events: list[dict] = []
        self.lock = threading.Lock()
        self.states = {local_rank: runtime.state(cid)}


class ProcessCommunicator(Communicator):
    """The :class:`Communicator` fabric seam over pipes and shared memory.

    Every public method -- point-to-point, the collective algebra and its
    row exchange, the ``mpi.send``/``mpi.collective`` fault sites,
    ``split`` -- is inherited; this class only says how an envelope, a
    contribution row and a child context cross a process boundary.
    """

    #: A peer's row and the launcher's abort travel on different pipes (the
    #: peer's feeder thread vs the launcher), so the abort can overtake a
    #: row already on the wire.  A rank that completed the collective before
    #: failing must release its peers with the real row, so a rank seeing
    #: the abort keeps collecting this long before it counts as collateral.
    _abort_grace = 0.25

    def _count_transport(self, stem: str, spilled: bool, payload: Any) -> None:
        """Charge a payload's bytes to ``::shm`` when it was spilled to a
        segment, else to ``::pickled``; the two sum to the unsuffixed total.

        Zero-valued samples are skipped to keep traces lean; reports read
        the split with a 0.0 default.
        """
        rec = self._trace_recorder
        if rec is None:
            return
        total = _payload_nbytes(payload)
        if total:
            rec.count(f"{stem}::{'shm' if spilled else 'pickled'}", total)

    def _deliver(
        self, dest: int, tag: int, payload: Any, seq: "int | None",
        copies: int = 1, faulted: bool = False,
    ) -> None:
        ctx: _ProcessContext = self._ctx
        # Faulted envelopes pickle inline, copied here as the codec's inline
        # path copies (the queue pickles later, on its feeder thread): a
        # duplicated envelope must survive two decodes, which a consume-once
        # shm segment cannot.
        spec = (
            ("inline", _copy_payload(payload))
            if faulted
            else ctx.runtime.codec.encode(payload)
        )
        self._count_transport("mpi::send::bytes", spec[0] == "shm", payload)
        for _ in range(copies):
            ctx.runtime.put(
                ctx.members[dest], ("pt", ctx.cid, self._rank, tag, seq, spec)
            )

    def _deliver_later(
        self, dest: int, tag: int, payload: Any, seq: int, delay: float
    ) -> None:
        ctx: _ProcessContext = self._ctx
        self._count_transport("mpi::send::bytes", False, payload)
        dest_world = ctx.members[dest]
        ctx.runtime.put(dest_world, ("pend", ctx.cid, self._rank, tag, seq))
        # Copied now: the timer fires after send() has returned.
        ctx.runtime.put_later(
            delay,
            dest_world,
            ("fulfill", ctx.cid, self._rank, seq, ("inline", _copy_payload(payload))),
        )

    def _contribute(self, peers: list[int], record, value: Any) -> None:
        """Each peer gets its own encoding of the contribution, exactly as a
        send would: a large bare ndarray lands in one consume-once segment
        per peer, anything else is pickled.  The byte split is counted once
        per contribution, matching the unsuffixed total ``_exchange``
        counted."""
        ctx: _ProcessContext = self._ctx
        for peer in peers:
            spec = ctx.runtime.codec.encode(value)
            ctx.runtime.put(
                ctx.members[peer], ("coll", ctx.cid, self._rank, record, spec)
            )
        self._count_transport(f"mpi::{record[1]}::bytes", spec[0] == "shm", value)

    def _child(self, members: list[int], color: int):
        """The child communicator id is derived from (parent id, parent
        collective sequence, color) -- identical on every member because
        collectives are called in program order -- so envelope routing
        needs no shared registry."""
        if not members:
            return None
        ctx: _ProcessContext = self._ctx
        new_rank = members.index(self._rank)
        child_ctx = _ProcessContext(
            ctx.runtime,
            f"{ctx.cid}/{self._seq}.{color}",
            [ctx.members[r] for r in members],
            new_rank,
            trace=ctx.trace,
            injector=ctx.injector,
        )
        return ProcessCommunicator(child_ctx, new_rank, timeout=self._timeout)


# --------------------------------------------------------------------------
# Worker entry point
# --------------------------------------------------------------------------


@dataclass
class _WorkerSpec:
    """Everything one worker needs; picklable when the program is."""

    program: Callable
    args: tuple
    kwargs: dict
    extra: tuple
    timeout: float
    trace_collectives: bool
    plan: Any  # FaultPlan | None
    recorder: Any  # TraceRecorder | None
    job_tag: str


def _try_dumps(obj: Any) -> "bytes | None":
    try:
        return pickle.dumps(obj)
    except Exception:
        return None


def _ship_exception(exc: BaseException) -> tuple:
    """(pickled-exception-or-None, repr) -- exceptions may not pickle."""
    blob = _try_dumps(exc)
    if blob is not None:
        # Some exceptions pickle but cannot unpickle (custom __init__
        # signatures); verify the round trip here, on the worker side.
        try:
            pickle.loads(blob)
        except Exception:
            blob = None
    return blob, f"{type(exc).__name__}: {exc}"


def _worker_main(rank: int, size: int, queues, result_queue, spec: _WorkerSpec) -> None:
    runtime = _Runtime(rank, size, queues, spec.job_tag)
    runtime.start()
    _thread_world_rank.rank = rank
    injector = None
    if spec.plan is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(spec.plan)
    ctx = _ProcessContext(
        runtime,
        _WORLD_ID,
        range(size),
        rank,
        trace=spec.trace_collectives,
        injector=injector,
    )
    comm = ProcessCommunicator(ctx, rank, timeout=spec.timeout)
    recorder = spec.recorder
    # The recorder arrived as a fork/pickle copy; only what this process
    # *adds* travels back, so snapshot the inherited state now.
    base = None
    if recorder is not None:
        comm.attach_trace(recorder)
        base = (len(recorder.spans), len(recorder.counters), dict(recorder._totals))

    def extras() -> dict:
        out: dict = {}
        if injector is not None:
            out["fault_log"] = injector.schedule()
        if recorder is not None:
            nspans, ncounters, totals0 = base
            deltas = {
                name: total - totals0.get(name, 0.0)
                for name, total in recorder._totals.items()
                if total != totals0.get(name, 0.0)
            }
            out["trace"] = (
                recorder.spans[nspans:],
                recorder.counters[ncounters:],
                deltas,
            )
        return out

    report: tuple
    try:
        try:
            result = spec.program(comm, *spec.args, *spec.extra, **spec.kwargs)
        except RankAbort:
            if runtime.failure is None:
                raise
            raise runtime.failure from None
        report = ("ok", rank, result, extras())
    except RankAbort:
        report = ("aborted", rank, None, extras())
    except BaseException as exc:  # noqa: BLE001 - reported to the launcher
        exc_blob, exc_repr = _ship_exception(exc)
        report = (
            "fail",
            rank,
            (exc_blob, exc_repr, traceback.format_exc()),
            extras(),
        )
    blob = _try_dumps(report)
    if blob is None:
        # The program ran but its return value cannot cross the process
        # boundary -- a clear diagnostic beats a feeder-thread stack trace.
        kind = report[0]
        report = (
            "fail",
            rank,
            (
                None,
                f"rank {rank} produced an unpicklable "
                + ("result" if kind == "ok" else "report")
                + "; process-backend return values must be picklable",
                "",
            ),
            {},
        )
        blob = pickle.dumps(report)
    result_queue.put(blob)
    # Guarantee the result reaches the pipe before this process exits.
    result_queue.close()
    result_queue.join_thread()
    runtime.flush_timers()
    runtime.stop()


# --------------------------------------------------------------------------
# Launcher
# --------------------------------------------------------------------------


def _pick_start_method(requested: str | None):
    import multiprocessing as mp

    method = requested or os.environ.get("REPRO_SPMD_START_METHOD")
    available = mp.get_all_start_methods()
    if method is None:
        method = "fork" if "fork" in available else "spawn"
    if method not in available:
        raise ValueError(
            f"start method {method!r} not available here (have {available})"
        )
    return mp.get_context(method), method


def run_spmd_process(
    nranks: int,
    program: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    *,
    timeout: float,
    rank_args: "Sequence[tuple] | None",
    trace_collectives: bool,
    trace,
    injector,
    start_method: str | None = None,
) -> list[Any]:
    """Run ``program`` with one OS process per rank; see ``run_spmd``.

    Argument validation happens in :func:`repro.mpi.launcher.run_spmd`;
    this function owns process lifecycle: spawn, result collection, abort
    broadcast on failure, guaranteed child teardown, shared-memory sweep,
    and merging per-rank fault logs / trace data back into the launcher's
    injector and session objects.
    """
    mpctx, method = _pick_start_method(start_method)
    if method in ("spawn", "forkserver"):
        try:
            pickle.dumps(program)
        except Exception as exc:
            raise ValueError(
                f"backend='process' with start method {method!r} requires a "
                "picklable (module-level) program; use the default 'fork' "
                "start method for closures"
            ) from exc
    job_tag = f"{os.getpid():x}x{next(_JOB_COUNTER):x}"
    plan = injector.plan if injector is not None else None
    recorders = (
        [trace.recorder(rank) for rank in range(nranks)]
        if trace is not None
        else None
    )
    queues = [mpctx.Queue() for _ in range(nranks)]
    result_queue = mpctx.Queue()
    procs = []
    for rank in range(nranks):
        spec = _WorkerSpec(
            program=program,
            args=args,
            kwargs=kwargs,
            extra=tuple(rank_args[rank]) if rank_args is not None else (),
            timeout=timeout,
            trace_collectives=trace_collectives,
            plan=plan,
            recorder=recorders[rank] if recorders is not None else None,
            job_tag=job_tag,
        )
        procs.append(
            mpctx.Process(
                target=_worker_main,
                args=(rank, nranks, queues, result_queue, spec),
                name=f"spmd-rank-{rank}",
            )
        )
    results: list[Any] = [None] * nranks
    failures: dict[int, BaseException] = {}
    tracebacks: dict[int, str] = {}
    aborted: set[int] = set()
    extras_by_rank: dict[int, dict] = {}
    abort_sent = False

    def broadcast_abort(reason: str) -> None:
        nonlocal abort_sent
        if abort_sent:
            return
        abort_sent = True
        for q in queues:
            try:
                q.put(("abort", reason))
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass

    try:
        for p in procs:
            p.start()
        pending = set(range(nranks))
        death_noticed: dict[int, float] = {}
        while pending:
            try:
                blob = result_queue.get(timeout=0.05)
            except queue_mod.Empty:
                now = time.monotonic()
                for rank in sorted(pending):
                    if procs[rank].is_alive():
                        death_noticed.pop(rank, None)
                        continue
                    first = death_noticed.setdefault(rank, now)
                    if now - first < _DEATH_GRACE:
                        continue
                    # Dead past the grace window with no report: the rank
                    # process died hard (os._exit, signal, interpreter
                    # crash).  Attribute it and release the peers.
                    code = procs[rank].exitcode
                    exc = MPIError(
                        f"rank {rank} process died without reporting "
                        f"(exit code {code})"
                    )
                    failures[rank] = exc
                    tracebacks[rank] = str(exc)
                    pending.discard(rank)
                    broadcast_abort(str(exc))
                continue
            status, rank, payload, extras = pickle.loads(blob)
            pending.discard(rank)
            extras_by_rank[rank] = extras
            if status == "ok":
                results[rank] = payload
            elif status == "aborted":
                aborted.add(rank)
            else:  # "fail"
                exc_blob, exc_repr, tb = payload
                exc: BaseException
                if exc_blob is not None:
                    try:
                        exc = pickle.loads(exc_blob)
                    except Exception:  # pragma: no cover - defensive
                        exc = RuntimeError(exc_repr)
                else:
                    exc = RuntimeError(exc_repr)
                failures[rank] = exc
                tracebacks[rank] = tb or exc_repr
                broadcast_abort(f"rank {rank} raised {exc_repr}")
        deadline = time.monotonic() + _EXIT_GRACE
        for p in procs:
            p.join(max(0.1, deadline - time.monotonic()))
    finally:
        # No orphaned ranks, ever: escalate terminate -> kill on anything
        # still alive, then reap and release every IPC resource.
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(1.0)
                if p.is_alive():  # pragma: no cover - hard-stuck child
                    p.kill()
                    p.join(1.0)
        for p in procs:
            p.close()
        for q in [*queues, result_queue]:
            q.close()
            q.cancel_join_thread()
        cleanup_segments(job_tag)

    _merge_extras(extras_by_rank, injector, recorders)
    if failures:
        from repro.mpi.launcher import SPMDError

        raise SPMDError(failures, tracebacks, aborted_ranks=aborted)
    return results


def _merge_extras(extras_by_rank: dict[int, dict], injector, recorders) -> None:
    """Fold per-rank fault logs and trace data back into launcher state."""
    for rank in sorted(extras_by_rank):
        extras = extras_by_rank[rank]
        log = extras.get("fault_log")
        if log and injector is not None:
            injector.absorb_log(log)
        tr = extras.get("trace")
        if tr is not None and recorders is not None:
            spans, counters, totals = tr
            recorders[rank].absorb(spans, counters, totals)
