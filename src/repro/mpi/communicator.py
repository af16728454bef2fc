"""The simulated MPI communicator.

Implementation notes
--------------------

Collectives use a *slot exchange*: each rank deposits its contribution into a
shared, per-communicator slot array, a cyclic barrier releases everyone once
all contributions are present, each rank reads what it needs, and a second
barrier wait guarantees all reads complete before any rank's next collective
reuses the slots.  Because SPMD programs call collectives in program order on
every rank, two barrier phases per collective are sufficient -- the same
two-phase discipline real cyclic-barrier collectives use.

Every collective also deposits a :data:`trace record <CollectiveRecord>`
(kind, reduce op, root, payload signature) alongside its payload.  After the
first barrier phase each rank cross-checks the whole record row: ranks that
reached the same barrier through *different* collectives -- the SPMD bug that
manifests as a silent deadlock in real MPI -- raise an immediate
:class:`CollectiveMismatchError` printing the per-rank divergence, instead of
burning the :data:`DEFAULT_TIMEOUT` watchdog.  Reduction-family collectives
additionally fast-fail on incompatible payload shapes/dtypes/ops.  With
``trace_collectives=True`` (see :func:`~repro.mpi.launcher.run_spmd`) records
carry call sites and a per-rank rolling history for richer diagnostics, and
wildcard (``ANY_SOURCE``/``ANY_TAG``) receives that race against multiple
matching sends are flagged on :attr:`Communicator.race_events`.

Point-to-point messaging uses one mailbox (list + condition variable) per
receiving rank; ``recv`` blocks until a message matching ``(source, tag)``
arrives.  Payloads that expose numpy buffers are copied on receive so ranks
cannot alias each other's memory -- that would silently break the zero-copy
accounting experiments.

With a :class:`~repro.faults.FaultInjector` attached
(``run_spmd(faults=...)``) the fabric injects message-level faults at the
``mpi.send`` site: *delay* (delivery deferred), *duplicate* (delivered
twice), and *drop* (the message is lost; the transport's reliable-delivery
layer retransmits it after a timeout, counted as
``resilience::retransmit``).  Faulted messages carry per-(source, dest)
sequence numbers; the receiving mailbox restores MPI's non-overtaking
guarantee by matching in sequence order and discards duplicate deliveries,
so a program's *results* under message faults are identical to the
fault-free run -- only the timing differs.  Rank stalls are injected at
collective entry (``mpi.collective``).  Without an injector every hook is
one ``is None`` check.

When any rank of the job fails, the launcher aborts the shared context:
peers blocked in collectives *or* point-to-point receives are released
immediately with :class:`RankAbort` (naming the failing rank) instead of
burning the watchdog timeout.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from typing import Any, Callable

import numpy as np

from repro.mpi.ops import SUM, ReduceOp

ANY_SOURCE = -1
ANY_TAG = -1

#: Seconds a blocked collective/recv waits before declaring deadlock.  SPMD
#: programs under test should never legitimately block this long.
DEFAULT_TIMEOUT = 120.0

#: Collectives whose deposited payloads must be shape/dtype/op compatible
#: across ranks for the fold to be well defined.
_REDUCING_KINDS = frozenset({"reduce", "allreduce", "exscan"})

#: Per-rank collective records retained for trace diagnostics.
_HISTORY_LIMIT = 32

_MPI_DIR = os.path.dirname(os.path.abspath(__file__))

#: The world rank owning the current thread, set by the launcher.  Fault
#: draws key on it instead of the (communicator-local) rank: a thread's
#: sends on the world communicator and on sub-communicators then share one
#: deterministic per-rank draw sequence, where per-facade ranks would
#: collide across groups (world rank 0 vs. some group's rank 0) and make
#: rule draws depend on thread scheduling.
_thread_world_rank = threading.local()

#: Payload sentinel for an in-flight (delayed/retransmitted) envelope.
_PENDING = object()


class MPIError(RuntimeError):
    """Raised for misuse of the communicator (mismatched calls, deadlock)."""


class CollectiveMismatchError(MPIError):
    """Ranks entered the same barrier through divergent collective calls
    (different kinds, reduce ops, roots, or incompatible payloads)."""


class RankAbort(MPIError):
    """This rank was released from a blocking operation because *another*
    rank failed -- collateral damage, not a root cause.  The launcher
    reports these separately from the originating failure."""


#: A collective trace record: ``(seq, kind, op, root, payload_sig, site)``.
CollectiveRecord = tuple[int, str, "str | None", "int | None", "tuple | None", "str | None"]


def _payload_signature(value: Any) -> tuple:
    """Shape/dtype signature for reduction compatibility checks.

    All Python/NumPy numeric scalars fold interchangeably, so they share
    one signature; ndarrays are compared by shape and dtype; other payload
    types (e.g. mergeable dataclasses under a custom op) by type name.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, str(value.dtype))
    if isinstance(value, (bool, int, float, complex, np.number)):
        return ("scalar",)
    return (type(value).__name__,)


def _payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload, for trace byte counters.

    Arrays and buffers count exactly; scalars count as 8 bytes; containers
    sum their members.  Only called when a trace recorder is attached.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (bool, int, float, complex, np.number)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (tuple, list)):
        return sum(_payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_nbytes(v) for v in payload.values())
    return 0


def _format_signature(sig: "tuple | None") -> str:
    if sig is None:
        return ""
    if sig[0] == "ndarray":
        return f"ndarray(shape={sig[1]}, dtype={sig[2]})"
    return sig[0]


def _call_site() -> str:
    """First stack frame outside this package (best-effort, debug only)."""
    frame = sys._getframe(1)
    while frame is not None and os.path.dirname(
        os.path.abspath(frame.f_code.co_filename)
    ) == _MPI_DIR:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    return (
        f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno} "
        f"in {frame.f_code.co_name}"
    )


def _format_record(record: "CollectiveRecord | None") -> str:
    if record is None:
        return "<no record>"
    seq, kind, op, root, sig, site = record
    parts = []
    if op is not None:
        parts.append(f"op={op}")
    if root is not None:
        parts.append(f"root={root}")
    if sig is not None:
        parts.append(f"payload={_format_signature(sig)}")
    call = f"{kind}({', '.join(parts)})"
    where = f" at {site}" if site else ""
    return f"#{seq} {call}{where}"


class _Mailbox:
    """Per-rank inbound message store with tag/source matching.

    Entries are ``(source, tag, seq, payload)``.  ``seq`` is None on the
    fault-free path; under fault injection it is the sender's per-(source,
    dest) sequence number.  Sequenced entries are matched lowest-(source,
    seq)-first, and a sequence delivered once is discarded on re-delivery
    (injected duplicates).

    A delayed or dropped-then-retransmitted message leaves a *pending*
    envelope (:data:`_PENDING` payload) in the store immediately: its
    (source, tag, seq) are known -- the message is in flight -- but it is
    not yet deliverable.  A receive whose pattern matches a pending
    envelope with a lower sequence number than any deliverable match WAITS
    for it, which is exactly MPI's non-overtaking rule: same-(source,
    pattern) messages arrive in send order, while receives for other tags
    overtake freely.
    """

    def __init__(self) -> None:
        self._messages: list[tuple[int, int, "int | None", Any]] = []
        self._cond = threading.Condition()
        self._delivered: dict[int, set[int]] = {}
        self._abort_reason: str | None = None

    def put(self, source: int, tag: int, payload: Any, seq: "int | None" = None) -> None:
        with self._cond:
            self._messages.append((source, tag, seq, payload))
            self._cond.notify_all()

    def put_pending(self, source: int, tag: int, seq: int) -> None:
        """Register an in-flight envelope (delayed/retransmitted message)."""
        with self._cond:
            self._messages.append((source, tag, seq, _PENDING))

    def fulfill(self, source: int, seq: int, payload: Any) -> None:
        """Deliver the payload of a pending envelope."""
        with self._cond:
            for idx, (src, t, s, body) in enumerate(self._messages):
                if src == source and s == seq and body is _PENDING:
                    self._messages[idx] = (src, t, s, payload)
                    break
            self._cond.notify_all()

    def abort(self, reason: str) -> None:
        """Release all blocked receivers with :class:`RankAbort`."""
        with self._cond:
            self._abort_reason = reason
            self._cond.notify_all()

    def _match(self, source: int, tag: int) -> int | None:
        best: int | None = None
        best_key: tuple[int, int] | None = None
        pending_key: tuple[int, int] | None = None
        for idx, (src, t, seq, body) in enumerate(self._messages):
            if (source == ANY_SOURCE or src == source) and (
                tag == ANY_TAG or t == tag
            ):
                if seq is None:
                    # Fault-free path: plain FIFO arrival order.
                    return idx
                key = (src, seq)
                if body is _PENDING:
                    if pending_key is None or key < pending_key:
                        pending_key = key
                elif best_key is None or key < best_key:
                    best, best_key = idx, key
        if pending_key is not None and (best_key is None or pending_key < best_key):
            # An earlier matching message is still in flight; taking the
            # later one would violate non-overtaking order.
            return None
        return best

    def get(
        self,
        source: int,
        tag: int,
        timeout: float,
        race_cb: "Callable[[list[tuple[int, int]]], None] | None" = None,
    ) -> tuple[int, int, Any]:
        with self._cond:
            deadline = time.monotonic() + timeout
            while True:
                if self._abort_reason is not None:
                    raise RankAbort(
                        f"recv(source={source}, tag={tag}) aborted: "
                        + self._abort_reason
                    )
                idx = self._match(source, tag)
                if idx is not None:
                    if race_cb is not None and (
                        source == ANY_SOURCE or tag == ANY_TAG
                    ):
                        matches = [
                            (src, t)
                            for src, t, _, body in self._messages
                            if body is not _PENDING
                            and (source == ANY_SOURCE or src == source)
                            and (tag == ANY_TAG or t == tag)
                        ]
                        if len(matches) > 1:
                            race_cb(matches)
                    src, t, seq, payload = self._messages.pop(idx)
                    if seq is not None:
                        seen = self._delivered.setdefault(src, set())
                        if seq in seen:
                            continue  # injected duplicate: already delivered
                        seen.add(seq)
                    return src, t, payload
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPIError(
                        f"recv(source={source}, tag={tag}) timed out: "
                        "likely deadlock or missing send"
                    )
                self._cond.wait(remaining)


class _Context:
    """Shared state for one communicator: slots, barrier, mailboxes."""

    def __init__(self, size: int, trace: bool = False, injector=None) -> None:
        self.size = size
        self.slots: list[Any] = [None] * size
        #: One collective trace record per rank, deposited alongside the
        #: payload and cross-checked after the first barrier phase.
        self.trace_slots: list["CollectiveRecord | None"] = [None] * size
        #: Debug tracing: call sites + rolling per-rank history + wildcard
        #: receive race flagging.  The cross-check itself is always on.
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector`; None keeps every
        #: fault hook to a single pointer comparison.
        self.injector = injector
        self.histories: list[deque] = [
            deque(maxlen=_HISTORY_LIMIT) for _ in range(size)
        ]
        self.race_events: list[dict] = []
        self.barrier = threading.Barrier(size)
        self.mailboxes = [_Mailbox() for _ in range(size)]
        #: Per-rank count of barrier-phase entries; on a collective timeout
        #: the counts tell which ranks had / had not arrived.
        self.sync_counts = [0] * size
        #: Set by :meth:`abort`; blocked peers raise :class:`RankAbort`
        #: carrying this reason instead of timing out.
        self.abort_reason: str | None = None
        #: Sub-communicator contexts, so an abort cascades into them.
        self.children: list["_Context"] = []
        # Serializes sub-communicator creation bookkeeping.
        self.lock = threading.Lock()
        self.split_results: dict[int, "_Context"] = {}

    def abort(self, reason: str) -> None:
        """Release every rank blocked anywhere in this context tree."""
        self.abort_reason = reason
        self.barrier.abort()
        for box in self.mailboxes:
            box.abort(reason)
        with self.lock:
            children = list(self.children)
        for child in children:
            child.abort(reason)


def _copy_payload(payload: Any) -> Any:
    """Copy numpy buffers crossing the simulated address-space boundary."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_copy_payload(p) for p in payload)
    if isinstance(payload, list):
        return [_copy_payload(p) for p in payload]
    if isinstance(payload, dict):
        return {k: _copy_payload(v) for k, v in payload.items()}
    return payload


class Communicator:
    """An MPI-like communicator bound to one simulated rank.

    Unlike mpi4py, one Python object per (context, rank) pair: each rank
    thread holds its own ``Communicator`` facade over the shared context.
    """

    def __init__(self, context: _Context, rank: int, timeout: float = DEFAULT_TIMEOUT):
        self._ctx = context
        self._rank = rank
        self._timeout = timeout
        #: This rank's collective sequence number (for trace diagnostics).
        self._seq = 0
        #: Per-destination send sequence numbers, used only under fault
        #: injection (ordering + duplicate suppression at the receiver).
        self._send_seqs: dict[int, int] = {}
        #: Structured-trace recorder (see :mod:`repro.trace`); None keeps
        #: every hook to a single pointer comparison.
        self._trace_recorder = None

    @classmethod
    def single_rank(cls) -> "Communicator":
        """A one-rank communicator outside any ``run_spmd`` job (the
        ``MPI_COMM_SELF`` of this runtime)."""
        return cls(_Context(1), 0)

    @property
    def timeout(self) -> float:
        """The collective/recv watchdog, in seconds.  Settable so recovery
        policies can shorten the wait at specific sites (e.g. the staging
        flow-control handshake) without rebuilding the communicator."""
        return self._timeout

    @timeout.setter
    def timeout(self, value: float) -> None:
        if value <= 0:
            raise ValueError("timeout must be positive")
        self._timeout = float(value)

    @property
    def fault_injector(self):
        """The job's :class:`repro.faults.FaultInjector`, or None."""
        return self._ctx.injector

    def _draw_rank(self) -> int:
        """The rank identity fault draws key on (world rank when known)."""
        return getattr(_thread_world_rank, "rank", self._rank)

    # -- structured tracing ------------------------------------------------
    def attach_trace(self, recorder) -> None:
        """Attach a :class:`repro.trace.TraceRecorder` for byte counters.

        Every collective then samples ``mpi::<kind>::bytes`` (this rank's
        contributed payload bytes, accumulated) and point-to-point sends
        sample ``mpi::send::bytes``.  Sub-communicators created by
        :meth:`split`/:meth:`dup` inherit the recorder.
        """
        self._trace_recorder = recorder

    @property
    def trace_recorder(self):
        """The attached structured-trace recorder, or None."""
        return self._trace_recorder

    # -- introspection ----------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._ctx.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Communicator(rank={self._rank}, size={self.size})"

    # -- point to point ----------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Eager, non-blocking-complete send (buffered semantics).

        The payload is captured before ``send`` returns, on every path, so
        the caller may reuse its buffer at once.

        Under fault injection (``mpi.send`` site) the message may be
        delayed, duplicated, or dropped-and-retransmitted; see the module
        docstring.  Results are unaffected -- sequence numbers restore
        delivery order and suppress duplicates at the receiver.
        """
        if not 0 <= dest < self.size:
            raise MPIError(f"send dest {dest} out of range (size {self.size})")
        rec = self._trace_recorder
        if rec is not None:
            rec.count("mpi::send::bytes", _payload_nbytes(payload))
        inj = self._ctx.injector
        if inj is None:
            self._deliver(dest, tag, payload, None)
            return
        seq = self._send_seqs.get(dest, 0)
        self._send_seqs[dest] = seq + 1
        action = inj.draw("mpi.send", self._draw_rank(), trace=rec)
        kind = action.kind if action is not None else None
        if kind == "delay":
            self._deliver_later(
                dest, tag, payload, seq, float(action.params.get("seconds", 0.005))
            )
        elif kind == "drop":
            # The message is lost on the wire; the reliable-transport layer
            # notices (retransmission timeout) and resends the same seq.
            if rec is not None:
                rec.count("resilience::retransmit", 1)
            self._deliver_later(
                dest, tag, payload, seq,
                float(action.params.get("retransmit_after", 0.01)),
            )
        else:
            # A duplicate is delivered twice (the receiver's seq dedup
            # discards the copy); unknown kinds deliver normally.
            self._deliver(
                dest, tag, payload, seq,
                copies=2 if kind == "duplicate" else 1,
                faulted=action is not None,
            )

    def _race_cb(
        self, source: int, tag: int
    ) -> "Callable[[list[tuple[int, int]]], None] | None":
        """Race sink for wildcard receives, active only under tracing."""
        if not self._ctx.trace:
            return None

        def record(matches: list[tuple[int, int]]) -> None:
            event = {
                "rank": self._rank,
                "source": source,
                "tag": tag,
                "candidates": matches,
                "site": _call_site(),
            }
            with self._ctx.lock:
                self._ctx.race_events.append(event)

        return record

    @property
    def race_events(self) -> list[dict]:
        """Wildcard receives that matched >1 pending send (trace mode only).

        Each event records the receiving rank, the wildcard pattern, the
        ``(source, tag)`` candidates that raced, and the receive call site.
        A nonempty list means the program's result can depend on thread
        scheduling -- the nondeterminism real MPI ``ANY_SOURCE`` races
        exhibit at scale.
        """
        with self._ctx.lock:
            return list(self._ctx.race_events)

    @property
    def collective_history(self) -> list["CollectiveRecord"]:
        """This rank's recent collective records (trace mode only)."""
        return list(self._ctx.histories[self._rank])

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        """Blocking receive.  ``timeout`` overrides the communicator-wide
        watchdog for this call only (resilience policies use short waits to
        probe a possibly-dead peer without stalling the step loop)."""
        _, _, payload = self._ctx.mailboxes[self._rank].get(
            source,
            tag,
            self._timeout if timeout is None else timeout,
            race_cb=self._race_cb(source, tag),
        )
        return payload

    def recv_with_status(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> tuple[Any, int, int]:
        """Receive returning ``(payload, source, tag)``."""
        src, t, payload = self._ctx.mailboxes[self._rank].get(
            source,
            tag,
            self._timeout if timeout is None else timeout,
            race_cb=self._race_cb(source, tag),
        )
        return payload, src, t

    def sendrecv(
        self, payload: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = ANY_TAG
    ) -> Any:
        """Simultaneous exchange; safe because sends are buffered."""
        self.send(payload, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives -------------------------------------------------------
    def _sync(self) -> None:
        counts = self._ctx.sync_counts
        counts[self._rank] += 1
        try:
            self._ctx.barrier.wait(timeout=self._timeout)
        except threading.BrokenBarrierError as exc:
            mine = counts[self._rank]
            reason = self._ctx.abort_reason
            if reason is not None:
                # An abort can race the barrier wake-up: if every rank had
                # already arrived at this phase (counters advance only after
                # the slot deposit), the exchange was complete and this rank
                # may proceed -- letting it surface its *own* error instead
                # of being misclassified as collateral damage.
                if all(counts[r] >= mine for r in range(self.size)):
                    return
                raise RankAbort(f"collective aborted: {reason}") from exc
            # Benign racy reads: each slot is written only by its own rank,
            # and a rank that arrives during the report at worst moves from
            # the missing list to the arrived list.
            arrived = sorted(r for r in range(self.size) if counts[r] >= mine)
            missing = sorted(r for r in range(self.size) if counts[r] < mine)
            raise self._collective_timeout(missing, arrived) from exc

    def _collective_timeout(self, missing: list[int], arrived: list[int]) -> MPIError:
        return MPIError(
            f"collective timed out after {self._timeout:g}s: likely "
            "mismatched collective calls across ranks (deadlock); "
            f"ranks {missing or '[]'} had not arrived at this barrier "
            f"phase (arrived: {arrived})" + self._history_hint()
        )

    def _history_hint(self) -> str:
        if not self._ctx.trace:
            return ""
        lines = [_format_record(r) for r in self._ctx.histories[self._rank]]
        if not lines:
            return ""
        joined = "\n  ".join(lines)
        return f"\nrecent collectives on rank {self._rank}:\n  {joined}"

    def _record(
        self,
        kind: str,
        op: "ReduceOp | None" = None,
        root: "int | None" = None,
        value: Any = None,
    ) -> "CollectiveRecord":
        """Build this collective's trace record (cheap unless tracing)."""
        self._seq += 1
        sig = _payload_signature(value) if kind in _REDUCING_KINDS else None
        site = _call_site() if self._ctx.trace else None
        record = (self._seq, kind, op.name if op is not None else None, root, sig, site)
        if self._ctx.trace:
            self._ctx.histories[self._rank].append(record)
        return record

    def _check_trace(self, records: list["CollectiveRecord | None"]) -> None:
        """Cross-check the just-deposited record row; raise on divergence.

        Every rank sees the identical row and performs the identical check,
        so a divergence raises on *all* ranks at the same barrier -- an
        immediate, diagnosable failure where real MPI would deadlock.
        """
        mismatch: str | None = None
        kinds = {r[1] for r in records if r is not None}
        ops = {r[2] for r in records if r is not None}
        roots = {r[3] for r in records if r is not None}
        if None in records or len(kinds) > 1:
            mismatch = "divergent collective kinds across ranks"
        elif len(ops) > 1:
            mismatch = "divergent reduce ops across ranks"
        elif len(roots) > 1:
            mismatch = "divergent roots across ranks"
        elif next(iter(kinds)) in _REDUCING_KINDS:
            sigs = {r[4] for r in records if r is not None}
            if len(sigs) > 1:
                mismatch = "incompatible reduction payloads across ranks"
        if mismatch is None:
            return
        per_rank = "\n".join(
            f"  rank {rank}: {_format_record(rec)}"
            for rank, rec in enumerate(records)
        )
        hint = (
            ""
            if self._ctx.trace
            else "\n(run with trace_collectives=True for call sites and history)"
        )
        raise CollectiveMismatchError(
            f"collective trace divergence: {mismatch}\n{per_rank}"
            f"{self._history_hint()}{hint}"
        )

    # -- the fabric seam: what a backend implements -------------------------
    # The methods from here to ``_child`` are the whole difference between
    # the thread fabric (below) and the pipe/shared-memory fabric
    # (:class:`~repro.mpi.process_backend.ProcessCommunicator`).
    def _deliver(
        self, dest: int, tag: int, payload: Any, seq: "int | None",
        copies: int = 1, faulted: bool = False,
    ) -> None:
        """Deliver ``payload`` now, ``copies`` times.  ``faulted`` marks an
        envelope the ``mpi.send`` site touched (it may be decoded twice)."""
        payload = _copy_payload(payload)
        for _ in range(copies):
            self._ctx.mailboxes[dest].put(self._rank, tag, payload, seq=seq)

    def _deliver_later(
        self, dest: int, tag: int, payload: Any, seq: int, delay: float
    ) -> None:
        """Deliver ``payload`` after ``delay`` seconds (injected delays and
        drop-retransmits).  The envelope is registered immediately -- the
        message is in flight, so later same-pattern messages must not
        overtake it; only the payload arrives late.  Daemon timers: a
        delivery racing job teardown lands in a mailbox nobody reads,
        exactly like a late packet arriving after the receiver exited.
        """
        box = self._ctx.mailboxes[dest]
        box.put_pending(self._rank, tag, seq)
        timer = threading.Timer(
            delay, box.fulfill, args=(self._rank, seq, _copy_payload(payload))
        )
        timer.daemon = True
        timer.start()

    def _rendezvous(self, value: Any, record: "CollectiveRecord") -> list[Any]:
        """Deposit ``value`` + trace record, cross-check the records once all
        ranks arrive, and return everyone's deposits.  Two-phase."""
        self._ctx.slots[self._rank] = value
        self._ctx.trace_slots[self._rank] = record
        self._sync()
        self._check_trace(list(self._ctx.trace_slots))
        values = list(self._ctx.slots)
        self._sync()
        return values

    def _child(self, members: list[int], color: int) -> "Communicator | None":
        """The sub-communicator over parent ranks ``members`` (in new-rank
        order); called on every rank of a ``split``, with ``members`` empty
        where ``color < 0``."""
        ctx = self._ctx
        # Lowest parent-rank member of each group creates the shared context.
        if members and self._rank == min(members):
            child = _Context(len(members), trace=ctx.trace, injector=ctx.injector)
            with ctx.lock:
                ctx.split_results[self._rank] = child
                # Registered so a job abort cascades into the child's
                # barrier and mailboxes too.
                ctx.children.append(child)
        self._sync()
        result: Communicator | None = None
        if members:
            with ctx.lock:
                child = ctx.split_results[min(members)]
            result = Communicator(
                child, members.index(self._rank), timeout=self._timeout
            )
        self._sync()
        # Rank 0 clears before it can enter any subsequent collective's
        # barrier, so the cleanup cannot race a later split's publish.
        if self._rank == 0:
            with ctx.lock:
                ctx.split_results.clear()
        return result

    def barrier(self) -> None:
        self._exchange(None, self._record("barrier"))

    def _exchange(self, value: Any, record: "CollectiveRecord") -> list[Any]:
        """Enter one collective: count its bytes, take the straggler draw,
        then rendezvous.  Rows come back as the fabric holds them (on
        threads, the peers' own objects), so every collective hands back
        private copies, and reductions fold them in rank order: every rank
        folds identically, so every rank gets an identical result."""
        rec = self._trace_recorder
        if rec is not None:
            rec.count(f"mpi::{record[1]}::bytes", _payload_nbytes(value))
        inj = self._ctx.injector
        if inj is not None:
            # Straggler injection: this rank enters the collective late.
            action = inj.draw("mpi.collective", self._draw_rank(), trace=rec)
            if action is not None and action.kind == "stall":
                time.sleep(float(action.params.get("seconds", 0.001)))
        return self._rendezvous(value, record)

    def allgather(self, value: Any) -> list[Any]:
        rows = self._exchange(value, self._record("allgather"))
        return _copy_payload(rows)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        rows = self._exchange(value, self._record("gather", root=root))
        if self._rank == root:
            return _copy_payload(rows)
        return None

    def bcast(self, value: Any, root: int = 0) -> Any:
        rows = self._exchange(
            value if self._rank == root else None, self._record("bcast", root=root)
        )
        return _copy_payload(rows[root])

    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        if self._rank == root:
            if values is None or len(values) != self.size:
                raise MPIError(
                    "scatter at root requires a list with one entry per rank"
                )
        rows = self._exchange(
            values if self._rank == root else None,
            self._record("scatter", root=root),
        )
        return _copy_payload(rows[root][self._rank])

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        rows = self._exchange(
            value, self._record("reduce", op=op, root=root, value=value)
        )
        if self._rank == root:
            return op.reduce(_copy_payload(rows))
        return None

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        rows = self._exchange(
            value, self._record("allreduce", op=op, value=value)
        )
        return op.reduce(_copy_payload(rows))

    def alltoall(self, values: list[Any]) -> list[Any]:
        if len(values) != self.size:
            raise MPIError("alltoall requires one entry per rank")
        rows = self._exchange(values, self._record("alltoall"))
        return [_copy_payload(row[self._rank]) for row in rows]

    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``."""
        rows = self._exchange(
            value, self._record("exscan", op=op, value=value)
        )
        if self._rank == 0:
            return None
        return op.reduce(_copy_payload(rows[: self._rank]))

    # -- communicator management -------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Communicator | None":
        """Partition ranks by ``color``; order within a group by ``key``.

        ``color < 0`` (MPI_UNDEFINED) yields ``None`` for that rank.
        """
        key = self._rank if key is None else key
        triples = self._exchange((color, key, self._rank), self._record("split"))
        members = (
            [r for _, r in sorted((k, r) for c, k, r in triples if c == color)]
            if color >= 0
            else []
        )
        sub = self._child(members, color)
        if sub is not None:
            sub._trace_recorder = self._trace_recorder
        return sub

    def dup(self) -> "Communicator":
        """Duplicate: a fresh context with the same group."""
        out = self.split(color=0, key=self._rank)
        assert out is not None
        return out

    # -- convenience -------------------------------------------------------
    def on_root(self, fn: Callable[[], Any], root: int = 0) -> Any:
        """Run ``fn`` on ``root`` only and broadcast its result."""
        value = fn() if self._rank == root else None
        return self.bcast(value, root=root)
