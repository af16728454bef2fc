"""The simulated MPI communicator.

Implementation notes
--------------------

Collectives are one *row exchange*, written once in
:meth:`Communicator._rendezvous` for both fabrics: each rank posts its
contribution, with its :data:`trace record <CollectiveRecord>` (kind, reduce
op, root, payload signature), to a per-source FIFO on every peer, then waits
until every peer's row has arrived in its own FIFOs.  Because SPMD programs
call collectives in program order on every rank, the k-th row from a source
is that rank's k-th collective, so no barrier is needed and a rank may leave
a collective while a peer is still collecting -- the eventual-completion
semantics real MPI collectives have.  The contribution is captured when it
is posted, so the caller may reuse its buffer as soon as the collective
returns.  The only per-fabric step is how a row reaches a peer
(:meth:`Communicator._contribute`).

With the full row in hand each rank cross-checks the records: ranks that
reached the same collective through *different* calls -- the SPMD bug that
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
arrives.  Payloads that expose numpy buffers are copied at the send so ranks
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
    """Ranks entered the same collective through divergent calls
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


def _format_record(record: "CollectiveRecord") -> str:
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

    def __init__(self, wait: "Callable[[threading.Condition, float], Any]") -> None:
        self._messages: list[tuple[int, int, "int | None", Any]] = []
        self._cond = threading.Condition()
        self._wait = wait
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
                self._wait(self._cond, remaining)


class _CommState:
    """One rank's inbound state on one communicator, on either fabric.

    ``mailbox`` holds point-to-point messages.  ``coll`` holds collective
    rows: per source rank, a FIFO of ``(record, value)`` in post order,
    which per sender is program order -- so the k-th entry is that rank's
    k-th collective.

    ``wait(cond, timeout)`` is how a blocked receive or collective waits
    for the next arrival, called with ``cond`` held: ``Condition.wait`` on
    the thread fabric, where peers post directly; on the process fabric,
    the runtime's pump, which reads and posts the arrivals itself.
    """

    def __init__(
        self,
        wait: "Callable[[threading.Condition, float], Any]" = threading.Condition.wait,
    ) -> None:
        self.mailbox = _Mailbox(wait)
        self.coll: dict[int, deque] = {}
        self.cond = threading.Condition()
        self._wait = wait
        #: Set by :meth:`abort`; a blocked collective raises
        #: :class:`RankAbort` carrying it instead of timing out.
        self.abort_reason: str | None = None

    def post(self, source: int, record: "CollectiveRecord", value: Any) -> None:
        with self.cond:
            self.coll.setdefault(source, deque()).append((record, value))
            self.cond.notify_all()

    def wait(self, timeout: float) -> None:
        """Wait, holding :attr:`cond`, for the next arrival or ``timeout``."""
        self._wait(self.cond, timeout)

    def abort(self, reason: str) -> None:
        """Release this rank's blocked receives and collectives."""
        self.mailbox.abort(reason)
        with self.cond:
            self.abort_reason = reason
            self.cond.notify_all()


class _Context:
    """Shared state for one thread-fabric communicator: every rank's
    :class:`_CommState`, plus the trace and fault settings."""

    def __init__(self, size: int, trace: bool = False, injector=None) -> None:
        self.size = size
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
        self.states = [_CommState() for _ in range(size)]
        #: Set by :meth:`abort`, so a sub-communicator created afterwards
        #: starts aborted.
        self.abort_reason: str | None = None
        #: Sub-communicator contexts by (split collective seq, color), so
        #: every member of a group finds the same one and an abort cascades
        #: into it.
        self.children: dict[tuple[int, int], "_Context"] = {}
        self.lock = threading.Lock()

    def abort(self, reason: str) -> None:
        """Release every rank blocked anywhere in this context tree."""
        with self.lock:
            self.abort_reason = reason
            children = list(self.children.values())
        for st in self.states:
            st.abort(reason)
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
            self._deliver(dest, tag, payload, seq, copies=2 if kind == "duplicate" else 1)

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

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        """Blocking receive.  ``timeout`` overrides the communicator-wide
        watchdog for this call only (resilience policies use short waits to
        probe a possibly-dead peer without stalling the step loop)."""
        _, _, payload = self._ctx.states[self._rank].mailbox.get(
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
        src, t, payload = self._ctx.states[self._rank].mailbox.get(
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
    def _collective_timeout(self, missing: list[int], arrived: list[int]) -> MPIError:
        return MPIError(
            f"collective timed out after {self._timeout:g}s: likely "
            "mismatched collective calls across ranks (deadlock); "
            f"ranks {missing or '[]'} had not arrived at this collective "
            f"(arrived: {arrived})" + self._history_hint()
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

    def _check_trace(self, records: list["CollectiveRecord"]) -> None:
        """Cross-check the just-collected record row; raise on divergence.

        Every rank sees the identical row and performs the identical check,
        so a divergence raises on *all* ranks at the same collective -- an
        immediate, diagnosable failure where real MPI would deadlock.  A
        sequence skew (a rank that swallowed a failed collective and went
        on) pairs rows from different calls and is reported the same way.
        """
        mismatch: str | None = None
        kinds = {r[1] for r in records}
        if len(kinds) > 1:
            mismatch = "divergent collective kinds across ranks"
        elif len({r[0] for r in records}) > 1:
            mismatch = "divergent collective sequence numbers across ranks"
        elif len({r[2] for r in records}) > 1:
            mismatch = "divergent reduce ops across ranks"
        elif len({r[3] for r in records}) > 1:
            mismatch = "divergent roots across ranks"
        elif next(iter(kinds)) in _REDUCING_KINDS and len({r[4] for r in records}) > 1:
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

    #: Seconds a rank that sees the job abort keeps collecting rows still
    #: on their way.  Zero on threads: a row is posted before its rank can
    #: raise, so a completed collective is always already complete here.
    _abort_grace = 0.0

    def _rendezvous(self, value: Any, record: "CollectiveRecord") -> list[Any]:
        """Post this rank's row to every peer, collect every peer's row,
        cross-check the records and return the values in rank order: the
        caller's own value, and each peer's value as its fabric captured it.
        """
        peers = [p for p in range(self.size) if p != self._rank]
        if peers:
            self._contribute(peers, record, value)
        records: list = [None] * self.size
        values: list = [None] * self.size
        records[self._rank] = record
        values[self._rank] = value
        st = self._ctx.states[self._rank]
        deadline = time.monotonic() + self._timeout
        grace_end: "float | None" = None
        with st.cond:
            while True:
                # Completeness first: every row was posted before its rank
                # could raise, so a rank holding the full row reports the
                # real divergence, not collateral RankAbort.
                missing = [p for p in peers if not st.coll.get(p)]
                if not missing:
                    for p in peers:
                        records[p], values[p] = st.coll[p].popleft()
                    break
                now = time.monotonic()
                if st.abort_reason is not None:
                    if grace_end is None:
                        grace_end = now + self._abort_grace
                    if now >= grace_end:
                        raise RankAbort(f"collective aborted: {st.abort_reason}")
                    st.wait(0.01)
                    continue
                if now >= deadline:
                    arrived = [r for r in range(self.size) if r not in missing]
                    raise self._collective_timeout(missing, arrived)
                st.wait(deadline - now)
        self._check_trace(records)
        return values

    # -- the fabric seam: what a backend implements -------------------------
    # The methods from here to ``_child`` are the whole difference between
    # the thread fabric (below) and the pipe/shared-memory fabric
    # (:class:`~repro.mpi.process_backend.ProcessCommunicator`).
    def _deliver(
        self, dest: int, tag: int, payload: Any, seq: "int | None", copies: int = 1
    ) -> None:
        """Deliver ``payload`` now, ``copies`` times."""
        payload = _copy_payload(payload)
        for _ in range(copies):
            self._ctx.states[dest].mailbox.put(self._rank, tag, payload, seq=seq)

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
        box = self._ctx.states[dest].mailbox
        box.put_pending(self._rank, tag, seq)
        timer = threading.Timer(
            delay, box.fulfill, args=(self._rank, seq, _copy_payload(payload))
        )
        timer.daemon = True
        timer.start()

    def _contribute(
        self, peers: list[int], record: "CollectiveRecord", value: Any
    ) -> None:
        """Post this rank's collective row to each of ``peers``.  The value
        is copied once, here, and the peers share that copy: the caller may
        reuse its buffer as soon as the collective returns."""
        row = _copy_payload(value)
        for p in peers:
            self._ctx.states[p].post(self._rank, record, row)

    def _child(self, members: list[int], color: int) -> "Communicator | None":
        """The sub-communicator over parent ranks ``members`` (in new-rank
        order); called on every rank of a ``split``, with ``members`` empty
        where ``color < 0``.  The group's context is keyed by (split
        collective seq, color) -- identical on every member, because
        collectives run in program order -- and the first member to get
        there creates it."""
        if not members:
            return None
        ctx = self._ctx
        key = (self._seq, color)
        with ctx.lock:
            child = ctx.children.get(key)
            if child is None:
                child = ctx.children[key] = _Context(
                    len(members), trace=ctx.trace, injector=ctx.injector
                )
                if ctx.abort_reason is not None:
                    child.abort(ctx.abort_reason)
        return Communicator(child, members.index(self._rank), timeout=self._timeout)

    def barrier(self) -> None:
        self._exchange(None, self._record("barrier"))

    def _exchange(self, value: Any, record: "CollectiveRecord") -> list[Any]:
        """Enter one collective: count its bytes, take the straggler draw,
        then rendezvous.  Rows come back as the fabric holds them (the
        caller's own object; on threads, one copy shared by every peer), so
        every collective hands back private copies, and reductions fold
        them in rank order: every rank folds identically, so every rank gets
        an identical result."""
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
