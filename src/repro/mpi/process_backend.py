"""Process-backed SPMD runtime: one OS process per rank.

The thread backend (:mod:`repro.mpi.launcher`) serializes every
numpy-heavy rank on the GIL, which understates contention and can hide
ordering bugs that only appear under true concurrency.  This backend runs
the identical :class:`~repro.mpi.communicator.Communicator` program with
one *process* per rank:

- **Transport** is one pipe per ordered rank pair.  The calling thread
  pickles an envelope (protocol 5: a writable array of at least
  :data:`_OOB_MIN` bytes leaves the pickle stream as an out-of-band
  buffer) and writes it before ``send`` or a collective contribution
  returns.  A frame's *body* -- the pickle stream plus the out-of-band
  buffers -- larger than the pipe goes into one consume-once ``/dev/shm``
  segment (:mod:`repro.mpi.shm`), and only its head crosses the pipe;
  any other body follows its head down the pipe.  Writes never block:
  bytes a full pipe cannot take are copied into the sender's backlog and
  written by its next wait, so two ranks flooding each other cannot
  deadlock.  No helper thread runs in a rank.
  A rank that waits -- in a receive or a collective -- moves its own
  bytes: it polls its pipes, writes its backlog, and routes each arriving
  envelope into per-communicator mailboxes (the same
  :class:`~repro.mpi.communicator._Mailbox` the thread backend uses, so
  tag/source matching, the pending-envelope non-overtaking rule, and
  sequence-number duplicate suppression are literally the same code).  An
  out-of-band buffer is read straight into the memory of the array the
  receiver gets, from the pipe or from the segment.  A segment the rank
  cannot read (missing or short) aborts it with a
  :class:`~repro.mpi.shm.SegmentError` naming it, rather than leaving its
  receiver to time out.
- **Collectives** are the base class's row exchange; this fabric only
  carries a row to a peer, as a ``coll`` envelope that the waiting peer
  posts to the communicator's per-source FIFO -- the same
  :class:`~repro.mpi.communicator._CommState` the thread fabric posts to
  directly.  A contribution is pickled once and framed for each peer as
  a send is (a body past the pipe: one segment per peer).  The
  ``mpi::<kind>::bytes`` counter is split into ``::shm`` and ``::pickled``
  so traces prove which transport carried the bytes.
- **Faults** are the ``mpi.send`` / ``mpi.collective`` sites the base
  :class:`~repro.mpi.communicator.Communicator` owns; this fabric only
  implements "deliver now" and "deliver later" (delay and drop-retransmit
  pickle the envelope at the call and write it at the sender's first wait,
  or exit, after the delay has passed).  Each
  worker rebuilds its :class:`~repro.faults.FaultInjector` from the
  (immutable) plan; because draws are counter-hashed per (site, rank,
  occurrence) and every site draws with rank identities unique to that
  process, the per-rank logs merge into the same deterministic schedule
  the shared-injector thread backend produces.
- **Failure handling** mirrors ``MPI_Abort``: a worker that raises reports
  its exception to the launcher over its control pipe; the launcher writes
  an abort to every rank's control pipe (releasing blocked receives and
  collectives with :class:`~repro.mpi.communicator.RankAbort`), gives the
  ranks :data:`_EXIT_GRACE` to report, and terminates/kills the rest -- a
  failed job never leaves orphaned rank processes behind.

Ranks are started with ``fork``, so a closure can be a program.
"""

from __future__ import annotations

import copyreg
import fcntl
import functools
import heapq
import io
import itertools
import os
import pickle
import select
import struct
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_any
from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi.communicator import (
    _HISTORY_LIMIT,
    Communicator,
    MPIError,
    RankAbort,
    _CommState,
    _payload_nbytes,
    _thread_world_rank,
)
from repro.mpi.shm import (
    SHM_PREFIX,
    SegmentError,
    cleanup_segments,
    read_segment,
    write_segment,
)

#: Communicator id of the world communicator.
_WORLD_ID = "w"

#: Seconds the launcher waits to reap a rank whose control pipe closed
#: without a report, for the exit code it names.
_DEATH_GRACE = 1.0

#: Seconds ranks get to report after an abort, and to exit after the last
#: report, before the launcher escalates to terminate()/kill().
_EXIT_GRACE = 5.0

#: Bytes each pair pipe is asked to hold (``F_SETPIPE_SZ``).  Where the
#: kernel refuses, the pipe keeps its default size, and a frame body larger
#: than that size rides a segment.
_PIPE_BYTES = 1 << 20

#: A writable contiguous array of at least this many bytes leaves the pickle
#: stream as an out-of-band buffer: written to the pipe from the array,
#: read from it into the array the receiver gets.
_OOB_MIN = 1 << 12

#: An inbound pipe reads small frames through a staging buffer this big.
_STAGE_BYTES = 1 << 16

#: Most buffers one ``readv``/``writev`` call takes (``IOV_MAX`` on Linux).
_IOV_MAX = 1024

#: Seconds a thread waits on its own condition while another thread of the
#: same rank moves the bytes (whose dispatches notify that condition).
_FOLLOW_S = 0.005

#: A frame's head is the pickle stream's length, the out-of-band buffer
#: count, the number of the segment holding the body (0: the stream and the
#: buffers follow the head on the pipe) and one u64 length per buffer.
_HEAD = struct.Struct("<IIQ")

_JOB_COUNTER = itertools.count()


# --------------------------------------------------------------------------
# Frames
# --------------------------------------------------------------------------


def _rebuild(raw: bytes, dtype: np.dtype, shape: tuple, order: str) -> np.ndarray:
    """The array :func:`_in_band` pickled, owning its memory and writable."""
    return np.frombuffer(raw, dtype).reshape(shape, order=order).copy(order="K")


def _in_band(array: np.ndarray):
    """``array`` as its bytes, dtype, shape and order in the pickle stream.
    numpy's own protocol-4 reduction is not used: under numpy 2.4 it
    rebuilds a non-native byte order as native."""
    if array.dtype.hasobject or array.dtype.itemsize == 0:
        return array.__reduce_ex__(4)  # elements pickle one by one
    order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
    return _rebuild, (array.tobytes(order), array.dtype, array.shape, order)


def _reduce_array(array: np.ndarray):
    """Large writable contiguous arrays go out of band; the rest travel in
    band and arrive writable, as a send's copy does on threads."""
    contiguous = array.flags.c_contiguous or array.flags.f_contiguous
    if array.nbytes >= _OOB_MIN and array.flags.writeable and contiguous:
        return array.__reduce_ex__(5)
    return _in_band(array)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _masked(data: np.ndarray, mask, fill_value) -> np.ma.MaskedArray:
    return np.ma.MaskedArray(data, mask=mask, fill_value=fill_value)


def _reduce_masked(array: np.ma.MaskedArray):
    """A masked array as its data, mask and fill value, each pickled by the
    same table: numpy's own masked-array pickling rebuilds a non-native
    byte order as native."""
    return _masked, (array.data, np.ma.getmask(array), array.fill_value)


def _reduce_result(array: np.ndarray):
    """A rank's returned array keeps its read-only flag: on threads the
    launcher gets the object itself."""
    if not array.flags.writeable:
        return _read_only, (array.copy(),)
    if type(array) is np.ndarray:
        return _in_band(array)
    return _reduce_masked(array)


def _dispatch_table(reduce_array: Callable, reduce_masked: Callable) -> dict:
    """``copyreg``'s table plus reducers for arrays and masked arrays.
    numpy imports ``numpy.ma`` on first use, and no masked array exists
    before it does, so a rank that never uses one does not import it."""
    table = {**copyreg.dispatch_table, np.ndarray: reduce_array}
    if "numpy.ma" in sys.modules:
        table[np.ma.MaskedArray] = reduce_masked
    return table


class _Pickler(pickle.Pickler):
    """Protocol 5, arrays reduced by :func:`_reduce_array`, out-of-band
    buffers appended to ``buffers``."""

    def __init__(self, file, buffers: list) -> None:
        self.dispatch_table = _dispatch_table(_reduce_array, _reduce_masked)
        super().__init__(file, protocol=5, buffer_callback=buffers.append)


def _pickle(env: tuple) -> tuple[bytes, list]:
    """``env`` as a pickle stream and its out-of-band buffers (byte views
    of the arrays they came from)."""
    buffers: list = []
    stream = io.BytesIO()
    _Pickler(stream, buffers).dump(env)
    return stream.getvalue(), [b.raw() for b in buffers]


def _unpickle(stream: bytes, raws: list) -> tuple:
    """A private copy of the envelope :func:`_pickle` gave."""
    return pickle.loads(stream, buffers=[bytearray(r) for r in raws])


def _head(stream: bytes, raws: list, segment: int) -> bytes:
    """The head of the frame carrying ``stream`` and ``raws``."""
    head = _HEAD.pack(len(stream), len(raws), segment)
    if raws:
        head += struct.pack(f"<{len(raws)}Q", *map(len, raws))
    return head


class _Outlet:
    """The write end of one pair pipe, and the bytes it could not take yet."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.backlog: deque = deque()
        #: The reader has exited: whatever is still owed is dropped.
        self.broken = False

    def write(self, pieces: list) -> None:
        """Write what the pipe takes now, after the backlog; keep a private
        copy of the rest, since the caller may reuse its buffers at once."""
        if self.backlog:
            self.flush()
        if not self.backlog:
            pieces = self._push(pieces)
        self.backlog.extend(bytes(p) for p in pieces)

    def flush(self) -> None:
        self.backlog = deque(self._push(list(self.backlog)))

    def _push(self, pieces: list) -> list:
        """Write ``pieces`` until the pipe is full; returns what is left."""
        while pieces and not self.broken:
            batch = pieces[:_IOV_MAX]
            try:
                n = os.writev(self.fd, batch)
            except BlockingIOError:
                return pieces
            except BrokenPipeError:
                self.broken = True
                break
            i = 0
            while i < len(batch) and n >= len(batch[i]):
                n -= len(batch[i])
                i += 1
            pieces = pieces[i:]
            if i < len(batch):  # the pipe is full
                pieces[0] = memoryview(pieces[0])[n:]
                return pieces
        return []


class _Inlet:
    """The read end of one pair pipe.  A frame may arrive in pieces, so
    reading resumes where it stopped: a small frame is cut out of a staging
    buffer, a long pickle stream or out-of-band buffer is read straight
    into the memory it ends up in, and a body in a segment is read from it
    (``prefix`` plus the head's segment number names the segment)."""

    def __init__(self, fd: int, prefix: str) -> None:
        self.fd = fd
        self.prefix = prefix
        #: The writer has exited and every byte it wrote has been read.
        self.closed = False
        self._stage = memoryview(bytearray(_STAGE_BYTES))
        self._lo = self._hi = 0  # staged bytes not yet parsed
        #: Regions of the current frame still to fill, in wire order, the
        #: bytes of the first one already filled, and what completes the
        #: frame once they are full.
        self._parts: list = []
        self._got = 0
        self._done: "Callable[[Callable], int] | None" = None

    def pull(self, dispatch: Callable[[tuple], None]) -> int:
        """Read what the pipe holds now and dispatch every whole envelope;
        returns how many were dispatched.  Raises :class:`SegmentError`
        when a body's segment cannot be read."""
        count = 0
        while True:
            count += self._parse(dispatch)
            if not self._read():
                return count

    def _parse(self, dispatch) -> int:
        stage, count = self._stage, 0
        while True:
            if self._done is not None and not self._parts:
                done, self._done = self._done, None
                count += done(dispatch)
                continue
            if self._parts:
                part = self._parts[0]
                n = min(len(part) - self._got, self._hi - self._lo)
                part[self._got : self._got + n] = stage[self._lo : self._lo + n]
                self._got += n
                self._lo += n
                if self._got < len(part):
                    return count  # the stage is empty
                self._parts.pop(0)
                self._got = 0
                continue
            if self._hi - self._lo < _HEAD.size:
                return count
            length, nbuf, segment = _HEAD.unpack_from(stage, self._lo)
            end = self._lo + _HEAD.size + 8 * nbuf + (0 if segment else length)
            if end <= self._hi:
                rest = stage[self._lo + _HEAD.size : end]
                self._lo = end
                count += self._begin(rest, length, nbuf, segment, dispatch)
            else:
                self._lo += _HEAD.size
                rest = memoryview(bytearray(end - self._lo))
                self._parts = [rest]
                self._done = functools.partial(self._begin, rest, length, nbuf, segment)

    def _begin(self, rest, length: int, nbuf: int, segment: int, dispatch) -> int:
        """A frame's head is in, and the pickle stream with it unless the
        body is in a segment: dispatch it, or allocate its out-of-band
        buffers and read them next."""
        if not nbuf and not segment:
            dispatch(pickle.loads(rest))
            return 1
        sizes = struct.unpack_from(f"<{nbuf}Q", rest)
        buffers = [np.empty(n, dtype=np.uint8) for n in sizes]
        if segment:
            stream = bytearray(length)
            read_segment(f"{self.prefix}{segment}", [stream, *buffers])
            dispatch(pickle.loads(stream, buffers=buffers))
            return 1
        stream = bytes(rest[8 * nbuf :])  # the stage will be reused
        self._parts = [memoryview(b) for b in buffers]

        def done(dispatch) -> int:
            dispatch(pickle.loads(stream, buffers=buffers))
            return 1

        self._done = done
        return 0

    def _read(self) -> bool:
        """One non-blocking read; False when the pipe holds nothing now."""
        stage = self._stage
        if self._parts:
            # The stage is empty here: read into the frame's own regions,
            # and stage whatever follows them.
            vecs = [self._parts[0][self._got :], *self._parts[1 : _IOV_MAX - 1]]
            self._lo = self._hi = 0
        else:
            left = self._hi - self._lo  # under one head
            stage[:left] = bytes(stage[self._lo : self._hi])
            self._lo, self._hi = 0, left
            vecs = []
        vecs.append(stage[self._hi :])
        try:
            n = os.readv(self.fd, vecs)
        except BlockingIOError:
            return False
        if not n:
            self.closed = True
            return False
        if self._parts:
            for part in vecs[:-1]:
                took = min(n, len(part))
                n -= took
                self._got += took
                if self._got < len(self._parts[0]):
                    break
                self._parts.pop(0)
                self._got = 0
        self._hi += n
        return True


# --------------------------------------------------------------------------
# Per-worker runtime: the rank's end of the fabric
# --------------------------------------------------------------------------


def _capacity(fd: int) -> int:
    """Ask the pipe ``fd`` to hold :data:`_PIPE_BYTES`; returns what it holds."""
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass  # the kernel keeps its default size
    try:
        return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
    except (AttributeError, OSError):
        return 1 << 16  # Linux's default pipe size


class _Wiring:
    """Every pipe of one job.  ``pairs[src, dst]`` is the ``(reader,
    writer)`` of the pipe carrying ``src``'s envelopes to ``dst``;
    ``controls[rank]`` is the ``(launcher end, rank end)`` of the rank's
    control pipe, which carries the launcher's abort one way and the rank's
    report the other; ``pipe_bytes`` is the smallest pair pipe's capacity.
    Picklable, so spawned ranks receive their ends."""

    def __init__(self, mpctx, nranks: int) -> None:
        self.pairs: dict[tuple[int, int], tuple] = {}
        self.pipe_bytes = _PIPE_BYTES
        for src in range(nranks):
            for dst in range(nranks):
                if src == dst:
                    continue
                reader, writer = mpctx.Pipe(duplex=False)
                self.pipe_bytes = min(self.pipe_bytes, _capacity(writer.fileno()))
                os.set_blocking(reader.fileno(), False)
                os.set_blocking(writer.fileno(), False)
                self.pairs[src, dst] = (reader, writer)
        self.controls = [mpctx.Pipe() for _ in range(nranks)]

    def _all(self) -> list:
        return [c for pair in (*self.pairs.values(), *self.controls) for c in pair]

    def keep(self, rank: "int | None") -> None:
        """Close every end but those of ``rank`` (None: the launcher)."""
        if rank is None:
            mine = [launcher for launcher, _ in self.controls]
        else:
            mine = [self.controls[rank][1]]
            for (src, dst), (reader, writer) in self.pairs.items():
                if src == rank:
                    mine.append(writer)
                elif dst == rank:
                    mine.append(reader)
        keep = {id(c) for c in mine}
        for conn in self._all():
            if id(conn) not in keep:
                conn.close()

    def close(self) -> None:
        for conn in self._all():
            conn.close()


class _Runtime:
    """One worker process's end of the job fabric.

    Owns the rank's pipe ends, the per-communicator states, the number of
    the next segment it writes, and the frames due later (injected
    delay/drop).  Its :meth:`pump` is the states' wait, so the thread that
    waits is the one that moves the bytes.
    """

    def __init__(self, rank: int, wiring: _Wiring, job_tag: str) -> None:
        self.rank = rank
        self.abort_reason: str | None = None
        #: The segment error that made this rank abort itself: the rank
        #: reports it as its own failure, not as collateral.
        self.failure: SegmentError | None = None
        self._states: dict[str, _CommState] = {}
        self._lock = threading.Lock()  # states and the abort reason
        self._out_lock = threading.Lock()  # outlets and frames due later
        self._pump_lock = threading.Lock()  # one thread moves the bytes
        self._control = wiring.controls[rank][1]
        self._pipe_bytes = wiring.pipe_bytes
        self._prefix = f"{SHM_PREFIX}-{job_tag}-{rank}-"
        self._segments = itertools.count(1)
        self._outlets = {
            dst: _Outlet(writer.fileno())
            for (src, dst), (_, writer) in wiring.pairs.items()
            if src == rank
        }
        self._by_fd = {out.fd: out for out in self._outlets.values()}
        self._inlets = {
            reader.fileno(): _Inlet(reader.fileno(), f"{SHM_PREFIX}-{job_tag}-{src}-")
            for (src, dst), (reader, _) in wiring.pairs.items()
            if dst == rank
        }
        #: Heap of ``(due, order, dest, deliver)``.
        self._later: list = []
        self._order = itertools.count()
        self._poll = select.poll()
        for fd in self._inlets:
            self._poll.register(fd, select.POLLIN)
        self._poll.register(self._control.fileno(), select.POLLIN)
        self._writing: set[int] = set()  # outlet fds polled for POLLOUT

    # -- states ------------------------------------------------------------
    def state(self, cid: str) -> _CommState:
        with self._lock:
            st = self._states.get(cid)
            if st is None:
                st = self._states[cid] = _CommState(self.pump)
                if self.abort_reason is not None:
                    # The job already aborted; anything blocking on this
                    # late-created communicator must release immediately.
                    st.abort(self.abort_reason)
            return st

    # -- outbound ----------------------------------------------------------
    def put(self, dests: list[int], env: tuple, copies: int = 1) -> bool:
        """Pickle ``env`` once and deliver it to each of ``dests``,
        ``copies`` times, before returning; True when its body rode
        segments."""
        stream, raws = _pickle(env)
        spilled = False
        for dest in dests:
            for _ in range(copies):
                if dest == self.rank:
                    self._dispatch(_unpickle(stream, raws))
                    continue
                pieces, spilled = self._frame(stream, raws)
                self._write(dest, pieces)
        return spilled

    def put_later(self, delay: float, dest: int, env: tuple) -> bool:
        """Frame ``env`` now and deliver it at the first wait (or exit) at
        least ``delay`` seconds from now (injected delay/drop); True when
        its body rides a segment."""
        stream, raws = _pickle(env)
        spilled = False
        if dest == self.rank:
            deliver = functools.partial(self._dispatch, _unpickle(stream, raws))
        else:
            pieces, spilled = self._frame(stream, raws)
            deliver = functools.partial(self._write, dest, [bytes(p) for p in pieces])
        with self._out_lock:
            heapq.heappush(
                self._later, (time.monotonic() + delay, next(self._order), dest, deliver)
            )
        return spilled

    def _frame(self, stream: bytes, raws: list) -> tuple[list, bool]:
        """The pieces of one frame to a peer, in wire order, and whether its
        body rides a segment: it does when it is larger than the pipe."""
        if len(stream) + sum(map(len, raws)) > self._pipe_bytes:
            segment = next(self._segments)
            try:
                write_segment(f"{self._prefix}{segment}", [stream, *raws])
            except OSError:
                pass  # no segment directory: the body takes the pipe
            else:
                return [_head(stream, raws, segment)], True
        return [_head(stream, raws, 0), stream, *raws], False

    def _write(self, dest: int, pieces: list) -> None:
        with self._out_lock:
            self._outlets[dest].write(pieces)

    def _release_due(self) -> bool:
        """Deliver the frames whose delay has passed; True when one of them
        was this rank's own (dispatched here and now)."""
        due = []
        with self._out_lock:
            now = time.monotonic()
            while self._later and self._later[0][0] <= now:
                due.append(heapq.heappop(self._later))
        for *_, deliver in due:
            deliver()
        return any(entry[2] == self.rank for entry in due)

    def _owed(self) -> bool:
        with self._out_lock:
            return bool(self._later) or any(
                out.backlog for out in self._outlets.values()
            )

    # -- the wait ----------------------------------------------------------
    def pump(self, cond: threading.Condition, timeout: float) -> None:
        """The process fabric's ``Condition.wait``: move this rank's bytes
        until an envelope or an abort has been dispatched, or ``timeout``
        has passed.  Called with ``cond`` held; releases it meanwhile, so a
        dispatch can post to the waiter's own state."""
        if not self._pump_lock.acquire(blocking=False):
            # Another thread of this rank is moving the bytes.  Its poll
            # does not watch a backlog left after it began: write that here.
            with self._out_lock:
                for out in self._outlets.values():
                    if out.backlog:
                        out.flush()
            cond.wait(min(timeout, _FOLLOW_S))
            return
        cond.release()
        try:
            self._move(timeout)
        finally:
            self._pump_lock.release()
            cond.acquire()

    def _move(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self._release_due():
                return
            with self._out_lock:
                for out in self._outlets.values():
                    if bool(out.backlog) != (out.fd in self._writing):
                        if out.backlog:
                            self._poll.register(out.fd, select.POLLOUT)
                            self._writing.add(out.fd)
                        else:
                            self._poll.unregister(out.fd)
                            self._writing.discard(out.fd)
                until = deadline
                if self._later:
                    until = min(until, self._later[0][0])
            events = self._poll.poll(max(0.0, until - time.monotonic()) * 1000)
            moved = control = False
            for fd, _ in events:
                inlet = self._inlets.get(fd)
                if inlet is not None:
                    try:
                        moved |= inlet.pull(self._dispatch) > 0
                    except SegmentError as exc:
                        self._lose(exc)
                        moved = True
                    if inlet.closed:
                        self._poll.unregister(fd)
                        del self._inlets[fd]
                elif fd in self._by_fd:
                    with self._out_lock:
                        self._by_fd[fd].flush()
                else:
                    control = True
            if control:
                # After the pair pipes: a row already in one was sent before
                # the abort that may have overtaken it.
                self._read_control()
                moved = True
            if moved or time.monotonic() >= deadline:
                return

    def _read_control(self) -> None:
        try:
            reason = self._control.recv_bytes().decode()
        except (EOFError, OSError):
            self._poll.unregister(self._control.fileno())
            reason = "the launcher exited"
        self._abort_local(reason)

    # -- inbound -----------------------------------------------------------
    def _dispatch(self, env: tuple) -> None:
        kind = env[0]
        st = self.state(env[1])
        if kind == "pt":
            _, _, src, tag, seq, payload = env
            st.mailbox.put(src, tag, payload, seq=seq)
        elif kind == "pend":
            _, _, src, tag, seq = env
            st.mailbox.put_pending(src, tag, seq)
        elif kind == "fulfill":
            _, _, src, seq, payload = env
            st.mailbox.fulfill(src, seq, payload)
        elif kind == "coll":
            _, _, src, record, payload = env
            st.post(src, record, payload)

    def _lose(self, exc: SegmentError) -> None:
        """A frame's body is lost: release whatever waits for it now
        instead of letting it run out its timeout."""
        if self.failure is None:
            self.failure = exc
        self._abort_local(f"rank {self.rank} lost a payload: {exc}")

    def _abort_local(self, reason: str) -> None:
        with self._lock:
            self.abort_reason = reason
            states = list(self._states.values())
        for st in states:
            st.abort(reason)

    # -- exit --------------------------------------------------------------
    def report(self, blob: bytes) -> None:
        """Hand the rank's outcome to the launcher."""
        self._control.send_bytes(blob)

    def finish(self) -> None:
        """Write what this rank still owes its peers before it exits --
        backlogs and envelopes due later -- reading meanwhile, so a peer
        doing the same never waits on this one.  Stops at an abort; a peer
        that has exited takes nothing more."""
        while self.abort_reason is None and self._owed():
            with self._pump_lock:
                self._move(0.05)


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
    #: pair pipe vs the control pipe), so the abort can overtake a row still
    #: in the peer's backlog.  A rank that completed the collective before
    #: failing must release its peers with the real row, so a rank seeing
    #: the abort keeps collecting this long before it counts as collateral.
    _abort_grace = 0.25

    def _count_transport(self, stem: str, spilled: bool, payload: Any) -> None:
        """Charge a payload's bytes to ``::shm`` when its frame's body rode
        a segment, else to ``::pickled``; the two sum to the unsuffixed
        total.

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
        self, dest: int, tag: int, payload: Any, seq: "int | None", copies: int = 1
    ) -> None:
        ctx: _ProcessContext = self._ctx
        spilled = ctx.runtime.put(
            [ctx.members[dest]], ("pt", ctx.cid, self._rank, tag, seq, payload), copies
        )
        self._count_transport("mpi::send::bytes", spilled, payload)

    def _deliver_later(
        self, dest: int, tag: int, payload: Any, seq: int, delay: float
    ) -> None:
        ctx: _ProcessContext = self._ctx
        dest_world = ctx.members[dest]
        ctx.runtime.put([dest_world], ("pend", ctx.cid, self._rank, tag, seq))
        spilled = ctx.runtime.put_later(
            delay, dest_world, ("fulfill", ctx.cid, self._rank, seq, payload)
        )
        self._count_transport("mpi::send::bytes", spilled, payload)

    def _contribute(self, peers: list[int], record, value: Any) -> None:
        """The row is pickled once and framed for every peer; the byte split
        is counted once per contribution, matching the unsuffixed total
        ``_exchange`` counted."""
        ctx: _ProcessContext = self._ctx
        spilled = ctx.runtime.put(
            [ctx.members[p] for p in peers], ("coll", ctx.cid, self._rank, record, value)
        )
        self._count_transport(f"mpi::{record[1]}::bytes", spilled, value)

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
    """Everything one worker needs; the forked process inherits it."""

    program: Callable
    args: tuple
    kwargs: dict
    timeout: float
    trace_collectives: bool
    plan: Any  # FaultPlan | None
    recorder: Any  # TraceRecorder | None
    job_tag: str


def _try_dumps(obj: Any) -> "bytes | None":
    """``obj`` pickled in one stream, arrays reduced by :func:`_reduce_result`."""
    stream = io.BytesIO()
    pickler = pickle.Pickler(stream, protocol=5)
    pickler.dispatch_table = _dispatch_table(_reduce_result, _reduce_result)
    try:
        pickler.dump(obj)
    except Exception:
        return None
    return stream.getvalue()


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


def _worker_main(rank: int, size: int, wiring: _Wiring, spec: _WorkerSpec) -> None:
    # A forked rank inherits every end of the job; holding a peer's would
    # keep that peer's pipes open after it exits.
    wiring.keep(rank)
    runtime = _Runtime(rank, wiring, spec.job_tag)
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
            result = spec.program(comm, *spec.args, **spec.kwargs)
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
        # boundary -- a clear diagnostic beats a pickling stack trace.
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
    try:
        runtime.report(blob)
    except OSError:  # the launcher is gone; nobody waits for the rest
        return
    runtime.finish()


# --------------------------------------------------------------------------
# Launcher
# --------------------------------------------------------------------------


def run_spmd_process(
    nranks: int,
    program: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    *,
    timeout: float,
    trace_collectives: bool,
    trace,
    injector,
) -> list[Any]:
    """Run ``program`` with one OS process per rank; see ``run_spmd``.

    Argument validation happens in :func:`repro.mpi.launcher.run_spmd`;
    this function owns process lifecycle: spawn, result collection, abort
    broadcast on failure, guaranteed child teardown, pipe and shared-memory
    release,
    and merging per-rank fault logs / trace data back into the launcher's
    injector and session objects.
    """
    import multiprocessing as mp

    mpctx = mp.get_context("fork")
    job_tag = f"{os.getpid():x}x{next(_JOB_COUNTER):x}"
    plan = injector.plan if injector is not None else None
    recorders = (
        [trace.recorder(rank) for rank in range(nranks)]
        if trace is not None
        else None
    )
    wiring = _Wiring(mpctx, nranks)
    procs = []
    for rank in range(nranks):
        spec = _WorkerSpec(
            program=program,
            args=args,
            kwargs=kwargs,
            timeout=timeout,
            trace_collectives=trace_collectives,
            plan=plan,
            recorder=recorders[rank] if recorders is not None else None,
            job_tag=job_tag,
        )
        procs.append(
            mpctx.Process(
                target=_worker_main,
                args=(rank, nranks, wiring, spec),
                name=f"spmd-rank-{rank}",
            )
        )
    results: list[Any] = [None] * nranks
    failures: dict[int, BaseException] = {}
    tracebacks: dict[int, str] = {}
    aborted: set[int] = set()
    extras_by_rank: dict[int, dict] = {}
    #: Control pipe -> rank, for the ranks that have not reported yet.
    pending = {wiring.controls[rank][0]: rank for rank in range(nranks)}
    abort_deadline: "float | None" = None

    def broadcast_abort(reason: str) -> None:
        nonlocal abort_deadline
        if abort_deadline is not None:
            return
        abort_deadline = time.monotonic() + _EXIT_GRACE
        for launcher_end, _ in wiring.controls:
            try:
                launcher_end.send_bytes(reason.encode())
            except OSError:  # that rank has exited
                pass

    try:
        for p in procs:
            p.start()
        # Every rank holds its own ends now; a rank's pipes close when it
        # exits, which is how its peers and the launcher see it go.
        wiring.keep(None)
        while pending:
            wait = None
            if abort_deadline is not None:
                wait = max(0.0, abort_deadline - time.monotonic())
            ready = wait_for_any(list(pending), wait)
            if not ready:
                # The grace after the abort has run out: the ranks still
                # out are collateral, and the finally below ends them.
                aborted.update(pending.values())
                break
            for conn in ready:
                rank = pending.pop(conn)
                try:
                    blob = conn.recv_bytes()
                except (EOFError, OSError):
                    # The control pipe closed without a report: the rank
                    # process died hard (os._exit, signal, interpreter
                    # crash).  Attribute it and release the peers.
                    procs[rank].join(_DEATH_GRACE)
                    exc = MPIError(
                        f"rank {rank} process died without reporting "
                        f"(exit code {procs[rank].exitcode})"
                    )
                    failures[rank] = exc
                    tracebacks[rank] = str(exc)
                    broadcast_abort(str(exc))
                    continue
                status, _, payload, extras = pickle.loads(blob)
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
        for rank, p in enumerate(procs):
            if rank not in pending.values():
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
        wiring.close()
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
