"""Consume-once shared-memory segments for the process-backed SPMD runtime.

The process backend moves rank-to-rank traffic as pickled frames over one
pipe per rank pair (:mod:`repro.mpi.process_backend`).  A frame whose body
is larger than the pipe is written once into a fresh file under
:data:`SEGMENT_DIR` (``/dev/shm``, a tmpfs) instead, and only its head
crosses the pipe; the receiver reads a private copy back out, preserving
the runtime's "ranks never alias each other's memory" contract.
Lifecycle discipline (POSIX): the *consumer* unlinks.

This module is the segment itself: write, read, unlink and sweep.  The
bytes move with ``pwritev`` / ``preadv`` rather than through a mapping, so
nothing faults in a fresh mapping page by page and nothing registers with
the ``multiprocessing`` resource tracker.  Segments never consumed -- a
job aborting mid-flight, a peer that raised before entering the
collective it was sent to -- are swept by the launcher via
:func:`cleanup_segments` after every worker has exited.  A host without
``/dev/shm`` fails the ``open``, and the sender writes the whole frame to
the pipe.  Names are deterministic (``repro-shm-<job>-<rank>-<counter>``):
fault-injection schedules and test assertions never see randomness from
the transport.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from repro.mpi.communicator import MPIError

#: Every segment this runtime creates carries this prefix, so leak checks
#: (the test-suite fixture and the CI sweep) can target exactly our names.
SHM_PREFIX = "repro-shm"

#: The tmpfs directory segments live in.
SEGMENT_DIR = "/dev/shm"

#: Most buffers one ``pwritev``/``preadv`` call takes (``IOV_MAX`` on Linux).
_IOV_MAX = 1024


class SegmentError(MPIError):
    """A segment named in a frame's head is missing or shorter than the
    frame's body: the receiver cannot materialize the payload."""


def _transfer(call: Callable, fd: int, regions: Sequence) -> int:
    """Move ``regions`` back to back from offset 0 of ``fd`` with ``call``
    (``os.pwritev`` or ``os.preadv``); returns the bytes moved, which fall
    short of the regions only at the end of the file."""
    views = [v for v in (memoryview(r).cast("B") for r in regions) if len(v)]
    i = done = 0
    while i < len(views):
        n = call(fd, views[i : i + _IOV_MAX], done)
        if not n:
            break
        done += n
        while i < len(views) and n >= len(views[i]):
            n -= len(views[i])
            i += 1
        if n:
            views[i] = views[i][n:]
    return done


def write_segment(name: str, pieces: Sequence) -> None:
    """Write ``pieces`` back to back into a fresh segment ``name``."""
    path = os.path.join(SEGMENT_DIR, name)
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
    try:
        _transfer(os.pwritev, fd, pieces)
    except BaseException:
        os.unlink(path)
        raise
    finally:
        os.close(fd)


def read_segment(name: str, regions: Sequence) -> None:
    """Fill ``regions`` from segment ``name`` and unlink it.

    Raises :class:`SegmentError` naming the segment if it is missing or
    short; never leaves a region holding bytes it did not read.
    """
    path = os.path.join(SEGMENT_DIR, name)
    want = sum(memoryview(r).nbytes for r in regions)
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            done = _transfer(os.preadv, fd, regions)
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise SegmentError(f"shared-memory segment {name} is missing") from None
    finally:
        _unlink(path)
    if done < want:
        raise SegmentError(
            f"shared-memory segment {name} is short: {done} of {want} bytes"
        )


def _unlink(path: str) -> bool:
    """Unlink ``path``; False if it was already gone."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


def list_segments(job_tag: str | None = None) -> list[str]:
    """Live segments created by this runtime (none without :data:`SEGMENT_DIR`)."""
    prefix = SHM_PREFIX if job_tag is None else f"{SHM_PREFIX}-{job_tag}-"
    try:
        entries = os.listdir(SEGMENT_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def cleanup_segments(job_tag: str) -> list[str]:
    """Unlink any surviving segments of one job; returns what was swept.

    Called by the launcher after every worker has exited, so an aborted job
    (frames written but never consumed) cannot leak shared memory.
    """
    return [
        name
        for name in list_segments(job_tag)
        if _unlink(os.path.join(SEGMENT_DIR, name))
    ]
