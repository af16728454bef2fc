"""Shared-memory transport for the process-backed SPMD runtime.

The process backend moves rank-to-rank traffic over pickled-envelope pipes
(:mod:`repro.mpi.process_backend`).  Pickling is fine for control messages
and small payloads, but simulation fields, halo faces, and framebuffers are
bulk numpy data -- shipping them through a pipe costs two serialization
copies plus pipe-buffer churn.  One shared-memory path avoids that, for
point-to-point sends and collective contributions alike:

**Consume-once segments**: a bare ndarray (exactly ``np.ndarray``, no
subclass such as ``np.ma.MaskedArray``, and no object references in its
dtype) at or above the threshold is written once into a fresh file under
:data:`SEGMENT_DIR` (``/dev/shm``, a tmpfs), the envelope carries only the
``(name, shape, dtype)`` descriptor (the ``np.dtype`` itself, so structured
dtypes survive),
and the receiver reads a private copy back out -- preserving the runtime's
"ranks never alias each other's memory" contract (the zero-copy accounting
experiments depend on receives being owned buffers).  Anything else (small
arrays, tuples, lists, dicts, scalars) is pickled inline with the envelope.
A collective contribution is encoded once per peer, so each peer consumes
its own segment.  Lifecycle discipline (POSIX): the *consumer* unlinks.

The bytes move with ``pwrite`` / ``preadv`` rather than through a mapping:
the sender's copy lands in the kernel's page cache without faulting in a
fresh mapping page by page, and nothing registers with the
``multiprocessing`` resource tracker.  Envelopes that are never consumed --
a job aborting mid-flight, or a peer that raised before entering the
collective it was sent to -- are swept by the launcher via
:func:`cleanup_segments` after every worker has exited, so a crashed run
cannot leak ``/dev/shm`` entries either.  A host without ``/dev/shm``
fails the ``open`` and the codec pickles the array inline instead.

Segment names are deterministic (``repro-shm-<job>-<rank>-<counter>``):
fault-injection schedules and test assertions never see randomness from
the transport.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.mpi.communicator import MPIError

#: Every segment this runtime creates carries this prefix, so leak checks
#: (the test-suite fixture and the CI sweep) can target exactly our names.
SHM_PREFIX = "repro-shm"

#: The tmpfs directory segments live in.
SEGMENT_DIR = "/dev/shm"

#: Arrays at or above this many bytes ride shared memory; smaller ones are
#: pickled inline with the envelope (a pipe write beats creating, writing,
#: reading and unlinking a file for small payloads).
DEFAULT_SHM_THRESHOLD = 1 << 16


def shm_threshold() -> int:
    """The inline/shared-memory cutover, overridable for tests/tuning."""
    raw = os.environ.get("REPRO_SPMD_SHM_THRESHOLD")
    if raw is None:
        return DEFAULT_SHM_THRESHOLD
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_SHM_THRESHOLD


class SegmentError(MPIError):
    """A segment named by a descriptor is missing or shorter than its
    array: the receiver cannot materialize the payload."""


def encode_array(array: np.ndarray, name: str) -> tuple:
    """Write ``array`` into a fresh segment; returns the envelope descriptor."""
    data = np.ascontiguousarray(array)
    raw = data.reshape(-1).view(np.uint8)
    path = os.path.join(SEGMENT_DIR, name)
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
    try:
        done = 0
        while done < raw.nbytes:
            done += os.pwrite(fd, raw[done:], done)
    except BaseException:
        os.unlink(path)
        raise
    finally:
        os.close(fd)
    return ("shm", name, array.shape, data.dtype)


def decode_array(descriptor: tuple) -> np.ndarray:
    """Read a private copy out of a segment descriptor and unlink it.

    Raises :class:`SegmentError` naming the segment if it is missing or
    short; never returns bytes it did not read.
    """
    _, name, shape, dtype = descriptor
    out = np.empty(shape, dtype=dtype)
    raw = out.reshape(-1).view(np.uint8)
    path = os.path.join(SEGMENT_DIR, name)
    done = 0
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            while done < raw.nbytes:
                got = os.preadv(fd, [raw[done:]], done)
                if not got:
                    break
                done += got
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise SegmentError(f"shared-memory segment {name} is missing") from None
    finally:
        _unlink(path)
    if done < raw.nbytes:
        raise SegmentError(
            f"shared-memory segment {name} is short: {done} of {raw.nbytes} bytes"
        )
    return out


def _unlink(path: str) -> bool:
    """Unlink ``path``; False if it was already gone."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


class PayloadCodec:
    """Encodes envelope payloads, spilling large arrays to shared memory.

    One codec per worker process; names are drawn from a per-sender counter
    so they are unique and deterministic.  A threshold of 0 (or a segment
    that cannot be created, e.g. no :data:`SEGMENT_DIR`) degrades to inline
    pickling -- the transport stays correct, only the bulk-copy path changes.
    """

    def __init__(self, job_tag: str, rank: int):
        self.job_tag = job_tag
        self.rank = rank
        self.threshold = shm_threshold()
        self._counter = 0

    def encode(self, payload: Any) -> tuple:
        """``("inline", payload)`` or a ``("shm", ...)`` descriptor.

        An inline payload is the caller's own object, not a copy: the
        process fabric pickles the envelope and writes it (or copies what
        the pipe cannot take yet) before ``send`` or the collective
        returns, which is the send-buffer contract.  The shm path copies
        into the segment here.
        """
        if (
            self.threshold > 0
            and type(payload) is np.ndarray
            and not payload.dtype.hasobject
            and payload.nbytes >= self.threshold
        ):
            self._counter += 1
            name = f"{SHM_PREFIX}-{self.job_tag}-{self.rank}-{self._counter}"
            try:
                return encode_array(payload, name)
            except OSError:
                pass
        return ("inline", payload)

    @staticmethod
    def decode(spec: tuple) -> Any:
        if spec[0] == "shm":
            return decode_array(spec)
        return spec[1]


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
    (envelopes created but never consumed) cannot leak shared memory.
    """
    return [
        name
        for name in list_segments(job_tag)
        if _unlink(os.path.join(SEGMENT_DIR, name))
    ]
