"""Shared-memory transport for the process-backed SPMD runtime.

The process backend moves rank-to-rank traffic over pickled-envelope pipes
(:mod:`repro.mpi.process_backend`).  Pickling is fine for control messages
and small payloads, but simulation fields, halo faces, and framebuffers are
bulk numpy data -- shipping them through a pipe costs two serialization
copies plus pipe-buffer churn.  One shared-memory path avoids that, for
point-to-point sends and collective contributions alike:

**Consume-once segments**: a bare ndarray at or above the threshold is
copied once into a fresh named segment, the envelope carries only the
``(name, shape, dtype)`` descriptor, and the receiver materializes a
private copy out of the mapping -- preserving the runtime's "ranks never
alias each other's memory" contract (the zero-copy accounting experiments
depend on receives being owned buffers).  Anything else (small arrays,
tuples, lists, dicts, scalars) is pickled inline with the envelope.  A
collective contribution is encoded once per peer, so each peer consumes
its own segment.  Lifecycle discipline (POSIX): the *consumer* unlinks.

``SharedMemory`` registers every open with the ``multiprocessing``
resource tracker (a name-keyed set, so the double register from
create+attach is idempotent) and ``unlink`` unregisters, so a consumed
segment leaves no tracker residue.  Envelopes that are never consumed --
a job aborting mid-flight, or a peer that raised before entering the
collective it was sent to -- are swept by the launcher via
:func:`cleanup_segments` after every worker has exited, so a crashed run
cannot leak ``/dev/shm`` entries either.

Segment names are deterministic (``repro-shm-<job>-<rank>-<counter>``):
fault-injection schedules and test assertions never see randomness from
the transport.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.mpi.communicator import _copy_payload

#: Every segment this runtime creates carries this prefix, so leak checks
#: (the test-suite fixture and the CI sweep) can target exactly our names.
SHM_PREFIX = "repro-shm"

#: Arrays at or above this many bytes ride shared memory; smaller ones are
#: pickled inline with the envelope (a pipe write beats two syscalls plus a
#: page-granular mapping for small payloads).
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


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def segment_name(job_tag: str, rank: int, counter: int) -> str:
    return f"{SHM_PREFIX}-{job_tag}-{rank}-{counter}"


def encode_array(array: np.ndarray, name: str) -> tuple:
    """Copy ``array`` into a fresh segment; returns the envelope descriptor."""
    shared_memory = _shared_memory()
    data = np.ascontiguousarray(array)
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, data.nbytes))
    try:
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=seg.buf)
        view[...] = data
    finally:
        seg.close()
    return ("shm", name, data.shape, str(data.dtype))


def decode_array(descriptor: tuple) -> np.ndarray:
    """Materialize a private copy from a segment descriptor and unlink it."""
    _, name, shape, dtype = descriptor
    shared_memory = _shared_memory()
    seg = shared_memory.SharedMemory(name=name)
    try:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        out = np.array(view, copy=True)
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass
    return out


class PayloadCodec:
    """Encodes envelope payloads, spilling large arrays to shared memory.

    One codec per worker process; names are drawn from a per-sender counter
    so they are unique and deterministic.  ``threshold <= 0`` (or a missing
    ``SharedMemory`` implementation) degrades to inline pickling -- the
    transport stays correct, only the bulk-copy path changes.
    """

    def __init__(self, job_tag: str, rank: int, threshold: int | None = None):
        self.job_tag = job_tag
        self.rank = rank
        self.threshold = shm_threshold() if threshold is None else threshold
        self._counter = 0

    def encode(self, payload: Any) -> tuple:
        """``("inline", payload)`` or a ``("shm", ...)`` descriptor.

        Inline payloads are copied at encode time (the send-buffer
        contract): ``mp.Queue`` pickles in a background feeder thread, so
        an array put by reference would race with sender-side mutation
        after ``send()`` returns -- e.g. a halo fold that zeroes the plane
        it just sent.  The shm path already copies eagerly into the segment.
        """
        if (
            self.threshold > 0
            and isinstance(payload, np.ndarray)
            and payload.nbytes >= self.threshold
        ):
            self._counter += 1
            name = segment_name(self.job_tag, self.rank, self._counter)
            try:
                return encode_array(payload, name)
            except (OSError, ValueError):  # pragma: no cover - shm exhausted
                return ("inline", payload.copy())
        return ("inline", _copy_payload(payload))

    @staticmethod
    def decode(spec: tuple) -> Any:
        if spec[0] == "shm":
            return decode_array(spec)
        return spec[1]


def list_segments(job_tag: str | None = None) -> list[str]:
    """Live ``/dev/shm`` segments created by this runtime (Linux only)."""
    prefix = SHM_PREFIX if job_tag is None else f"{SHM_PREFIX}-{job_tag}-"
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def cleanup_segments(job_tag: str) -> list[str]:
    """Unlink any surviving segments of one job; returns what was swept.

    Called by the launcher after every worker has exited, so an aborted job
    (envelopes created but never consumed) cannot leak shared memory.
    """
    shared_memory = _shared_memory()
    swept = []
    for name in list_segments(job_tag):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:  # pragma: no cover - raced another sweep
            continue
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - raced another sweep
            continue
        swept.append(name)
    return swept
