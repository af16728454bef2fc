"""Simulated MPI runtime with thread- and process-backed execution.

The paper's experiments are MPI programs (miniapp in C++/MPI, PHASTA,
AVF-LESLIE, Nyx).  This environment has no MPI implementation, so this
package provides a faithful SPMD substrate: every simulated rank runs the
*same program* against a :class:`Communicator` that implements
point-to-point messaging and the collectives the paper's codes rely on
(barrier, bcast, reduce, allreduce, gather/allgather, scatter, alltoall,
split).  Ranks execute on one of two interchangeable backends (see
``run_spmd(backend=...)``): threads sharing the process (the default), or
one OS process per rank with pipe + shared-memory transport
(:mod:`repro.mpi.process_backend`) for true concurrency.

Semantics follow MPI closely where it matters for correctness studies:

- collectives are synchronizing and must be called by every rank of the
  communicator in the same order (violations deadlock, as in MPI; a watchdog
  timeout in the launcher turns deadlocks into test failures);
- reductions are performed in rank order, so results are deterministic and
  reproducible run to run;
- numpy payloads are captured when sent or contributed to a collective, so
  the caller may reuse its buffer at once, emulating distinct address spaces.

What this substrate intentionally does *not* reproduce is network cost at
scale -- that is the job of :mod:`repro.perf`, which replays the same
operation sequences through calibrated machine models.
"""

from repro.mpi.ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.mpi.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveMismatchError,
    Communicator,
    MPIError,
    RankAbort,
)
from repro.mpi.launcher import (
    BACKENDS,
    SPMDError,
    resolve_backend,
    run_spmd,
)
from repro.mpi.framing import (
    FrameChannel,
    FrameError,
    MalformedFrameError,
    TruncatedFrameError,
)

__all__ = [
    "BACKENDS",
    "FrameChannel",
    "FrameError",
    "MalformedFrameError",
    "TruncatedFrameError",
    "resolve_backend",
    "Communicator",
    "MPIError",
    "RankAbort",
    "CollectiveMismatchError",
    "ANY_SOURCE",
    "ANY_TAG",
    "ReduceOp",
    "SUM",
    "MIN",
    "MAX",
    "PROD",
    "run_spmd",
    "SPMDError",
]
