"""In situ sanitizer suite: debug-mode contract checkers.

Three runtime checkers protect the correctness assumptions behind the
paper's performance claims:

- :class:`GuardedDataAdaptor` (this package) -- zero-copy write/retention
  guard, enabled via ``Bridge(..., sanitize=True)``;
- the collective-trace race detector in :mod:`repro.mpi.communicator`
  (always-on divergence cross-check; call sites/history/wildcard-receive
  race flagging via ``run_spmd(..., trace_collectives=True)``);
- the static analyzer in :mod:`repro.analyze`
  (``python -m repro analyze src/``).
"""

from repro.sanitize.guard import (
    GuardedDataAdaptor,
    RetentionViolation,
    SanitizerError,
    WriteViolation,
)

__all__ = [
    "GuardedDataAdaptor",
    "SanitizerError",
    "WriteViolation",
    "RetentionViolation",
]
