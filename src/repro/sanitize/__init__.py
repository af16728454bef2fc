"""In situ sanitizer suite: debug-mode contract checkers.

Three runtime checkers protect the correctness assumptions behind the
paper's performance claims:

- :class:`GuardedDataAdaptor` (this package) -- zero-copy write/retention
  guard, enabled via ``Bridge(..., sanitize=True)``;
- the bridge's memory ledger under the same flag: a label an analysis
  allocated and never freed raises :class:`SanitizerError` at finalize;
- the collective-trace race detector in :mod:`repro.mpi.communicator`
  (always-on divergence cross-check; call sites/history/wildcard-receive
  race flagging via ``run_spmd(..., trace_collectives=True)``).
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
