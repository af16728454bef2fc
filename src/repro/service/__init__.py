"""repro.service -- the multi-tenant in situ service layer.

The paper's design axis is how simulations hand data to shared analysis
infrastructure under contention; this package pushes that to its service
limit: one long-running server (``repro serve``), N independent simulation
clients (``repro submit`` / :class:`ServiceClient`) streaming steps over a
local socket transport, per-tenant auth/quotas/backpressure with journaled
deterministic decisions, per-tenant analysis endpoints behind the standard
:class:`~repro.core.bridge.Bridge`, and per-step cost accounting on the
trace layer.

Layers (bottom up):

- :mod:`repro.mpi.framing` -- sequence-numbered, CRC-checked, NACK/
  retransmit framed delivery over a byte stream (the mailbox discipline,
  on a socket);
- :mod:`repro.service.protocol` -- the connection state machine and
  payload codecs;
- :mod:`repro.service.tenancy` -- tenant specs, quotas, signed tokens;
- :mod:`repro.service.policy` -- journaled admission + per-step verdicts
  (counter-hashed shed draws, the per-tenant `DecisionJournal` streams);
- :mod:`repro.service.endpoint` -- per-tenant Bridge + histogram/Catalyst
  analyses + circuit-breaker degradation (the same breaker FlexPath
  staging uses);
- :mod:`repro.service.server` / :mod:`repro.service.client` -- the
  long-running server and the simulation-side client;
- :mod:`repro.service.accounting` -- per-tenant cost ledgers and the
  cost report CI uploads.
"""

from repro.service.accounting import CostLedger, build_cost_report
from repro.service.client import (
    ServiceClient,
    ServiceDisconnected,
    ServiceError,
    ServiceRejected,
    run_client_workload,
)
from repro.service.endpoint import TenantEndpoint, run_workload_inproc
from repro.service.policy import ServiceDecision, TenantPolicy, dump_journals
from repro.service.server import BytesInFlight, ServiceServer
from repro.service.tenancy import (
    QuotaSpec,
    TenantRegistry,
    TenantSpec,
    issue_token,
    verify_token,
)
from repro.service.workload import (
    nbody_seed,
    nbody_steps,
    synthetic_field,
    synthetic_steps,
)

__all__ = [
    "BytesInFlight",
    "CostLedger",
    "QuotaSpec",
    "ServiceClient",
    "ServiceDecision",
    "ServiceDisconnected",
    "ServiceError",
    "ServiceRejected",
    "ServiceServer",
    "TenantEndpoint",
    "TenantPolicy",
    "TenantRegistry",
    "TenantSpec",
    "build_cost_report",
    "dump_journals",
    "issue_token",
    "nbody_seed",
    "nbody_steps",
    "run_client_workload",
    "run_workload_inproc",
    "synthetic_field",
    "synthetic_steps",
    "verify_token",
]
