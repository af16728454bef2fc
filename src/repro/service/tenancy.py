"""Tenant identity, signed auth tokens, and per-tenant quota specs.

Tokens are self-describing and HMAC-signed with the server secret::

    v1.<tenant>.<expires-unix>.<blake2b-hmac-hex>

so the server verifies them without a token database, and tests mint
expired or tampered tokens trivially.  Verification takes an injectable
``now`` so expiry checks are deterministic under test; the comparison is
``hmac.compare_digest`` (no timing side channel, idle as that worry is for
a local socket).

Quota semantics (enforced by :mod:`repro.service.policy`):

- ``max_steps``: hard ceiling on admitted steps per connection; exceeding
  it REJECTs the connection with ``quota_exhausted``.
- ``byte_budget``: cumulative STEP payload bytes; past the budget, steps
  are rejected.  Between ``soft_byte_fraction * byte_budget`` and the
  budget, steps are probabilistically *shed* (seeded counter-hash draws, so
  the shed schedule is replayable).
- ``max_step_bytes``: per-step payload ceiling -- an oversized step is
  rejected without charging the budget.
- ``rate_steps_per_s``: pacing ceiling; enforced by delaying the ACK
  (wall-clock throttling is flow control, not a decision, so it is traced
  but never journaled).
- ``credits``: the flow-control window -- how many STEP frames may be in
  flight before the client must wait for an ACK.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass, field

TOKEN_VERSION = "v1"


@dataclass(frozen=True)
class QuotaSpec:
    """Per-tenant admission/backpressure limits."""

    max_steps: int | None = None
    byte_budget: int | None = None
    max_step_bytes: int | None = None
    rate_steps_per_s: float | None = None
    credits: int = 2
    soft_byte_fraction: float = 0.5
    shed_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.credits < 1:
            raise ValueError("credits must be >= 1")
        if not 0.0 <= self.soft_byte_fraction <= 1.0:
            raise ValueError("soft_byte_fraction must be in [0, 1]")
        if not 0.0 <= self.shed_probability <= 1.0:
            raise ValueError("shed_probability must be in [0, 1]")

    def as_dict(self) -> dict:
        return {
            "max_steps": self.max_steps,
            "byte_budget": self.byte_budget,
            "max_step_bytes": self.max_step_bytes,
            "rate_steps_per_s": self.rate_steps_per_s,
            "credits": self.credits,
            "soft_byte_fraction": self.soft_byte_fraction,
            "shed_probability": self.shed_probability,
        }


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity and limits.

    ``placement`` selects how the tenant's endpoint runs analyses:
    ``"in-line"`` (synchronous with the ACK -- the client pays the
    analysis latency, the paper's tightly coupled placement) or
    ``"staged"`` (queued to the tenant's endpoint worker, ACKed on
    enqueue -- the client runs ahead, bytes stay in flight, the loosely
    coupled placement).
    """

    name: str
    quota: QuotaSpec = field(default_factory=QuotaSpec)
    placement: str = "staged"

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ".:/\\\n"):
            raise ValueError(f"invalid tenant name {self.name!r}")
        if self.placement not in ("in-line", "staged"):
            raise ValueError(f"unknown placement {self.placement!r}")


def _signature(secret: str, tenant: str, expires: int) -> str:
    key = hashlib.blake2b(secret.encode(), digest_size=32).digest()
    msg = f"{TOKEN_VERSION}.{tenant}.{expires}".encode()
    return hmac.new(key, msg, hashlib.blake2b).hexdigest()[:32]


def issue_token(secret: str, tenant: str, expires: int | float = math.inf) -> str:
    """Mint a signed token for ``tenant``; ``expires`` is unix seconds
    (``inf`` serializes as 0 = never expires)."""
    exp = 0 if math.isinf(expires) else int(expires)
    return f"{TOKEN_VERSION}.{tenant}.{exp}.{_signature(secret, tenant, exp)}"


def verify_token(
    secret: str, tenant: str, token: str, now: float
) -> tuple[bool, str]:
    """Check ``token`` authenticates ``tenant`` at time ``now``.

    Returns ``(ok, reason)`` with reason one of ``"ok"``, ``"bad_token"``,
    ``"expired_token"``.
    """
    parts = token.split(".")
    if len(parts) != 4 or parts[0] != TOKEN_VERSION or parts[1] != tenant:
        return False, "bad_token"
    try:
        expires = int(parts[2])
    except ValueError:
        return False, "bad_token"
    if not hmac.compare_digest(parts[3], _signature(secret, tenant, expires)):
        return False, "bad_token"
    if expires != 0 and now >= expires:
        return False, "expired_token"
    return True, "ok"


class TenantRegistry:
    """The server's tenant table, with stable slot numbering.

    Slots are assigned by sorted tenant name, *not* registration or
    connection order: every seeded draw in the policy layer keys on the
    slot, so the numbering must be a pure function of the tenant set for
    decisions to replay across runs.
    """

    def __init__(self) -> None:
        self._tenants: dict[str, TenantSpec] = {}

    def register(self, spec: TenantSpec) -> None:
        if spec.name in self._tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        self._tenants[spec.name] = spec

    def get(self, name: str) -> TenantSpec | None:
        return self._tenants.get(name)

    def names(self) -> list[str]:
        return sorted(self._tenants)

    def slot(self, name: str) -> int:
        """The tenant's stable slot index (sorted-name order)."""
        return self.names().index(name)

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self.names())
