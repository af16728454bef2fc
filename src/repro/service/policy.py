"""Admission control and per-step quota verdicts, journaled and replayable.

Every decision the server takes about a tenant -- connection admission,
auth verdicts, per-step admit/shed/reject, endpoint degrade outcomes -- is
a pure function of (tenant spec, the tenant's own logical event sequence,
the seeded counter-hash draw stream).  Wall clock, thread scheduling, and
other tenants' traffic never enter: concurrency limits are enforced by
blocking (backpressure, traced as counters), not by decisions, precisely
so the journals replay byte-identically.

Each tenant gets two :class:`DecisionJournal`\\ s -- ``admission``
(written by the connection handler, in frame order) and ``endpoint``
(written by the analysis worker, in step order) -- because the two threads
interleave nondeterministically but each stream alone is deterministic.
:func:`dump_journals` serializes all tenants sorted by name as canonical
JSON (sorted keys, fixed rounding), the byte-identity contract the
acceptance tests ``diff``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.faults.plan import unit_draw
from repro.service import protocol
from repro.service.tenancy import TenantSpec

#: Draw-stream site for probabilistic shedding in the soft-budget zone.
#: Not a fault-injection site: shedding is policy, not failure.
SHED_SITE = "service.shed"


@dataclass(frozen=True)
class ServiceDecision:
    """One journaled service-layer decision."""

    seq: int
    event: str
    verdict: str
    bytes: int = 0
    cumulative_bytes: int = 0
    draw: float | None = None
    detail: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "event": self.event,
            "verdict": self.verdict,
            "bytes": self.bytes,
            "cumulative_bytes": self.cumulative_bytes,
            # Fixed rounding keeps the float repr identical across replays.
            "draw": None if self.draw is None else round(float(self.draw), 6),
            "detail": self.detail,
        }


@dataclass
class DecisionJournal:
    """One append-only decision stream; ``mode`` names which one."""

    seed: int
    slo: dict[str, Any] | None
    mode: str
    entries: list[ServiceDecision] = field(default_factory=list)

    def record(self, decision: ServiceDecision) -> None:
        self.entries.append(decision)

    def to_dict(self) -> dict[str, Any]:
        return {
            "meta": {"seed": self.seed, "slo": self.slo, "mode": self.mode},
            "decisions": [d.as_dict() for d in self.entries],
        }


class TenantPolicy:
    """One tenant's admission state machine: quotas, budgets, shed draws.

    Owned by the connection handler thread; a reconnecting tenant gets a
    fresh policy (quotas are per connection), but the journal persists on
    the server so refused reconnects are audited too.
    """

    def __init__(self, spec: TenantSpec, slot: int, seed: int) -> None:
        self.spec = spec
        self.slot = slot
        self.seed = seed
        self.steps_admitted = 0
        self.steps_shed = 0
        self.steps_rejected = 0
        self.bytes_admitted = 0
        self._events = 0
        self._shed_draws = 0

    def _next_seq(self) -> int:
        seq = self._events
        self._events += 1
        return seq

    def decide_connect(self, verdict: str) -> ServiceDecision:
        return ServiceDecision(seq=self._next_seq(), event="connect", verdict=verdict)

    def decide_auth(self, verdict: str) -> ServiceDecision:
        return ServiceDecision(seq=self._next_seq(), event="auth", verdict=verdict)

    def decide_eos(self) -> ServiceDecision:
        return ServiceDecision(
            seq=self._next_seq(),
            event="eos",
            verdict="drain",
            cumulative_bytes=self.bytes_admitted,
            detail=f"admitted={self.steps_admitted} shed={self.steps_shed}",
        )

    def decide_disconnect(self, detail: str) -> ServiceDecision:
        return ServiceDecision(
            seq=self._next_seq(),
            event="disconnect",
            verdict="abort",
            cumulative_bytes=self.bytes_admitted,
            detail=detail,
        )

    def decide_step(self, payload_bytes: int) -> ServiceDecision:
        """The per-step quota verdict for a STEP of ``payload_bytes``.

        Verdict precedence: per-step size ceiling, then the hard step
        quota, then the hard byte budget, then the probabilistic shed zone
        (soft budget), then admit.  The shed draw consumes one counter-hash
        occurrence whether or not it fires, keeping the stream aligned
        across replays.
        """
        quota = self.spec.quota
        seq = self._next_seq()
        if quota.max_step_bytes is not None and payload_bytes > quota.max_step_bytes:
            self.steps_rejected += 1
            return ServiceDecision(
                seq=seq,
                event="step",
                verdict=protocol.VERDICT_REJECT_BYTES,
                bytes=payload_bytes,
                cumulative_bytes=self.bytes_admitted,
                detail=f"step exceeds max_step_bytes={quota.max_step_bytes}",
            )
        if quota.max_steps is not None and self.steps_admitted >= quota.max_steps:
            self.steps_rejected += 1
            return ServiceDecision(
                seq=seq,
                event="step",
                verdict=protocol.VERDICT_REJECT_STEPS,
                bytes=payload_bytes,
                cumulative_bytes=self.bytes_admitted,
                detail=f"step quota max_steps={quota.max_steps} exhausted",
            )
        draw = None
        if quota.byte_budget is not None:
            projected = self.bytes_admitted + payload_bytes
            if projected > quota.byte_budget:
                self.steps_rejected += 1
                return ServiceDecision(
                    seq=seq,
                    event="step",
                    verdict=protocol.VERDICT_REJECT_BYTES,
                    bytes=payload_bytes,
                    cumulative_bytes=self.bytes_admitted,
                    detail=f"byte_budget={quota.byte_budget} exhausted",
                )
            if projected > quota.soft_byte_fraction * quota.byte_budget:
                draw = unit_draw(
                    self.seed, SHED_SITE, self.slot, self._shed_draws
                )
                self._shed_draws += 1
                if draw < quota.shed_probability:
                    self.steps_shed += 1
                    return ServiceDecision(
                        seq=seq,
                        event="step",
                        verdict=protocol.VERDICT_SHED,
                        bytes=payload_bytes,
                        cumulative_bytes=self.bytes_admitted,
                        draw=draw,
                        detail="soft byte budget pressure",
                    )
        self.steps_admitted += 1
        self.bytes_admitted += payload_bytes
        return ServiceDecision(
            seq=seq,
            event="step",
            verdict=protocol.VERDICT_ADMIT,
            bytes=payload_bytes,
            cumulative_bytes=self.bytes_admitted,
            draw=draw,
        )


class TenantJournals:
    """The two per-tenant decision streams (see module docstring)."""

    def __init__(self, name: str, seed: int, spec: TenantSpec) -> None:
        self.name = name
        self.admission = DecisionJournal(
            seed=seed, slo=spec.quota.as_dict(), mode="service.admission"
        )
        self.endpoint = DecisionJournal(
            seed=seed, slo=None, mode="service.endpoint"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "admission": self.admission.to_dict(),
            "endpoint": self.endpoint.to_dict(),
        }


def dump_journals(journals: dict[str, TenantJournals]) -> str:
    """Canonical JSON for all tenants' journals (sorted keys, 2-space
    indent, trailing newline -- byte-identical across seeded replays)."""
    doc = {name: journals[name].to_dict() for name in sorted(journals)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
