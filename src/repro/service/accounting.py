"""Per-tenant cost accounting: what each tenant's traffic actually cost.

The paper's core question is who pays for in situ analysis -- data
movement, render/analysis seconds, placement.  In a multi-tenant service
that question becomes billing: every admitted step charges its tenant's
ledger with the bytes it moved and the seconds its analyses consumed, and
the per-step samples also land on the tenant's trace recorder
(``service::*`` counters) so cost shows up on the same timeline as the
phase spans.

Wall-clock fields here are measurements, not decisions: the cost report is
*informative* (uploaded by CI, rendered by ``repro serve``), while the
byte-identical replay contract lives in the decision journals
(:mod:`repro.service.policy`).
"""

from __future__ import annotations

import json
import threading
from typing import Any


class CostLedger:
    """One tenant's accumulated costs.  Thread-safe: the connection
    handler charges admission-side fields while the endpoint worker
    charges analysis-side fields."""

    def __init__(self, tenant: str, placement: str) -> None:
        self.tenant = tenant
        self.placement = placement
        self._lock = threading.Lock()
        self.steps_admitted = 0
        self.steps_shed = 0
        self.steps_rejected = 0
        self.steps_analyzed = 0
        self.steps_degraded = 0
        self.bytes_in = 0
        self.frames_in = 0
        self.retransmits = 0
        self.analysis_seconds = 0.0
        self.throttle_seconds = 0.0
        self.backpressure_seconds = 0.0

    def charge_step(self, payload_bytes: int, trace=None) -> None:
        with self._lock:
            self.steps_admitted += 1
            self.bytes_in += payload_bytes
        if trace is not None:
            trace.count("service::steps::admitted", 1)
            trace.count("service::bytes::in", payload_bytes)

    def charge_shed(self, trace=None) -> None:
        with self._lock:
            self.steps_shed += 1
        if trace is not None:
            trace.count("service::steps::shed", 1)

    def charge_reject(self, trace=None) -> None:
        with self._lock:
            self.steps_rejected += 1
        if trace is not None:
            trace.count("service::steps::rejected", 1)

    def charge_analysis(self, seconds: float, trace=None) -> None:
        with self._lock:
            self.steps_analyzed += 1
            self.analysis_seconds += seconds
        if trace is not None:
            trace.count("service::analysis::seconds", seconds)

    def charge_degraded(self, trace=None) -> None:
        with self._lock:
            self.steps_degraded += 1
        if trace is not None:
            trace.count("service::steps::degraded", 1)

    def charge_throttle(self, seconds: float, trace=None) -> None:
        with self._lock:
            self.throttle_seconds += seconds
        if trace is not None:
            trace.count("service::throttle::seconds", seconds)

    def charge_backpressure(self, seconds: float, trace=None) -> None:
        with self._lock:
            self.backpressure_seconds += seconds
        if trace is not None:
            trace.count("service::backpressure::seconds", seconds)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "placement": self.placement,
                "steps_admitted": self.steps_admitted,
                "steps_shed": self.steps_shed,
                "steps_rejected": self.steps_rejected,
                "steps_analyzed": self.steps_analyzed,
                "steps_degraded": self.steps_degraded,
                "bytes_in": self.bytes_in,
                "frames_in": self.frames_in,
                "retransmits": self.retransmits,
                "analysis_seconds": round(self.analysis_seconds, 6),
                "throttle_seconds": round(self.throttle_seconds, 6),
                "backpressure_seconds": round(self.backpressure_seconds, 6),
            }


def build_cost_report(
    ledgers: dict[str, CostLedger], meta: dict[str, Any]
) -> dict[str, Any]:
    tenants = {name: ledgers[name].as_dict() for name in sorted(ledgers)}
    totals = {
        "steps_admitted": sum(t["steps_admitted"] for t in tenants.values()),
        "steps_shed": sum(t["steps_shed"] for t in tenants.values()),
        "steps_rejected": sum(t["steps_rejected"] for t in tenants.values()),
        "steps_degraded": sum(t["steps_degraded"] for t in tenants.values()),
        "bytes_in": sum(t["bytes_in"] for t in tenants.values()),
        "analysis_seconds": round(
            sum(t["analysis_seconds"] for t in tenants.values()), 6
        ),
    }
    return {"meta": meta, "tenants": tenants, "totals": totals}


def dump_cost_report(report: dict[str, Any], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
