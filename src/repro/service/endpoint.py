"""Per-tenant analysis endpoints: one Bridge, one tenant, one artifact dir.

Each tenant the server admits gets a private analysis pipeline -- a
single-rank simulated communicator, a :class:`~repro.core.bridge.Bridge`
over the same :class:`~repro.core.received.ReceivedDataAdaptor` the
FlexPath endpoint uses, and the shared analysis stack (histogram + the
Catalyst slice pipeline) writing into ``<out>/tenants/<name>/``.  Isolation
is structural: tenants share no communicator, no adaptor state, and no
output directory, which is what lets the acceptance test assert
byte-identical artifacts between a socket-streamed run and
:func:`run_workload_inproc` driving the same endpoint directly.

Degradation under chaos reuses the staging transport's one attempt/skip
policy: a :class:`~repro.faults.policies.CircuitBreaker` per tenant trips
after consecutive analysis failures (injected at the ``service.step`` site)
and admits single probes, so a tenant with a poisoned pipeline degrades to
ingest-only service instead of failing its connection -- consulted through
the same ``allow()`` / ``observe_outcome()`` calls `StagingResilience`
makes.
"""

from __future__ import annotations

import json
import os
import time as _time

import numpy as np

from repro.analysis.histogram import HistogramAnalysis
from repro.analysis.slice_ import SlicePlane
from repro.core.bridge import Bridge
from repro.core.received import ReceivedDataAdaptor
from repro.faults.plan import SITE_SERVICE_STEP
from repro.faults.policies import CircuitBreaker
from repro.infrastructure.catalyst import CatalystAdaptor
from repro.mpi.communicator import Communicator
from repro.service.policy import DecisionJournal, ServiceDecision
from repro.util.decomp import Extent
from repro.util.timers import TimerRegistry


def step_extent(arrays: dict[str, np.ndarray]) -> Extent:
    """The block extent of one step: the first (sorted) array's shape,
    1-D and 2-D fields padded to 3-D."""
    nx, ny, nz = (arrays[min(arrays)].shape + (1, 1))[:3]
    return Extent(0, nx - 1, 0, ny - 1, 0, nz - 1)


class InjectedAnalysisError(RuntimeError):
    """Raised inside the endpoint when ``service.step`` injects a failure."""


def analysis_fault(injector, slot: int, step: int, trace=None):
    """A hook analysis that consults the fault plan before real analyses.

    Runs first in the bridge's analysis list so an injected ``analysis_fail``
    aborts the step exactly where a real pipeline failure would surface.
    """
    action = injector.draw(SITE_SERVICE_STEP, slot, step=step, trace=trace)
    if action is None:
        return
    if action.kind == "analysis_fail":
        raise InjectedAnalysisError(f"injected analysis failure at step {step}")
    if action.kind == "stall":
        _time.sleep(float(action.params.get("seconds", 0.002)))


class TenantEndpoint:
    """One tenant's analysis pipeline behind the service.

    ``process`` is called in the tenant's step order -- by the connection
    handler (in-line placement) or the tenant's single worker thread
    (staged placement) -- so the endpoint journal is deterministic despite
    server-side concurrency.
    """

    def __init__(
        self,
        tenant: str,
        slot: int,
        out_dir: str,
        recorder=None,
        injector=None,
        journal: DecisionJournal | None = None,
        bins: int = 32,
        resolution: tuple[int, int] = (160, 90),
        render: bool = True,
    ) -> None:
        self.tenant = tenant
        self.slot = slot
        self.out_dir = out_dir
        self.recorder = recorder
        self.injector = injector
        self.journal = journal
        self.breaker = CircuitBreaker()
        os.makedirs(out_dir, exist_ok=True)
        comm = Communicator.single_rank()
        if recorder is not None:
            comm.attach_trace(recorder)
        self.adaptor = ReceivedDataAdaptor(comm)
        self.bridge = Bridge(
            comm, self.adaptor, timers=TimerRegistry(), trace=recorder
        )
        self.histogram = HistogramAnalysis(bins=bins, array="data")
        self.bridge.add_analysis(self.histogram)
        self.catalyst: CatalystAdaptor | None = None
        if render:
            self.catalyst = CatalystAdaptor(
                plane=SlicePlane(2, 0),
                array="data",
                resolution=resolution,
                output_dir=out_dir,
                compression_level=6,
            )
            self.bridge.add_analysis(self.catalyst)
        self.bridge.initialize()
        self.steps_ok = 0
        self.steps_failed = 0
        self.steps_skipped = 0
        self._seq = 0
        self._hist_steps: list[int] = []
        self._finalized = False

    def _record(self, verdict: str, step: int, detail: str | None = None) -> None:
        if self.journal is None:
            return
        seq = self._seq
        self._seq += 1
        self.journal.record(
            ServiceDecision(
                seq=seq, event="analysis", verdict=verdict, bytes=step,
                detail=detail,
            )
        )

    def process(
        self, step: int, sim_time: float, arrays: dict[str, np.ndarray]
    ) -> tuple[str, float]:
        """Run the tenant's analyses on one admitted step.

        Returns ``(outcome, analysis_seconds)`` with outcome ``"ok"``,
        ``"failed"`` (injected/real analysis error, breaker charged), or
        ``"skipped"`` (breaker open -- degraded, ingest-only service).
        """
        if not self.breaker.allow():
            self.steps_skipped += 1
            self._record("skipped", step, detail="circuit open")
            return "skipped", 0.0
        t0 = _time.perf_counter()
        try:
            if self.injector is not None:
                analysis_fault(self.injector, self.slot, step, self.recorder)
            self.adaptor.ingest(0, step_extent(arrays), arrays)
            self.bridge.execute(sim_time, step)
        except InjectedAnalysisError as exc:
            self.adaptor.release_data()
            self.breaker.observe_outcome(step, staged=False)
            self.steps_failed += 1
            self._record("failed", step, detail=str(exc))
            return "failed", _time.perf_counter() - t0
        self.breaker.observe_outcome(step, staged=True)
        self.steps_ok += 1
        self._hist_steps.append(step)
        self._record("ok", step)
        return "ok", _time.perf_counter() - t0

    def finalize(self) -> dict:
        """Close the bridge and write the tenant's histogram artifact.

        Idempotent, like the bridge finalize it wraps: disconnect cleanup
        and the normal EOS epilogue may both reach it.
        """
        if self._finalized:
            return {}
        self._finalized = True
        results = self.bridge.finalize()
        history = results.get("HistogramAnalysis") or []
        doc = [
            {
                "step": step,
                "vmin": float(h.vmin),
                "vmax": float(h.vmax),
                "counts": [int(c) for c in h.counts],
            }
            for step, h in zip(self._hist_steps, history)
        ]
        path = os.path.join(self.out_dir, "histograms.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return results


def run_workload_inproc(
    tenant: str,
    steps,
    out_dir: str,
) -> TenantEndpoint:
    """Drive ``steps`` (an iterable of ``(step, time, arrays)``) straight
    through a :class:`TenantEndpoint` -- no sockets, no quotas.

    This is the equivalence oracle: the artifacts it writes must be
    byte-identical to the same workload streamed through a server with the
    default histogram bins and Catalyst resolution.
    """
    endpoint = TenantEndpoint(tenant, 0, out_dir)
    for step, sim_time, arrays in steps:
        endpoint.process(step, sim_time, arrays)
    endpoint.finalize()
    return endpoint
