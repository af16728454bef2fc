"""ADIOS emulation: BP-file output and the FlexPath staging transport.

"Unlike the other methods discussed so far, the ADIOS FlexPath approach
leads to having two different executables ... the writer/simulation, and
... the endpoint/analysis" (Sec. 4.1.4).  Here the two executables are two
groups of ranks inside one SPMD job (:func:`run_flexpath_job` splits the
world), matching the paper's co-scheduled deployment where the endpoint
shares the writer's nodes.

Writer-side timing mirrors Fig. 8: ``adios::advance`` covers the metadata
update between writer and reader; ``adios::analysis`` covers data
transmission *plus any blocking time if the reader is not yet ready* (flow
control is an explicit ready-token handshake).  "The current FlexPath
transport does not yet use zero-copy", so every array the writer ships is
copied once: the transport's capture of the payload at ``send``, counted as
``adios::bytes_copied`` and charged as ``adios::staging``.  It is a measured
cost, and the reason the in transit Catalyst-slice carries the ~50% penalty
the paper reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
from repro.core.bridge import Bridge
from repro.core.received import ReceivedDataAdaptor
from repro.data import Association, DataArray, ImageData
from repro.mpi import MIN, Communicator, MPIError, run_spmd
from repro.storage.bp import BPWriter
from repro.util.timers import TimerRegistry, timed

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector, FaultPlan
    from repro.trace import TraceSession

# Message tags of the staging protocol.
_TAG_ADVANCE = 1001  # writer -> endpoint: step metadata
_TAG_READY = 1002  # endpoint -> writer: flow-control token
_TAG_DATA = 1003  # writer -> endpoint: array payload
_TAG_EOS = 1004  # writer -> endpoint: end of stream
_TAG_SKIP = 1005  # writer -> endpoint: degraded step, no data this round


def endpoint_for_writer(writer: int, n_writers: int, n_endpoints: int) -> int:
    """Static writer->endpoint assignment (contiguous blocks)."""
    if not 0 <= writer < n_writers:
        raise ValueError("writer rank out of range")
    return writer * n_endpoints // n_writers


def writers_for_endpoint(endpoint: int, n_writers: int, n_endpoints: int) -> list[int]:
    return [
        w
        for w in range(n_writers)
        if endpoint_for_writer(w, n_writers, n_endpoints) == endpoint
    ]


class AdiosBPAdaptor(AnalysisAdaptor):
    """File-mode ADIOS: every execute writes the step into a BP container.

    ``retry`` (a :class:`~repro.faults.RetryPolicy`) retries each rank's
    block write under exponential backoff with full jitter; only the write
    itself is retried (it is idempotent -- see
    :meth:`~repro.storage.bp.BPWriter._consult_injector`), never the
    collective ``begin_step``/``end_step`` boundaries.
    """

    def __init__(self, path, array: str = "data", retry=None) -> None:
        super().__init__()
        self.path = path
        self.array = array
        self.retry = retry
        self._writer: BPWriter | None = None
        self._comm = None
        self.steps_written = 0

    def initialize(self, comm) -> None:
        self._comm = comm

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh()
        if not isinstance(mesh, ImageData):
            raise TypeError("AdiosBPAdaptor requires an ImageData mesh")
        if self._writer is None:
            w = mesh.whole_extent
            self._writer = BPWriter(
                self._comm, self.path, (w.shape[0], w.shape[1], w.shape[2])
            )
        arr = data.get_array(Association.POINT, self.array)
        block = arr.values.reshape(mesh.dims)
        with timed(self.timers, "adios::write"):
            self._writer.begin_step()
            if self.retry is not None:
                from repro.faults.policies import retry_call

                retry_call(
                    lambda: self._writer.write(self.array, block, mesh.extent),
                    self.retry,
                    key=f"bp:{self._comm.rank}:{self.steps_written}",
                    trace=self.timers.trace if self.timers is not None else None,
                )
            else:
                self._writer.write(self.array, block, mesh.extent)
            self._writer.end_step()
        self.steps_written += 1
        return True

    def finalize(self):
        if self._writer is not None:
            self._writer.close()
        return {"steps_written": self.steps_written}


class StagingResilience:
    """Config + accounting for a resilient staging writer group.

    One instance per writer rank (they cannot share mutable state across
    simulated address spaces), all built with identical parameters so the
    collective degrade decisions stay uniform.  ``fallback`` is an optional
    in-line analysis adaptor executed on the *writer* group whenever the
    in-transit path is degraded -- the paper's in-line Catalyst
    configuration standing in for the lost endpoint.  With no fallback,
    degraded steps are skipped but still accounted.

    ``breaker`` (a :class:`~repro.faults.CircuitBreaker`) decides, once per
    step, whether staging is attempted at all, and learns each step's
    consensus outcome.  Its state is a pure function of that uniform
    consensus history, so it answers identically on every writer and the
    one-degrades-all invariant holds.
    """

    def __init__(
        self,
        group: Communicator,
        ready_timeout: float = 0.25,
        fallback: AnalysisAdaptor | None = None,
    ) -> None:
        from repro.faults import CircuitBreaker

        if ready_timeout <= 0:
            raise ValueError("ready_timeout must be positive")
        self.group = group
        self.ready_timeout = ready_timeout
        self.breaker = CircuitBreaker()
        self.fallback = fallback
        self._fallback_ready = False
        self.staged_steps = 0
        self.degraded_steps = 0
        self.skipped_steps = 0


class AdiosFlexPathWriter(AnalysisAdaptor):
    """Writer-side FlexPath adaptor: ships each step to its endpoint rank.

    ``world`` is the communicator spanning writers + endpoints; ``execute``
    runs on the writer group.  One endpoint world-rank is assigned per
    writer by :func:`endpoint_for_writer`.

    With ``resilience`` set, the per-step protocol changes from optimistic
    (ADVANCE, then block on READY, then DATA) to guarded: the writer first
    waits for the endpoint's READY token under a short timeout, the writer
    group reaches consensus on the outcome (an ``allreduce(MIN)``, so one
    straggling or disconnected endpoint degrades *every* writer in the same
    step and collective analyses stay aligned), and only then ships the
    step.  Degraded steps run the in-line ``fallback`` analysis -- or are
    skipped with accounting -- and a circuit breaker stops paying the READY
    timeout once the endpoint is presumed dead, probing periodically for
    recovery.  A degraded round sends a SKIP marker so a still-live
    endpoint's receive loop stays in phase.  A token that arrives after
    the timeout is kept for the next attempt, so a slow (not dead)
    endpoint alternates failures with successes and never trips the
    breaker.
    """

    def __init__(
        self,
        world: Communicator,
        writer_rank: int,
        n_writers: int,
        n_endpoints: int,
        array: str = "data",
        resilience: StagingResilience | None = None,
    ) -> None:
        super().__init__()
        self.world = world
        self.writer_rank = writer_rank
        self.n_writers = n_writers
        self.n_endpoints = n_endpoints
        self.array = array
        self.resilience = resilience
        # Endpoint world ranks sit after the writers.
        self.endpoint_world_rank = n_writers + endpoint_for_writer(
            writer_rank, n_writers, n_endpoints
        )
        self.steps_sent = 0

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh()
        if not isinstance(mesh, ImageData):
            raise TypeError("FlexPath writer requires an ImageData mesh")
        if self.resilience is not None:
            return self._execute_resilient(data, mesh)
        arr = data.get_array(Association.POINT, self.array)
        with timed(self.timers, "adios::advance"):
            self.world.send(
                self._step_meta(data, mesh),
                dest=self.endpoint_world_rank,
                tag=_TAG_ADVANCE,
            )
        with timed(self.timers, "adios::analysis"):
            # Flow control: block until the endpoint is ready for this step.
            self.world.recv(source=self.endpoint_world_rank, tag=_TAG_READY)
            self._ship(arr, mesh)
        self.steps_sent += 1
        return True

    def _step_meta(self, data: DataAdaptor, mesh: ImageData) -> dict:
        return {
            "writer": self.writer_rank,
            "step": data.get_data_time_step(),
            "time": data.get_data_time(),
            "extent": mesh.extent,
            "whole_extent": mesh.whole_extent,
            "array": self.array,
        }

    def _ship(self, arr: DataArray, mesh: ImageData) -> None:
        # FlexPath is not zero-copy, and ``send`` is where the copy happens:
        # the transport captures the payload before it returns, so the
        # block goes as a view and the bytes are staged exactly once.
        staged = arr.values.reshape(mesh.dims)
        rec = self.timers.trace if self.timers is not None else None
        if rec is not None:
            rec.count("adios::bytes_copied", staged.nbytes)
        if self.memory is None:
            self.world.send(staged, dest=self.endpoint_world_rank, tag=_TAG_DATA)
            return
        self.memory.allocate(staged.nbytes, label="adios::staging")
        try:
            self.world.send(staged, dest=self.endpoint_world_rank, tag=_TAG_DATA)
        finally:
            self.memory.free(staged.nbytes, label="adios::staging")

    def _execute_resilient(self, data: DataAdaptor, mesh: ImageData) -> bool:
        res = self.resilience
        rec = self.timers.trace if self.timers is not None else None
        # The attempt gate is consulted exactly once per step on every
        # writer, and answers identically on every rank.
        ok = 1 if res.breaker.allow() else 0
        inj = getattr(self.world, "fault_injector", None)
        if ok and inj is not None:
            # Writer-side bounded staging queue: an overflow refuses the
            # step locally; consensus below degrades the whole group.
            action = inj.draw(
                "staging.queue",
                self.world._draw_rank(),
                step=data.get_data_time_step(),
                trace=rec,
            )
            if action is not None and action.kind == "queue_full":
                ok = 0
        if ok:
            try:
                with timed(self.timers, "adios::ready_wait"):
                    self.world.recv(
                        source=self.endpoint_world_rank,
                        tag=_TAG_READY,
                        timeout=res.ready_timeout,
                    )
            except MPIError:
                ok = 0
        # Consensus: one degraded writer degrades all, keeping the fallback
        # analysis' collectives aligned across the writer group.  (A writer
        # whose READY arrived anyway keeps the token for the next attempt.)
        consensus = res.group.allreduce(ok, MIN)
        if consensus:
            with timed(self.timers, "adios::advance"):
                self.world.send(
                    self._step_meta(data, mesh),
                    dest=self.endpoint_world_rank,
                    tag=_TAG_ADVANCE,
                )
            with timed(self.timers, "adios::analysis"):
                self._ship(data.get_array(Association.POINT, self.array), mesh)
            res.staged_steps += 1
            self.steps_sent += 1
        else:
            # Keep a still-live endpoint's receive loop in phase.
            self.world.send(None, dest=self.endpoint_world_rank, tag=_TAG_SKIP)
            if res.fallback is not None:
                if not res._fallback_ready:
                    res.fallback.set_instrumentation(self.timers, self.memory)
                    res.fallback.initialize(res.group)
                    res._fallback_ready = True
                with timed(self.timers, "adios::fallback_analysis"):
                    res.fallback.execute(data)
                res.degraded_steps += 1
                if rec is not None:
                    rec.count("resilience::degraded_steps", 1)
            else:
                res.skipped_steps += 1
                if rec is not None:
                    rec.count("resilience::skipped_steps", 1)
        # The breaker sees the group's outcome, so every writer's breaker
        # state stays identical, and may change its answer for the next step.
        res.breaker.observe_outcome(data.get_data_time_step(), staged=bool(consensus))
        return True

    def finalize(self):
        self.world.send(None, dest=self.endpoint_world_rank, tag=_TAG_EOS)
        out = {"steps_sent": self.steps_sent}
        res = self.resilience
        if res is not None:
            fallback_result = (
                res.fallback.finalize() if res._fallback_ready else None
            )
            out.update(
                {
                    "staged_steps": res.staged_steps,
                    "degraded_steps": res.degraded_steps,
                    "skipped_steps": res.skipped_steps,
                    "fallback_result": fallback_result,
                    "breaker": res.breaker.snapshot(),
                }
            )
        return out


@dataclass
class FlexPathJobResult:
    """Per-rank results of a staged job: writer returns + endpoint returns."""

    writer_results: list[Any]
    endpoint_results: list[Any]


def run_endpoint(
    world: Communicator,
    endpoint_comm: Communicator,
    endpoint_rank: int,
    n_writers: int,
    n_endpoints: int,
    analysis: AnalysisAdaptor,
    sanitize: bool = False,
) -> Any:
    """The endpoint executable's main loop.

    Receives steps from the assigned writers until every one signals EOS,
    driving ``analysis`` once per completed step.  The reader initialization
    (Fig. 9's expensive phase on Cori) is the analysis initialize plus the
    first-contact handshakes.  The endpoint *is* a SENSEI bridge over a
    :class:`~repro.core.received.ReceivedDataAdaptor`: the ``endpoint::*``
    timers wrap the bridge's phases, and ``sanitize=True`` enforces the
    zero-copy write/retention contract on this side of the staging
    transport exactly as it does in situ.
    """
    timers = TimerRegistry()
    my_writers = writers_for_endpoint(endpoint_rank, n_writers, n_endpoints)
    adaptor = ReceivedDataAdaptor(endpoint_comm, n_writers)
    # Endpoint ranks trace too when the job runs under a TraceSession: the
    # bridge picks the recorder up from the (split) communicator.
    bridge = Bridge(
        endpoint_comm, adaptor, timers=timers, memory=analysis.memory,
        sanitize=sanitize,
    )
    bridge.add_analysis(analysis)
    with timed(timers, "endpoint::initialize"):
        bridge.initialize()
    open_writers = set(my_writers)
    # Issue one flow-control token per writer up front.
    for w in open_writers:
        world.send(None, dest=w, tag=_TAG_READY)
    inj = getattr(world, "fault_injector", None)
    loop_step = 0
    steps_analyzed = 0
    disconnected_at: int | None = None
    while open_writers:
        if inj is not None:
            # Reader-side fault site: a ``disconnect`` kills the endpoint
            # loop here, before this round's receives -- the writers' next
            # READY wait times out and the job degrades to in-line
            # analysis.  ``stale_step`` delays the reader, serving the
            # round late.
            action = inj.draw(
                "staging.endpoint", endpoint_rank, step=loop_step,
                trace=timers.trace,
            )
            if action is not None:
                if action.kind == "disconnect":
                    disconnected_at = loop_step
                    break
                if action.kind == "stale_step":
                    time.sleep(float(action.params.get("seconds", 0.002)))
        step_time = 0.0
        step_idx = 0
        with timed(timers, "endpoint::receive"):
            got_any = False
            for w in sorted(open_writers):
                meta, _, tag = world.recv_with_status(source=w)
                if tag == _TAG_EOS:
                    open_writers.discard(w)
                    continue
                if tag == _TAG_SKIP:
                    # The writer group degraded this round; nothing to
                    # ingest from anyone (the decision is collective).
                    continue
                if tag != _TAG_ADVANCE:
                    raise MPIError(f"staging protocol violation: tag {tag}")
                data = world.recv(source=w, tag=_TAG_DATA)
                adaptor.ingest(
                    meta["writer"], meta["extent"], {meta["array"]: data},
                    meta["whole_extent"],
                )
                step_time = meta["time"]
                step_idx = meta["step"]
                got_any = True
        if got_any:
            with timed(timers, "endpoint::analysis"):
                bridge.execute(step_time, step_idx)
            steps_analyzed += 1
        # Release the next flow-control token to writers still streaming.
        # (An all-SKIP round still re-issues tokens: the endpoint remains
        # ready, and a recovering writer group finds a token waiting.)
        for w in sorted(open_writers):
            world.send(None, dest=w, tag=_TAG_READY)
        loop_step += 1
    with timed(timers, "endpoint::finalize"):
        result = bridge.finalize().get(analysis.name)
    return {
        "result": result,
        "timers": timers.as_dict(),
        "steps_analyzed": steps_analyzed,
        "disconnected_at_step": disconnected_at,
    }


def run_flexpath_job(
    n_writers: int,
    n_endpoints: int,
    writer_program: Callable[[Communicator, AdiosFlexPathWriter], Any],
    analysis_factory: Callable[[Communicator], AnalysisAdaptor],
    array: str = "data",
    timeout: float = 120.0,
    sanitize: bool = False,
    faults: "FaultPlan | FaultInjector | None" = None,
    resilience_factory: Callable[[Communicator], StagingResilience] | None = None,
    trace: "TraceSession | None" = None,
    backend: "str | None" = None,
) -> FlexPathJobResult:
    """Run a complete staged job: writers + endpoint in one SPMD world.

    ``writer_program(sim_comm, writer_adaptor)`` must drive the simulation
    and a bridge containing ``writer_adaptor`` (and call the bridge's
    finalize, which sends EOS).  ``analysis_factory(endpoint_comm)`` builds
    the analysis the endpoint hosts.  ``sanitize`` enables the zero-copy
    write/retention guard around the endpoint's analysis (see
    :func:`run_endpoint`).

    ``faults`` threads a :class:`~repro.faults.FaultPlan` through the whole
    job (fabric, storage, staging sites).  ``backend`` selects the SPMD
    execution backend ("thread"/"process", see ``run_spmd``); the staged
    data path (per-rank BP subfiles, pipe/shared-memory fabric) is
    backend-agnostic.  ``resilience_factory(group)``
    builds each writer rank's :class:`StagingResilience`; it requires
    ``n_endpoints == 1`` -- with several endpoints a *partial* endpoint
    death would leave surviving endpoints blocked on writers that degraded,
    and the group-wide degrade consensus would be wrong for writers whose
    endpoint is fine.
    """
    if n_writers <= 0 or n_endpoints <= 0:
        raise ValueError("writer and endpoint counts must be positive")
    if n_endpoints > n_writers:
        # An endpoint with no writers would never execute its (collective)
        # analysis while its peers do, deadlocking the endpoint group.
        raise ValueError("n_endpoints must not exceed n_writers")
    if resilience_factory is not None and n_endpoints != 1:
        raise ValueError("staging resilience requires exactly one endpoint")

    total = n_writers + n_endpoints

    def job(world: Communicator):
        is_writer = world.rank < n_writers
        group = world.split(color=0 if is_writer else 1)
        if is_writer:
            writer = AdiosFlexPathWriter(
                world,
                group.rank,
                n_writers,
                n_endpoints,
                array=array,
                resilience=(
                    resilience_factory(group)
                    if resilience_factory is not None
                    else None
                ),
            )
            return ("writer", writer_program(group, writer))
        endpoint_rank = world.rank - n_writers
        analysis = analysis_factory(group)
        return (
            "endpoint",
            run_endpoint(
                world,
                group,
                endpoint_rank,
                n_writers,
                n_endpoints,
                analysis,
                sanitize=sanitize,
            ),
        )

    results = run_spmd(
        total, job, timeout=timeout, faults=faults, trace=trace, backend=backend
    )
    return FlexPathJobResult(
        writer_results=[r for kind, r in results if kind == "writer"],
        endpoint_results=[r for kind, r in results if kind == "endpoint"],
    )
