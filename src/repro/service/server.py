"""The long-running multi-tenant in situ server.

One :class:`ServiceServer` owns a Unix-domain listening socket, a tenant
registry, and the shared policy state: an admission gate (max concurrent
clients, one connection per tenant), a server-wide bytes-in-flight budget
(backpressure by blocking, traced but never journaled), per-tenant quota
policies with journaled verdicts, per-tenant analysis endpoints, and
per-tenant cost ledgers.

Threading model
---------------
- one accept loop thread;
- one handler thread per live connection, which owns that connection's
  :class:`~repro.mpi.framing.FrameChannel`, the tenant's
  :class:`~repro.service.policy.TenantPolicy`, and (for in-line placement)
  drives the tenant's endpoint directly;
- for staged placement, one worker thread per tenant endpoint consuming a
  bounded queue -- the server-side analog of the staging transport's
  bounded queue, and where "bytes in flight" accumulate.

Determinism: every journaled decision depends only on the tenant's own
event sequence and seeded draws; cross-tenant contention surfaces as
*waiting* (backpressure/throttle seconds on the cost ledger), never as a
different decision.  The journal file a seeded run writes is byte-identical
across repeats -- the acceptance contract.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time as _time
from collections import deque

from repro.mpi.framing import (
    FrameChannel,
    MalformedFrameError,
    TruncatedFrameError,
)
from repro.service import protocol
from repro.service.accounting import (
    CostLedger,
    build_cost_report,
    dump_cost_report,
)
from repro.service.endpoint import TenantEndpoint
from repro.service.policy import TenantJournals, TenantPolicy, dump_journals
from repro.service.tenancy import TenantRegistry, verify_token
from repro.trace.recorder import TraceSession


class BytesInFlight:
    """The server-wide admitted-but-unprocessed byte budget.

    ``acquire`` blocks while the budget is exhausted -- the memory-budget
    backpressure stall.  A payload larger than the whole budget is admitted
    alone (waits for the server to drain) rather than deadlocking.
    """

    def __init__(self, limit: int | None) -> None:
        self.limit = limit
        self._held = 0
        self._cond = threading.Condition()

    def acquire(self, n: int) -> float:
        """Block until ``n`` bytes fit; returns seconds spent waiting."""
        if self.limit is None:
            return 0.0
        t0 = _time.perf_counter()
        with self._cond:
            while self._held > 0 and self._held + n > self.limit:
                self._cond.wait(timeout=0.5)
            self._held += n
        return _time.perf_counter() - t0

    def release(self, n: int) -> None:
        if self.limit is None:
            return
        with self._cond:
            self._held = max(0, self._held - n)
            self._cond.notify_all()

    @property
    def held(self) -> int:
        with self._cond:
            return self._held


class TenantFailure(RuntimeError):
    """A tenant's connection ends because its analysis cannot go on.

    ``detail`` is what the decision journal records: it names only things
    that replay identically (the step, the exception type), never a
    message or a timing.
    """

    def __init__(self, tenant: str, detail: str) -> None:
        super().__init__(f"tenant {tenant!r}: {detail}")
        self.detail = detail


def _analysis_failure(tenant: str, step: int, exc: Exception) -> TenantFailure:
    """The failure for ``exc`` raised by ``tenant``'s analysis at ``step``;
    ``exc`` (with its traceback) stays attached as the cause."""
    failure = TenantFailure(
        tenant, f"analysis raised {type(exc).__name__} at step {step}"
    )
    failure.__cause__ = exc
    return failure


def _wake(channel: FrameChannel) -> None:
    """End a blocked ``channel.recv`` at once: shut the socket's read side
    (its write side stays open for the REJECT)."""
    try:
        channel.sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass


class _TenantWorker:
    """The staged-placement worker: one thread draining one tenant's queue.

    An analysis that raises stops the processing: the worker keeps
    taking (and releasing the budget of) whatever is queued, so neither
    ``submit`` nor ``drain`` can wait on it, records the failure, and calls
    ``on_failure`` to wake the connection handler.
    """

    #: Steps queued before :meth:`submit` blocks (staging backpressure).
    depth = 4
    #: Seconds :meth:`drain` waits for the submitted steps to finish.
    drain_timeout = 60.0

    def __init__(
        self,
        endpoint: TenantEndpoint,
        ledger: CostLedger,
        budget: BytesInFlight,
        on_failure=None,
    ) -> None:
        self.endpoint = endpoint
        self.ledger = ledger
        self.budget = budget
        self.on_failure = on_failure
        #: The first analysis failure, or None.
        self.failure: TenantFailure | None = None
        self.queue: queue.Queue = queue.Queue(maxsize=self.depth)
        #: Steps submitted and not yet done, in order, under ``_idle``.
        self._pending: deque[int] = deque()
        self._idle = threading.Condition()
        self._timed_out = False
        self.thread = threading.Thread(
            target=self._run, name=f"svc-worker-{endpoint.tenant}", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            step, sim_time, arrays, nbytes = item
            try:
                if self.failure is None:
                    self._process(step, sim_time, arrays)
            finally:
                self.budget.release(nbytes)
                with self._idle:
                    self._pending.popleft()
                    self._idle.notify_all()

    def _process(self, step, sim_time, arrays) -> None:
        try:
            outcome, seconds = self.endpoint.process(step, sim_time, arrays)
        except Exception as exc:
            self.failure = _analysis_failure(self.endpoint.tenant, step, exc)
            if self.on_failure is not None:
                self.on_failure()
            return
        self.ledger.charge_analysis(seconds, trace=self.endpoint.recorder)
        if outcome != "ok":
            self.ledger.charge_degraded(trace=self.endpoint.recorder)

    def submit(self, step, sim_time, arrays, nbytes) -> float:
        """Enqueue one admitted step; returns seconds blocked on a full
        queue (per-tenant staging backpressure)."""
        with self._idle:
            self._pending.append(step)
        t0 = _time.perf_counter()
        self.queue.put((step, sim_time, arrays, nbytes))
        return _time.perf_counter() - t0

    def drain(self) -> None:
        """Block until every submitted step is done (processed, or dropped
        after a failure); :class:`TenantFailure` naming the steps still
        pending after :attr:`drain_timeout` seconds, and at once on every
        later call."""
        deadline = _time.monotonic() + self.drain_timeout
        with self._idle:
            while self._pending:
                left = deadline - _time.monotonic()
                if self._timed_out or left <= 0:
                    self._timed_out = True
                    raise TenantFailure(
                        self.endpoint.tenant,
                        f"staged step(s) {list(self._pending)} still pending "
                        f"after {self.drain_timeout:g} s",
                    )
                self._idle.wait(left)

    def stop(self) -> None:
        """Idempotent shutdown: park the thread and join it.  A worker
        wedged in an analysis with a full queue is left to die with the
        process (it is a daemon)."""
        if self.thread.is_alive():
            try:
                self.queue.put(None, timeout=1.0)
            except queue.Full:
                return
        self.thread.join(timeout=30.0)


class ServiceServer:
    """See module docstring.  Construct, :meth:`start`, drive clients,
    then :meth:`stop` (or :meth:`wait` for ``expect`` tenants to finish)."""

    def __init__(
        self,
        socket_path: str,
        registry: TenantRegistry,
        secret: str,
        out_dir: str,
        seed: int = 0,
        max_clients: int = 16,
        memory_budget: int | None = None,
        injector=None,
        trace: TraceSession | None = None,
        now=None,
        expect: int | None = None,
        bins: int = 32,
        resolution: tuple[int, int] = (160, 90),
        render: bool = True,
    ) -> None:
        self.socket_path = socket_path
        self.registry = registry
        self.secret = secret
        self.out_dir = out_dir
        self.seed = int(seed)
        self.max_clients = max_clients
        self.injector = injector
        self.trace = trace if trace is not None else TraceSession("service")
        self._now = now if now is not None else _time.time
        self.expect = expect
        self.bins = bins
        self.resolution = resolution
        self.render = render
        self.budget = BytesInFlight(memory_budget)
        os.makedirs(out_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._done = threading.Event()
        self._active: set[str] = set()
        self._completed: set[str] = set()
        self._rejected_connections = 0
        self.journals: dict[str, TenantJournals] = {}
        self.ledgers: dict[str, CostLedger] = {}
        self._workers: dict[str, _TenantWorker] = {}
        self._rate_last: dict[str, float] = {}
        # Server-control recorder: rank 0, tenants occupy slot + 1.
        self._server_rec = self.trace.recorder(0, label="server")

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(self.max_clients)
        listener.settimeout(0.25)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="svc-accept", daemon=True
        )
        self._accept_thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until ``expect`` tenants completed (EOS); True on success."""
        return self._done.wait(timeout)

    def stop(self) -> None:
        """Drain workers, write artifacts, tear the socket down."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        for t in list(self._handlers):
            t.join(timeout=30.0)
        for worker in self._workers.values():
            worker.stop()
        self._write_artifacts()
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _write_artifacts(self) -> None:
        with open(
            os.path.join(self.out_dir, "decision_journal.json"),
            "w",
            encoding="utf-8",
        ) as fh:
            fh.write(dump_journals(self.journals))
        meta = {
            "seed": self.seed,
            "tenants": self.registry.names(),
            "completed": sorted(self._completed),
            "rejected_connections": self._rejected_connections,
            "max_clients": self.max_clients,
            "memory_budget": self.budget.limit,
        }
        dump_cost_report(
            build_cost_report(self.ledgers, meta),
            os.path.join(self.out_dir, "cost_report.json"),
        )

    # -- accept/handler ------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            handler = threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            )
            with self._lock:
                self._handlers.append(handler)
            handler.start()

    def _journals_for(self, name: str) -> TenantJournals:
        with self._lock:
            j = self.journals.get(name)
            if j is None:
                spec = self.registry.get(name)
                assert spec is not None
                j = TenantJournals(name, self.seed, spec)
                self.journals[name] = j
            return j

    def _reject(self, channel: FrameChannel, code: str, reason: str) -> None:
        with self._lock:
            self._rejected_connections += 1
        self._server_rec.count("service::connections::rejected", 1)
        try:
            channel.send(
                protocol.REJECT,
                protocol.encode_control({"code": code, "reason": reason}),
            )
        except OSError:
            pass
        channel.close()

    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(60.0)
        channel = FrameChannel(conn, trace=self._server_rec)
        try:
            kind, seq, payload = channel.recv()
        except (MalformedFrameError, TruncatedFrameError, OSError):
            channel.close()
            return
        if kind != protocol.HELLO:
            self._reject(
                channel, protocol.REJECT_PROTOCOL, "expected HELLO first"
            )
            return
        try:
            hello = protocol.decode_control(payload)
        except protocol.ProtocolError as exc:
            self._reject(channel, protocol.REJECT_PROTOCOL, str(exc))
            return
        name = str(hello.get("tenant", ""))
        spec = self.registry.get(name)
        if spec is None:
            self._reject(
                channel, protocol.REJECT_UNKNOWN_TENANT,
                f"unknown tenant {name!r}",
            )
            return
        journals = self._journals_for(name)
        policy = TenantPolicy(spec, self.registry.slot(name), self.seed)
        with self._lock:
            if len(self._active) >= self.max_clients:
                journals.admission.record(
                    policy.decide_connect("reject_capacity")
                )
                busy = True
                code, reason = (
                    protocol.REJECT_CAPACITY,
                    f"server at max_clients={self.max_clients}",
                )
            elif name in self._active:
                journals.admission.record(policy.decide_connect("reject_busy"))
                busy = True
                code, reason = (
                    protocol.REJECT_BUSY,
                    f"tenant {name!r} already connected",
                )
            else:
                busy = False
                self._active.add(name)
        if busy:
            self._reject(channel, code, reason)
            return
        try:
            self._serve_tenant(channel, name, spec, policy, journals, hello)
        finally:
            with self._lock:
                self._active.discard(name)
            channel.close()

    # -- per-tenant connection ----------------------------------------------
    def _serve_tenant(self, channel, name, spec, policy, journals, hello):
        slot = self.registry.slot(name)
        ok, why = verify_token(
            self.secret, name, str(hello.get("token", "")), self._now()
        )
        journals.admission.record(policy.decide_auth(why))
        if not ok:
            code = (
                protocol.REJECT_EXPIRED_TOKEN
                if why == "expired_token"
                else protocol.REJECT_BAD_TOKEN
            )
            self._reject(channel, code, f"auth failed: {why}")
            return
        journals.admission.record(policy.decide_connect("admit"))
        recorder = self.trace.recorder(slot + 1, label=name)
        channel.trace = recorder
        channel.fault_rank = slot
        with self._lock:
            ledger = self.ledgers.get(name)
            if ledger is None:
                ledger = CostLedger(name, spec.placement)
                self.ledgers[name] = ledger
        endpoint = TenantEndpoint(
            name,
            slot,
            os.path.join(self.out_dir, "tenants", name),
            recorder=recorder,
            injector=self.injector,
            journal=journals.endpoint,
            bins=self.bins,
            resolution=self.resolution,
            render=self.render,
        )
        worker: _TenantWorker | None = None
        if spec.placement == "staged":
            worker = _TenantWorker(
                endpoint, ledger, self.budget,
                on_failure=lambda: _wake(channel),
            )
            with self._lock:
                self._workers[name] = worker
        self._server_rec.count("service::connections::admitted", 1)
        channel.send(
            protocol.WELCOME,
            protocol.encode_control(
                {
                    "credits": spec.quota.credits,
                    "slot": slot,
                    "placement": spec.placement,
                    "quota": spec.quota.as_dict(),
                }
            ),
        )
        failure: TenantFailure | None = None
        try:
            self._step_loop(
                channel, name, spec, policy, journals, endpoint, worker, ledger
            )
        except protocol.ProtocolError as exc:
            # A frame that framed correctly but whose payload is garbage:
            # refuse the tenant, keep the server (and its budget) whole.
            journals.admission.record(policy.decide_disconnect("protocol error"))
            recorder.count("service::disconnects", 1)
            self._reject(channel, protocol.REJECT_PROTOCOL, str(exc))
        except TenantFailure as exc:
            failure = exc
        except (TruncatedFrameError, OSError):
            # A failed staged worker wakes the handler by shutting the
            # socket's read side, which reads as a lost connection.
            failure = worker.failure if worker is not None else None
            if failure is None:
                # Journal a fully *stable* detail: the exception message
                # holds stream-chunking byte counts and even the exception
                # class varies with which syscall notices the dead peer --
                # either would break journal byte-identity across replays.
                journals.admission.record(
                    policy.decide_disconnect("connection lost")
                )
                recorder.count("service::disconnects", 1)
        finally:
            if worker is not None:
                try:
                    worker.drain()
                except TenantFailure:
                    recorder.count("service::drain_timeouts", 1)
                worker.stop()
                with self._lock:
                    if self._workers.get(name) is worker:
                        del self._workers[name]
            endpoint.finalize()
        if failure is not None:
            # The tenant's artifacts are final before its slot is free, so
            # a reconnect is admitted and cannot race the old endpoint.
            journals.admission.record(policy.decide_disconnect(failure.detail))
            recorder.count("service::disconnects", 1)
            with self._lock:
                self._active.discard(name)
            self._reject(channel, protocol.REJECT_ANALYSIS, str(failure))

    def _pace(self, name: str, spec, ledger, recorder) -> None:
        rate = spec.quota.rate_steps_per_s
        if rate is None:
            return
        interval = 1.0 / rate
        now = _time.perf_counter()
        last = self._rate_last.get(name)
        if last is not None and now - last < interval:
            wait = interval - (now - last)
            _time.sleep(wait)
            ledger.charge_throttle(wait, trace=recorder)
        self._rate_last[name] = _time.perf_counter()

    def _step_loop(
        self, channel, name, spec, policy, journals, endpoint, worker, ledger
    ):
        recorder = endpoint.recorder
        while True:
            if worker is not None and worker.failure is not None:
                raise worker.failure
            try:
                kind, seq, payload = channel.recv()
            except MalformedFrameError as exc:
                if not exc.recoverable:
                    raise TruncatedFrameError(str(exc)) from exc
                recorder.count("service::frames::nacked", 1)
                channel.send(
                    protocol.NACK,
                    protocol.encode_control({"seq": channel.expected_seq}),
                )
                continue
            if kind == protocol.NACK:
                channel.retransmit_from(protocol.decode_nack(payload))
                continue
            if kind == protocol.EOS:
                if worker is not None:
                    worker.drain()
                    if worker.failure is not None:
                        raise worker.failure
                endpoint.finalize()
                journals.admission.record(policy.decide_eos())
                with self._lock:
                    self._completed.add(name)
                    # Release the tenant slot *before* BYE: once the client
                    # reads BYE the connection is fully drained, so an
                    # immediate reconnect must be admitted, not BUSY.
                    self._active.discard(name)
                    done = (
                        self.expect is not None
                        and len(self._completed) >= self.expect
                    )
                channel.send(
                    protocol.BYE,
                    protocol.encode_control(
                        {
                            "steps_admitted": policy.steps_admitted,
                            "steps_shed": policy.steps_shed,
                            "bytes_admitted": policy.bytes_admitted,
                            "artifacts": os.path.join("tenants", name),
                        }
                    ),
                )
                if done:
                    self._done.set()
                return
            if kind != protocol.STEP:
                raise TruncatedFrameError(
                    f"unexpected frame kind {protocol.KIND_NAMES.get(kind, kind)}"
                )
            ledger.frames_in += 1
            # Validated before any verdict: a malformed step is never
            # journaled as admitted, charged, or held against the budget.
            step, sim_time, arrays = protocol.decode_step(payload)
            decision = policy.decide_step(len(payload))
            journals.admission.record(decision)
            verdict = decision.verdict
            if verdict in (
                protocol.VERDICT_REJECT_BYTES,
                protocol.VERDICT_REJECT_STEPS,
            ):
                ledger.charge_reject(trace=recorder)
                self._reject(
                    channel,
                    protocol.REJECT_QUOTA,
                    f"{verdict}: {decision.detail}",
                )
                raise TruncatedFrameError("quota exhausted, connection closed")
            if verdict == protocol.VERDICT_SHED:
                ledger.charge_shed(trace=recorder)
                channel.send(
                    protocol.ACK,
                    protocol.encode_control(
                        {"seq": seq, "verdict": verdict, "credits": 1}
                    ),
                )
                continue
            # Admitted: charge, apply backpressure, run or stage.
            nbytes = len(payload)
            ledger.charge_step(nbytes, trace=recorder)
            waited = self.budget.acquire(nbytes)
            if waited > 0.0:
                ledger.charge_backpressure(waited, trace=recorder)
            if worker is not None:
                stalled = worker.submit(step, sim_time, arrays, nbytes)
                if stalled > 0.0:
                    ledger.charge_backpressure(stalled, trace=recorder)
            else:
                try:
                    outcome, seconds = endpoint.process(step, sim_time, arrays)
                except Exception as exc:
                    raise _analysis_failure(name, step, exc)
                finally:
                    self.budget.release(nbytes)
                ledger.charge_analysis(seconds, trace=recorder)
                if outcome != "ok":
                    ledger.charge_degraded(trace=recorder)
            self._pace(name, spec, ledger, recorder)
            channel.send(
                protocol.ACK,
                protocol.encode_control(
                    {"seq": seq, "verdict": verdict, "credits": 1}
                ),
            )
