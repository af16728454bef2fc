"""The simulation-side service client.

A :class:`ServiceClient` is what a simulation's bridge talks to instead of
an in-process analysis stack: connect, authenticate, stream steps, close.
The client is synchronous and single-threaded -- ``submit`` blocks only
when the credit window is exhausted (server backpressure) and otherwise
pipelines, which is exactly the windowed non-blocking posture the paper's
staging writers take against a bounded queue.

Wire reliability is the channel's job (:mod:`repro.mpi.framing`): the
client answers server NACKs by retransmitting from its unacknowledged
window and releases window copies as ACKs arrive.  Client-side fault
injection draws at ``service.client`` before each send -- an injected
``disconnect`` abandons the socket mid-step, which is how the tests
exercise the server's cleanup path deterministically.
"""

from __future__ import annotations

import socket
import time as _time

import numpy as np

from repro.faults.plan import SITE_SERVICE_CLIENT
from repro.mpi.framing import FrameChannel, FrameError, MalformedFrameError
from repro.service import protocol


class ServiceError(RuntimeError):
    """Base class for client-visible service failures."""


class ServiceRejected(ServiceError):
    """The server refused the connection or terminated it with REJECT."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason


class ServiceDisconnected(ServiceError):
    """The connection dropped (injected or real) before completion."""


class ServiceClient:
    """One tenant connection to a :class:`~repro.service.server.ServiceServer`."""

    def __init__(
        self,
        socket_path: str,
        tenant: str,
        token: str,
        injector=None,
        timeout: float = 60.0,
        trace=None,
    ) -> None:
        self.socket_path = socket_path
        self.tenant = tenant
        self.token = token
        self.injector = injector
        self.timeout = timeout
        self.trace = trace
        self.channel: FrameChannel | None = None
        self.credits = 0
        self.slot = 0
        self.placement = ""
        self.quota: dict = {}
        #: verdict per ACKed step, in ACK order: [(step_seq, verdict), ...]
        self.verdicts: list[tuple[int, str]] = []
        self.summary: dict | None = None
        self._sent_steps: dict[int, int] = {}  # frame seq -> step
        self._disconnected = False

    # -- connection ----------------------------------------------------------
    def connect(self) -> dict:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        # The wire-fault injector engages only after WELCOME assigns the
        # tenant slot: handshake frames drawing at a default rank would
        # shift another tenant's occurrence counters with connection order.
        self.channel = FrameChannel(sock, trace=self.trace)
        self.channel.send(
            protocol.HELLO,
            protocol.encode_control(
                {"tenant": self.tenant, "token": self.token}
            ),
        )
        kind, _, payload = self._recv()
        if kind == protocol.REJECT:
            rej = protocol.decode_control(payload)
            self.close()
            raise ServiceRejected(
                rej.get("code", "unknown"), rej.get("reason", "")
            )
        if kind != protocol.WELCOME:
            self.close()
            raise ServiceError(f"expected WELCOME, got frame kind {kind}")
        welcome = protocol.decode_control(payload)
        self.credits = int(welcome.get("credits", 1))
        self.slot = int(welcome.get("slot", 0))
        self.placement = str(welcome.get("placement", ""))
        self.quota = dict(welcome.get("quota", {}))
        # Fault draws key on the server-assigned slot so a seeded plan can
        # target one tenant's channel deterministically.
        self.channel.fault_rank = self.slot
        self.channel.injector = self.injector
        return welcome

    def _send(self, kind: int, payload: bytes, step: int | None = None) -> int:
        """Send one frame; on a dead socket, surface the server's terminal
        verdict instead of a bare broken pipe.

        A terminal REJECT (quota exhaustion) races the client's pipelined
        sends: the server closes right after rejecting, so the next send
        may hit EPIPE with the REJECT still buffered.  Drain what the
        server managed to say -- a REJECT raises :class:`ServiceRejected`
        from ``_handle_control`` -- before reporting a disconnect.
        """
        assert self.channel is not None
        try:
            return self.channel.send(kind, payload, step=step)
        except OSError as exc:
            self._disconnected = True
            try:
                while True:
                    k, _, p = self.channel.recv()
                    self._handle_control(k, p)
            except (FrameError, OSError, EOFError):
                pass
            raise ServiceDisconnected(str(exc)) from exc

    def _recv(self) -> tuple[int, int, bytes]:
        assert self.channel is not None
        try:
            return self.channel.recv()
        except MalformedFrameError as exc:
            raise ServiceError(f"server stream broke: {exc}") from exc
        except (OSError, EOFError) as exc:
            self._disconnected = True
            raise ServiceDisconnected(str(exc)) from exc

    def _handle_control(self, kind: int, payload: bytes) -> bool:
        """Process one server frame; True if it was an ACK (credit back)."""
        assert self.channel is not None
        if kind == protocol.ACK:
            ack = protocol.decode_control(payload)
            seq = int(ack.get("seq", -1))
            step = self._sent_steps.pop(seq, None)
            self.channel.release_through(seq)
            self.credits += int(ack.get("credits", 1))
            if step is not None:
                self.verdicts.append((step, str(ack.get("verdict", ""))))
            return True
        if kind == protocol.NACK:
            self.channel.retransmit_from(protocol.decode_nack(payload))
            return False
        if kind == protocol.REJECT:
            rej = protocol.decode_control(payload)
            self.close()
            raise ServiceRejected(
                rej.get("code", "unknown"), rej.get("reason", "")
            )
        raise ServiceError(f"unexpected frame kind {kind}")

    # -- streaming -----------------------------------------------------------
    def submit(
        self, step: int, sim_time: float, arrays: dict[str, np.ndarray]
    ) -> None:
        """Stream one step; blocks while the credit window is exhausted."""
        if self.channel is None:
            raise ServiceError("submit() before connect()")
        while self.credits <= 0:
            kind, _, payload = self._recv()
            self._handle_control(kind, payload)
        if self.injector is not None:
            action = self.injector.draw(
                SITE_SERVICE_CLIENT, self.slot, step=step, trace=self.trace
            )
            if action is not None and action.kind == "disconnect":
                # Abandon the socket mid-conversation: the server must
                # clean the tenant up from a TruncatedFrameError.
                self._disconnected = True
                self.channel.close()
                raise ServiceDisconnected(
                    f"injected client disconnect at step {step}"
                )
        payload = protocol.encode_step(step, sim_time, arrays)
        seq = self._send(protocol.STEP, payload, step=step)
        self._sent_steps[seq] = step
        self.credits -= 1

    def finish(self) -> dict:
        """Send EOS, drain outstanding ACKs, return the server's summary."""
        if self.channel is None:
            raise ServiceError("finish() before connect()")
        self._send(protocol.EOS, protocol.encode_control({}))
        while True:
            kind, _, payload = self._recv()
            if kind == protocol.BYE:
                self.summary = protocol.decode_control(payload)
                self.close()
                return self.summary
            self._handle_control(kind, payload)

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None

    # -- convenience ---------------------------------------------------------
    def stream(self, steps) -> dict:
        """Connect if needed, stream ``(step, time, arrays)`` tuples, finish."""
        if self.channel is None:
            self.connect()
        for step, sim_time, arrays in steps:
            self.submit(step, sim_time, arrays)
        return self.finish()


def run_client_workload(
    socket_path: str,
    tenant: str,
    token: str,
    steps: int,
    shape: tuple[int, int] = (64, 64),
    seed: int = 0,
    injector=None,
    timeout: float = 60.0,
    workload: str = "synthetic",
) -> dict:
    """One tenant's full deterministic workload against a running server;
    the helper the CLI, the benchmark, and the smoke tests share.

    ``workload`` selects the generator: ``"synthetic"`` (drifting blobs)
    or ``"nbody"`` (the particle miniapp's density projections, grid size
    taken from ``shape[0]``).
    """
    from repro.service.workload import nbody_steps, synthetic_steps

    if workload == "synthetic":
        stream = synthetic_steps(tenant, steps, shape, seed)
    elif workload == "nbody":
        stream = nbody_steps(tenant, steps, grid=shape[0], seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    client = ServiceClient(
        socket_path, tenant, token, injector=injector, timeout=timeout
    )
    t0 = _time.perf_counter()
    summary = client.stream(stream)
    summary = dict(summary)
    summary["wall_seconds"] = _time.perf_counter() - t0
    summary["verdicts"] = list(client.verdicts)
    return summary
