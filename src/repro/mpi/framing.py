"""Reliable framed delivery over a byte stream: the socket transport.

The thread backend exchanges objects through in-process mailboxes and the
process backend through pickled envelopes over pipes; the service layer
(:mod:`repro.service`) adds a third transport -- independent *client
processes* talking to a long-running server over local stream sockets.  A
byte stream has no message boundaries and no integrity guarantee, so this
module supplies both, following the reliable-delivery rule of the mailbox
both SPMD backends share, :class:`~repro.mpi.communicator._Mailbox` (the
rule, not the mechanism: the mailbox matches in-memory objects and parks
pending envelopes, this channel checks CRCs and windows a byte stream):

- every frame carries a fixed header ``(magic, version, kind, seq, length,
  crc32)`` followed by the payload;
- sequence numbers increase by one per frame per direction.  The receiver
  *suppresses duplicates* (a retransmitted or fault-duplicated frame with
  ``seq <= last delivered`` is dropped) and *rejects overtaking* (a gap in
  the sequence means frames were lost inside a reliable stream -- a
  protocol error, not a recoverable hiccup);
- a CRC mismatch with an intact header leaves the stream positioned at the
  next frame, so the receiver can answer with a NACK and the sender can
  retransmit from its unacknowledged window -- delivery stays reliable even
  when the (fault-injected) wire corrupts payload bytes.

Fault injection hooks at ``service.frame`` (see :mod:`repro.faults.plan`):
``corrupt`` flips a payload byte after the CRC is computed, ``duplicate``
sends the frame twice, ``drop`` skips the send entirely (forcing the NACK /
retransmit path), and ``delay`` sleeps before sending.  All draws are
counter-hashed per channel, so a seeded plan injects the identical fault
schedule on every run.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib

MAGIC = b"RSF1"
VERSION = 1

#: Header layout: magic, version, kind, seq, payload length, payload crc32.
_HEADER = struct.Struct("!4sBBQII")
HEADER_SIZE = _HEADER.size

#: Refuse absurd frames before allocating for them (64 MiB payload cap).
MAX_PAYLOAD = 64 * 1024 * 1024


class FrameError(RuntimeError):
    """Base class for framing-layer failures."""


class MalformedFrameError(FrameError):
    """Bad magic, bad version, an oversized length, or a CRC mismatch."""

    def __init__(self, message: str, recoverable: bool = False) -> None:
        super().__init__(message)
        #: True when the header was intact, the payload was consumed, and
        #: the stream is still positioned at the next frame boundary -- the
        #: receiver may NACK and keep reading.  False means the stream
        #: itself is desynchronized and must be closed.
        self.recoverable = recoverable


class TruncatedFrameError(FrameError):
    """The peer closed the stream mid-frame."""


def encode_frame(kind: int, seq: int, payload: bytes) -> bytes:
    """One wire frame: header + payload, CRC over the payload bytes."""
    if not 0 <= kind <= 255:
        raise ValueError(f"frame kind {kind} out of range")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD")
    header = _HEADER.pack(
        MAGIC, VERSION, kind, seq, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_header(header: bytes) -> tuple[int, int, int, int]:
    """Parse a header; returns ``(kind, seq, length, crc)``."""
    if len(header) != HEADER_SIZE:
        raise TruncatedFrameError(
            f"stream closed mid-header ({len(header)}/{HEADER_SIZE} bytes)"
        )
    magic, version, kind, seq, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise MalformedFrameError(
            f"bad frame magic {magic!r}; stream is desynchronized"
        )
    if version != VERSION:
        raise MalformedFrameError(f"unsupported frame version {version}")
    if length > MAX_PAYLOAD:
        raise MalformedFrameError(
            f"frame length {length} exceeds MAX_PAYLOAD; refusing to allocate"
        )
    return kind, seq, length, crc


class FrameChannel:
    """One direction-pair of reliable framed delivery over a stream socket.

    Sends keep an unacknowledged-window copy of every frame until the
    application acknowledges it (:meth:`release_through`), so a NACK from
    the peer can be answered by retransmission (:meth:`retransmit_from`).
    Receives enforce the mailbox contract: duplicates are suppressed,
    overtaking is rejected.

    The channel is not thread-safe; the service layer uses one channel per
    connection handler thread, matching the one-recorder-per-rank
    discipline elsewhere in the repo.
    """

    def __init__(
        self,
        sock: socket.socket,
        injector=None,
        fault_rank: int = 0,
        trace=None,
    ) -> None:
        self.sock = sock
        #: Optional :class:`repro.faults.FaultInjector`; one pointer compare
        #: per send when disabled, like every other hook in the repo.
        self.injector = injector
        #: Site-local rank for fault draws (the tenant slot, so a seeded
        #: plan targets a specific client deterministically).
        self.fault_rank = fault_rank
        self.trace = trace
        self._send_seq = 0
        self._recv_seq = -1
        self._window: dict[int, bytes] = {}
        self._recv_buffer = b""
        #: Set after a recoverable receive error (the caller NACKed): the
        #: sender may still be streaming frames past the failed one, so
        #: out-of-order frames are *dropped* rather than treated as fatal
        #: gaps until the retransmission of the expected seq arrives.
        self._awaiting_retransmit = False
        self.sent_frames = 0
        self.received_frames = 0
        self.retransmits = 0
        self.duplicates_dropped = 0

    # -- sending -------------------------------------------------------------
    def send(self, kind: int, payload: bytes, step: int | None = None) -> int:
        """Frame and send ``payload``; returns the frame's sequence number."""
        seq = self._send_seq
        self._send_seq += 1
        frame = encode_frame(kind, seq, payload)
        self._window[seq] = frame
        wire = frame
        if self.injector is not None:
            wire = self._apply_send_faults(frame, step)
            if wire is None:
                return seq  # injected drop: the peer's NACK will recover it
        self.sock.sendall(wire)
        self.sent_frames += 1
        if self.trace is not None:
            self.trace.count("service::frames::sent", 1)
            self.trace.count("service::bytes::sent", len(frame))
        return seq

    def _apply_send_faults(self, frame: bytes, step: int | None) -> bytes | None:
        from repro.faults.plan import SITE_SERVICE_FRAME

        action = self.injector.draw(
            SITE_SERVICE_FRAME, self.fault_rank, step=step, trace=self.trace
        )
        if action is None:
            return frame
        if action.kind == "corrupt":
            # Flip one payload byte *after* the CRC was computed: the header
            # stays intact, so the receiver consumes the payload, detects
            # the mismatch, and NACKs -- the recoverable corruption path.
            if len(frame) > HEADER_SIZE:
                offset = HEADER_SIZE + int(
                    action.params.get("offset", 0)
                ) % (len(frame) - HEADER_SIZE)
                frame = (
                    frame[:offset]
                    + bytes([frame[offset] ^ 0xFF])
                    + frame[offset + 1 :]
                )
            return frame
        if action.kind == "duplicate":
            self.sock.sendall(frame)
            return frame
        if action.kind == "drop":
            return None
        if action.kind == "delay":
            time.sleep(float(action.params.get("seconds", 0.001)))
            return frame
        return frame

    def retransmit_from(self, seq: int) -> int:
        """Resend every unacknowledged frame at or after ``seq`` (the NACK
        recovery path); returns how many frames went out."""
        resent = 0
        for s in sorted(self._window):
            if s >= seq:
                self.sock.sendall(self._window[s])
                resent += 1
        self.retransmits += resent
        if self.trace is not None and resent:
            self.trace.count("service::frames::retransmitted", resent)
        return resent

    def release_through(self, seq: int) -> None:
        """Drop window copies for every frame at or below ``seq`` (the
        application-level acknowledgement)."""
        for s in [s for s in self._window if s <= seq]:
            del self._window[s]

    # -- receiving -----------------------------------------------------------
    def _read_exact(self, n: int) -> bytes:
        while len(self._recv_buffer) < n:
            chunk = self.sock.recv(min(65536, max(4096, n - len(self._recv_buffer))))
            if not chunk:
                raise TruncatedFrameError(
                    f"stream closed mid-frame "
                    f"({len(self._recv_buffer)}/{n} bytes buffered)"
                )
            self._recv_buffer += chunk
        out, self._recv_buffer = self._recv_buffer[:n], self._recv_buffer[n:]
        return out

    def recv(self) -> tuple[int, int, bytes]:
        """The next in-order frame as ``(kind, seq, payload)``.

        Duplicates are dropped silently.  A payload CRC mismatch or a
        sequence gap raises a *recoverable* :class:`MalformedFrameError`
        with the stream still at a frame boundary, so the caller can NACK
        from :attr:`expected_seq`; frames the sender had already pipelined
        past the failure are then discarded until the retransmission
        arrives.  A desynchronized header (bad magic/version/length) is
        fatal.
        """
        while True:
            kind, seq, length, crc = decode_header(self._read_exact(HEADER_SIZE))
            payload = self._read_exact(length)
            if seq <= self._recv_seq:
                self.duplicates_dropped += 1
                if self.trace is not None:
                    self.trace.count("service::frames::duplicates", 1)
                continue
            expected = self._recv_seq + 1
            if zlib.crc32(payload) != crc:
                self._awaiting_retransmit = True
                raise MalformedFrameError(
                    f"payload CRC mismatch on frame seq={seq}",
                    recoverable=True,
                )
            if seq != expected:
                if self._awaiting_retransmit:
                    # Pipelined past the failure; the NACKed retransmission
                    # will replay this frame in order.
                    continue
                self._awaiting_retransmit = True
                raise MalformedFrameError(
                    f"sequence gap: expected {expected}, got {seq}; "
                    "frame lost on the stream",
                    recoverable=True,
                )
            self._recv_seq = seq
            self._awaiting_retransmit = False
            self.received_frames += 1
            if self.trace is not None:
                self.trace.count("service::frames::received", 1)
                self.trace.count(
                    "service::bytes::received", HEADER_SIZE + length
                )
            return kind, seq, payload

    @property
    def expected_seq(self) -> int:
        """The sequence number the next in-order frame must carry."""
        return self._recv_seq + 1

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
