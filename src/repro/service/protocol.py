"""The service wire protocol: frame kinds and payload codecs.

One tenant connection is a strict state machine over the framed transport
(:mod:`repro.mpi.framing`)::

    client                          server
    ------                          ------
    HELLO {tenant, token, ...}  ->
                                <-  WELCOME {credits, quotas, slot}
                                    (or REJECT {code, reason} + close)
    STEP {step, time, arrays}   ->              } repeated, windowed by
                                <-  ACK {step, verdict, credits}  } credits
    ...                         <-  NACK {seq}      (wire-fault recovery)
    EOS {}                      ->
                                <-  BYE {summary}

Control payloads are canonical JSON (sorted keys, UTF-8) so the bytes a
given logical message produces are identical across runs -- the same
canonicalization discipline the decision journal uses.  STEP payloads carry
numpy arrays and ride pickle protocol 2+, the established transport idiom
of the process backend.
"""

from __future__ import annotations

import io
import json
import math
import pickle
from typing import Any

import numpy as np

# -- frame kinds ------------------------------------------------------------
HELLO = 1
WELCOME = 2
REJECT = 3
STEP = 4
ACK = 5
NACK = 6
EOS = 7
BYE = 8

KIND_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    REJECT: "REJECT",
    STEP: "STEP",
    ACK: "ACK",
    NACK: "NACK",
    EOS: "EOS",
    BYE: "BYE",
}

#: Per-step admission verdicts the server journals and ACKs back.
VERDICT_ADMIT = "admit"
VERDICT_SHED = "shed"
VERDICT_REJECT_BYTES = "reject_bytes"
VERDICT_REJECT_STEPS = "reject_steps"

#: REJECT codes (connection-level refusals).
REJECT_BAD_TOKEN = "bad_token"
REJECT_EXPIRED_TOKEN = "expired_token"
REJECT_UNKNOWN_TENANT = "unknown_tenant"
REJECT_CAPACITY = "capacity"
REJECT_BUSY = "tenant_busy"
REJECT_PROTOCOL = "protocol_error"
REJECT_QUOTA = "quota_exhausted"
REJECT_ANALYSIS = "analysis_error"


class ProtocolError(RuntimeError):
    """The peer violated the connection state machine."""


def encode_control(payload: dict[str, Any]) -> bytes:
    """Canonical JSON bytes for a control frame (HELLO/WELCOME/ACK/...)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def decode_control(payload: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable control payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("control payload must be a JSON object")
    return obj


def encode_step(
    step: int, time: float, arrays: dict[str, np.ndarray]
) -> bytes:
    """A STEP payload: metadata + named arrays, pickled.

    The byte count of the encoded payload is what quota accounting charges
    -- the actual bytes moved over the transport, matching the paper's
    "data movement cost" framing rather than a nominal array size.
    """
    blob = {
        "step": int(step),
        "time": float(time),
        "arrays": {
            name: np.ascontiguousarray(values)
            for name, values in arrays.items()
        },
    }
    return pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)


def decode_nack(payload: bytes) -> int:
    """The sequence number a NACK asks retransmission from."""
    seq = decode_control(payload).get("seq", 0)
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise ProtocolError(f"NACK seq must be a non-negative integer, got {seq!r}")
    return seq


#: The only globals a pickle written by :func:`encode_step` references
#: (protocols 2-5; ``numpy.core`` is the numpy < 2 spelling of
#: ``numpy._core``).
_STEP_GLOBALS = frozenset(
    {
        ("numpy._core.multiarray", "_reconstruct"),
        ("numpy.core.multiarray", "_reconstruct"),
        ("numpy._core.numeric", "_frombuffer"),
        ("numpy.core.numeric", "_frombuffer"),
        ("numpy", "ndarray"),
        ("numpy", "dtype"),
        ("_codecs", "encode"),
    }
)


class _StepUnpickler(pickle.Unpickler):
    """STEP bytes come from a tenant: resolve nothing a step does not need."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _STEP_GLOBALS:
            raise ProtocolError(f"STEP payload references {module}.{name}")
        return super().find_class(module, name)


def decode_step(payload: bytes) -> tuple[int, float, dict[str, np.ndarray]]:
    """Decode and validate a STEP payload; anything but finite
    ``step``/``time`` and a non-empty ``{name: real 1-3-D ndarray}`` is a
    :class:`ProtocolError`."""
    try:
        blob = _StepUnpickler(io.BytesIO(payload)).load()
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 -- any unpickle failure is protocol
        raise ProtocolError(f"undecodable STEP payload: {exc}") from exc
    if not isinstance(blob, dict):
        raise ProtocolError("STEP payload must be a dict")
    step, time, arrays = blob.get("step"), blob.get("time", 0.0), blob.get("arrays")
    for label, number in (("step", step), ("time", time)):
        if (
            isinstance(number, bool)
            or not isinstance(number, (int, float))
            or not math.isfinite(number)
        ):
            raise ProtocolError(f"STEP payload needs a finite {label}")
    if not isinstance(arrays, dict) or not arrays:
        raise ProtocolError("STEP payload needs a non-empty arrays dict")
    for name, values in arrays.items():
        if (
            not isinstance(name, str)
            or not isinstance(values, np.ndarray)
            or not 1 <= values.ndim <= 3
            or values.size == 0
            or values.dtype.kind not in "biuf"
        ):
            raise ProtocolError(
                f"STEP array {name!r} must be a non-empty real 1-3-D ndarray"
            )
    return int(step), float(time), arrays
