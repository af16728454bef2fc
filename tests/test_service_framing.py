"""Unit tests for the service transport's building blocks.

Covers the framed reliable-delivery channel (:mod:`repro.mpi.framing`) --
roundtrips, CRC corruption + NACK/retransmit recovery, truncation,
desynchronization, duplicate suppression, sequence gaps -- plus the signed
auth tokens, tenant registry slot stability, the journaled per-step quota
policy, the wire codecs, and the deterministic synthetic workload.
"""

import math
import socket

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.faults.plan import (
    SITE_SERVICE_FRAME,
    FaultEvent,
    FaultPlan,
)
from repro.mpi.framing import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    FrameChannel,
    MalformedFrameError,
    TruncatedFrameError,
    decode_header,
    encode_frame,
)
from repro.service import protocol
from repro.service.policy import TenantPolicy
from repro.service.tenancy import (
    QuotaSpec,
    TenantRegistry,
    TenantSpec,
    issue_token,
    verify_token,
)
from repro.service.workload import synthetic_field, synthetic_steps


def _pair():
    a, b = socket.socketpair()
    return FrameChannel(a), FrameChannel(b)


# -- the framed channel -------------------------------------------------------


class TestFraming:
    def test_roundtrip_preserves_kind_seq_payload(self):
        tx, rx = _pair()
        tx.send(protocol.STEP, b"hello frames")
        tx.send(protocol.EOS, b"")
        assert rx.recv() == (protocol.STEP, 0, b"hello frames")
        assert rx.recv() == (protocol.EOS, 1, b"")

    def test_header_decode_rejects_bad_magic(self):
        frame = bytearray(encode_frame(1, 0, b"x"))
        frame[0:4] = b"NOPE"
        with pytest.raises(MalformedFrameError) as err:
            decode_header(bytes(frame[:HEADER_SIZE]))
        assert not err.value.recoverable

    def test_header_decode_rejects_bad_version(self):
        frame = bytearray(encode_frame(1, 0, b"x"))
        frame[4] = 99
        with pytest.raises(MalformedFrameError):
            decode_header(bytes(frame[:HEADER_SIZE]))

    def test_header_decode_rejects_oversized_length(self):
        import struct

        header = struct.pack(
            "!4sBBQII", b"RSF1", 1, 1, 0, MAX_PAYLOAD + 1, 0
        )
        with pytest.raises(MalformedFrameError, match="MAX_PAYLOAD"):
            decode_header(header)

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            encode_frame(1, 0, b"\0" * (MAX_PAYLOAD + 1))

    def test_truncated_stream_raises(self):
        tx, rx = _pair()
        frame = encode_frame(protocol.STEP, 0, b"partial payload")
        tx.sock.sendall(frame[: len(frame) - 4])
        tx.sock.close()
        with pytest.raises(TruncatedFrameError):
            rx.recv()

    def test_crc_corruption_is_recoverable_and_retransmittable(self):
        tx, rx = _pair()
        seq = tx.send(protocol.STEP, b"good bytes")
        # Corrupt the wire copy of a second send by flipping a payload byte.
        frame = bytearray(encode_frame(protocol.STEP, 1, b"bad bytes"))
        frame[HEADER_SIZE] ^= 0xFF
        tx._send_seq += 1
        tx._window[1] = encode_frame(protocol.STEP, 1, b"bad bytes")
        tx.sock.sendall(bytes(frame))
        assert rx.recv() == (protocol.STEP, seq, b"good bytes")
        with pytest.raises(MalformedFrameError) as err:
            rx.recv()
        assert err.value.recoverable
        assert rx.expected_seq == 1
        # NACK path: retransmit from the receiver's expected seq.
        assert tx.retransmit_from(rx.expected_seq) == 1
        assert rx.recv() == (protocol.STEP, 1, b"bad bytes")

    def test_duplicates_are_dropped_silently(self):
        tx, rx = _pair()
        tx.send(protocol.STEP, b"one")
        tx.sock.sendall(tx._window[0])  # duplicate on the wire
        tx.send(protocol.STEP, b"two")
        assert rx.recv() == (protocol.STEP, 0, b"one")
        assert rx.recv() == (protocol.STEP, 1, b"two")
        assert rx.duplicates_dropped == 1

    def test_sequence_gap_recovers_via_retransmit(self):
        tx, rx = _pair()
        tx.send(protocol.STEP, b"zero")
        # Frame 1 is "lost": build it into the window but never send it.
        tx._window[1] = encode_frame(protocol.STEP, 1, b"one")
        tx._send_seq = 2
        tx.send(protocol.STEP, b"two")  # arrives out of order -> gap
        assert rx.recv() == (protocol.STEP, 0, b"zero")
        with pytest.raises(MalformedFrameError) as err:
            rx.recv()
        assert err.value.recoverable
        tx.retransmit_from(rx.expected_seq)
        # Retransmission replays 1 then 2, in order.
        assert rx.recv() == (protocol.STEP, 1, b"one")
        assert rx.recv() == (protocol.STEP, 2, b"two")

    def test_pipelined_frames_past_failure_are_discarded(self):
        tx, rx = _pair()
        # seq 0 corrupted on the wire; seqs 1 and 2 pipelined behind it.
        good0 = encode_frame(protocol.STEP, 0, b"zero")
        bad0 = bytearray(good0)
        bad0[HEADER_SIZE] ^= 0xFF
        tx._window[0] = good0
        tx._send_seq = 1
        tx.sock.sendall(bytes(bad0))
        tx.send(protocol.STEP, b"one")
        tx.send(protocol.STEP, b"two")
        with pytest.raises(MalformedFrameError):
            rx.recv()
        tx.retransmit_from(rx.expected_seq)
        # The pipelined 1 and 2 are dropped while awaiting seq 0; the
        # retransmission then replays 0, 1, 2 in order.
        assert rx.recv() == (protocol.STEP, 0, b"zero")
        assert rx.recv() == (protocol.STEP, 1, b"one")
        assert rx.recv() == (protocol.STEP, 2, b"two")

    def test_release_through_trims_the_window(self):
        tx, _ = _pair()
        for i in range(4):
            tx.send(protocol.STEP, bytes([i]))
        assert len(tx._window) == 4
        tx.release_through(2)
        assert len(tx._window) == 1

    def test_injected_corruption_recovers_end_to_end(self):
        plan = FaultPlan(
            seed=5,
            events=(
                FaultEvent(SITE_SERVICE_FRAME, "corrupt", rank=0, occurrence=1),
            ),
        )
        a, b = socket.socketpair()
        tx = FrameChannel(a, injector=FaultInjector(plan), fault_rank=0)
        rx = FrameChannel(b)
        tx.send(protocol.STEP, b"clean")
        tx.send(protocol.STEP, b"mangled on the wire")
        assert rx.recv() == (protocol.STEP, 0, b"clean")
        with pytest.raises(MalformedFrameError) as err:
            rx.recv()
        assert err.value.recoverable
        tx.retransmit_from(rx.expected_seq)
        assert rx.recv() == (protocol.STEP, 1, b"mangled on the wire")


# -- tokens and tenancy -------------------------------------------------------


class TestTokens:
    def test_roundtrip_verifies(self):
        token = issue_token("s3cret", "alpha")
        assert verify_token("s3cret", "alpha", token, now=1e12) == (True, "ok")

    def test_wrong_tenant_rejected(self):
        token = issue_token("s3cret", "alpha")
        assert verify_token("s3cret", "beta", token, now=0) == (
            False,
            "bad_token",
        )

    def test_tampered_signature_rejected(self):
        token = issue_token("s3cret", "alpha")
        bad = token[:-4] + ("0000" if token[-4:] != "0000" else "ffff")
        assert verify_token("s3cret", "alpha", bad, now=0) == (
            False,
            "bad_token",
        )

    def test_wrong_secret_rejected(self):
        token = issue_token("s3cret", "alpha")
        assert verify_token("other", "alpha", token, now=0)[1] == "bad_token"

    def test_expiry_honored_with_injected_now(self):
        token = issue_token("s3cret", "alpha", expires=1000)
        assert verify_token("s3cret", "alpha", token, now=999.0)[0]
        assert verify_token("s3cret", "alpha", token, now=1000.0) == (
            False,
            "expired_token",
        )

    def test_inf_expiry_never_expires(self):
        token = issue_token("s3cret", "alpha", expires=math.inf)
        assert verify_token("s3cret", "alpha", token, now=1e15)[0]

    def test_malformed_tokens_rejected(self):
        for junk in ("", "v1", "v2.alpha.0.sig", "v1.alpha.notanint.sig"):
            assert verify_token("s", "alpha", junk, now=0)[1] == "bad_token"


class TestTenancy:
    def test_quota_validation(self):
        with pytest.raises(ValueError):
            QuotaSpec(credits=0)
        with pytest.raises(ValueError):
            QuotaSpec(soft_byte_fraction=1.5)
        with pytest.raises(ValueError):
            QuotaSpec(shed_probability=-0.1)

    def test_tenant_name_and_placement_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("a.b")
        with pytest.raises(ValueError):
            TenantSpec("ok", placement="orbital")

    def test_slots_are_sorted_name_order_not_registration_order(self):
        reg = TenantRegistry([TenantSpec("zeta"), TenantSpec("alpha")])
        reg.register(TenantSpec("mid"))
        assert reg.names() == ["alpha", "mid", "zeta"]
        assert [reg.slot(n) for n in ("alpha", "mid", "zeta")] == [0, 1, 2]

    def test_duplicate_registration_rejected(self):
        reg = TenantRegistry([TenantSpec("a")])
        with pytest.raises(ValueError):
            reg.register(TenantSpec("a"))


# -- the per-step quota policy ------------------------------------------------


def _policy(seed=0, slot=0, **quota):
    return TenantPolicy(TenantSpec("t", QuotaSpec(**quota)), slot, seed)


class TestTenantPolicy:
    def test_admit_accumulates_bytes(self):
        pol = _policy()
        d1 = pol.decide_step(100)
        d2 = pol.decide_step(50)
        assert (d1.verdict, d2.verdict) == ("admit", "admit")
        assert d2.cumulative_bytes == 150

    def test_per_step_byte_ceiling_rejects_without_charging(self):
        pol = _policy(max_step_bytes=10)
        d = pol.decide_step(11)
        assert d.verdict == protocol.VERDICT_REJECT_BYTES
        assert pol.bytes_admitted == 0

    def test_max_steps_rejects_after_quota(self):
        pol = _policy(max_steps=2)
        assert pol.decide_step(1).verdict == "admit"
        assert pol.decide_step(1).verdict == "admit"
        assert pol.decide_step(1).verdict == protocol.VERDICT_REJECT_STEPS

    def test_hard_byte_budget_rejects(self):
        pol = _policy(byte_budget=100, soft_byte_fraction=1.0)
        assert pol.decide_step(80).verdict == "admit"
        assert pol.decide_step(30).verdict == protocol.VERDICT_REJECT_BYTES

    def test_soft_zone_draws_and_sheds_deterministically(self):
        def verdicts(seed):
            pol = _policy(
                seed=seed, byte_budget=1000,
                soft_byte_fraction=0.2, shed_probability=0.5,
            )
            return [pol.decide_step(100).verdict for _ in range(9)]

        a, b = verdicts(7), verdicts(7)
        assert a == b, "same seed must replay the identical shed schedule"
        assert "shed" in a, "soft-zone pressure should shed at p=0.5 over 9 draws"
        assert verdicts(7) != verdicts(8) or True  # different seeds may differ

    def test_shed_draw_consumed_even_when_not_firing(self):
        pol = _policy(
            seed=3, byte_budget=10**6, soft_byte_fraction=0.0,
            shed_probability=0.0,
        )
        for _ in range(3):
            assert pol.decide_step(10).verdict == "admit"
        assert pol._shed_draws == 3

    def test_event_seq_is_contiguous_across_kinds(self):
        pol = _policy()
        seqs = [
            pol.decide_auth("ok").seq,
            pol.decide_connect("admit").seq,
            pol.decide_step(10).seq,
            pol.decide_eos().seq,
        ]
        assert seqs == [0, 1, 2, 3]


# -- wire codecs --------------------------------------------------------------


class TestProtocolCodecs:
    def test_control_roundtrip_is_canonical(self):
        payload = {"b": 1, "a": [1, 2]}
        raw = protocol.encode_control(payload)
        assert raw == b'{"a":[1,2],"b":1}'
        assert protocol.decode_control(raw) == payload

    def test_control_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_control(b"\xff\xfe not json")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_control(b"[1,2,3]")

    def test_step_roundtrip_preserves_arrays(self):
        arrays = {"data": np.arange(12.0).reshape(3, 4)}
        raw = protocol.encode_step(7, 0.07, arrays)
        step, t, out = protocol.decode_step(raw)
        assert (step, t) == (7, 0.07)
        np.testing.assert_array_equal(out["data"], arrays["data"])

    def test_step_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_step(b"not a pickle")
        import pickle

        with pytest.raises(protocol.ProtocolError):
            protocol.decode_step(pickle.dumps({"no": "arrays"}))


# -- the synthetic workload ---------------------------------------------------


class TestSyntheticWorkload:
    def test_field_is_deterministic(self):
        a = synthetic_field("alpha", 3, (16, 16), seed=1)
        b = synthetic_field("alpha", 3, (16, 16), seed=1)
        np.testing.assert_array_equal(a, b)

    def test_tenants_get_distinct_fields(self):
        a = synthetic_field("alpha", 3, (16, 16), seed=1)
        b = synthetic_field("beta", 3, (16, 16), seed=1)
        assert not np.array_equal(a, b)

    def test_steps_generator_shape_and_times(self):
        steps = list(synthetic_steps("alpha", 3, (8, 8), seed=0, dt=0.5))
        assert [s for s, _, _ in steps] == [0, 1, 2]
        assert [t for _, t, _ in steps] == [0.0, 0.5, 1.0]
        assert steps[0][2]["data"].shape == (8, 8, 1)
