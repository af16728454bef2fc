"""Tests for the resilience policies (repro.faults.policies)."""

import pytest

from repro.faults import CircuitBreaker, RetryPolicy, retry_call
from repro.trace.recorder import TraceRecorder


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_jitter_deterministic_and_bounded(self):
        p = RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.05, seed=3)
        for attempt in range(6):
            cap = min(0.05, 0.01 * 2**attempt)
            d = p.delay(attempt, key="bp:0")
            assert d == p.delay(attempt, key="bp:0")
            assert 0.0 <= d < cap

    def test_keys_decorrelate(self):
        p = RetryPolicy(seed=0)
        assert p.delay(1, key="rank0") != p.delay(1, key="rank1")


class TestRetryCall:
    def _flaky(self, failures, exc=OSError):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise exc(f"transient {calls['n']}")
            return "ok"

        return fn, calls

    def test_recovers_and_counts_retries(self):
        fn, calls = self._flaky(2)
        rec = TraceRecorder(rank=0)
        slept = []
        out = retry_call(
            fn,
            RetryPolicy(max_attempts=4),
            trace=rec,
            sleep=slept.append,
        )
        assert out == "ok"
        assert calls["n"] == 3
        assert rec.total("resilience::retry") == 2
        assert len(slept) == 2 and all(s >= 0 for s in slept)

    def test_final_failure_propagates_unwrapped(self):
        fn, calls = self._flaky(10)
        with pytest.raises(OSError, match="transient 3"):
            retry_call(fn, RetryPolicy(max_attempts=3), sleep=lambda s: None)
        assert calls["n"] == 3

    def test_non_retryable_passes_through_immediately(self):
        fn, calls = self._flaky(1, exc=ValueError)
        with pytest.raises(ValueError):
            retry_call(fn, RetryPolicy(max_attempts=5), sleep=lambda s: None)
        assert calls["n"] == 1


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_trips_after_threshold(self):
        b = CircuitBreaker(failure_threshold=2, probe_interval=3)
        assert b.allow()
        b.record_failure()
        assert b.state == b.CLOSED
        b.record_failure()
        assert b.state == b.OPEN
        assert b.times_opened == 1

    def test_open_refuses_then_probes(self):
        b = CircuitBreaker(failure_threshold=1, probe_interval=3)
        b.record_failure()
        # Refused for probe_interval - 1 calls, then a half-open probe.
        assert [b.allow() for _ in range(3)] == [False, False, True]
        assert b.state == b.HALF_OPEN

    def test_probe_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, probe_interval=1)
        b.record_failure()
        assert b.allow()
        b.record_success()
        assert b.state == b.CLOSED
        assert b.allow()

    def test_probe_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=2, probe_interval=1)
        b.record_failure()
        b.record_failure()
        assert b.allow()  # half-open probe
        b.record_failure()  # single failure re-opens from half-open
        assert b.state == b.OPEN
        assert b.times_opened == 2

    def test_transitions_pure_function_of_history(self):
        """Two breakers fed the same outcome sequence stay in lockstep --
        the property the collective staging fallback relies on."""
        import hashlib

        a = CircuitBreaker(failure_threshold=2, probe_interval=4)
        b = CircuitBreaker(failure_threshold=2, probe_interval=4)
        for i in range(40):
            ok = hashlib.blake2b(bytes([i]), digest_size=1).digest()[0] % 3 > 0
            assert a.allow() == b.allow()
            if ok:
                a.record_success(), b.record_success()
            else:
                a.record_failure(), b.record_failure()
        assert a.snapshot() == b.snapshot()

    def test_policy_face_is_the_record_calls(self):
        """``observe_outcome`` -- what the staging writer and the service
        endpoint call -- drives the same transitions as
        ``record_success``/``record_failure``."""
        a = CircuitBreaker(failure_threshold=2, probe_interval=3)
        b = CircuitBreaker(failure_threshold=2, probe_interval=3)
        for step, staged in enumerate([True, False, False, False, True, False]):
            assert a.allow() == b.allow()
            a.observe_outcome(step, staged)
            b.record_success() if staged else b.record_failure()
        assert a.snapshot() == b.snapshot()


class TestHalfOpenProbeLatch:
    """Regression: HALF_OPEN must admit exactly one probe at a time.

    Before the latch, every allow() while HALF_OPEN returned True, so
    concurrent callers could all pile onto a presumed-dead endpoint during
    a single unresolved probe window.
    """

    def test_second_allow_refused_while_probe_unresolved(self):
        b = CircuitBreaker(failure_threshold=1, probe_interval=1)
        b.record_failure()
        assert b.allow()  # the single admitted probe
        assert b.state == b.HALF_OPEN
        assert not b.allow()
        assert not b.allow()

    def test_probe_success_releases_latch(self):
        b = CircuitBreaker(failure_threshold=1, probe_interval=1)
        b.record_failure()
        assert b.allow()
        b.record_success()
        assert b.state == b.CLOSED
        assert b.allow()  # CLOSED admits freely again

    def test_probe_failure_reopens_and_rearms(self):
        b = CircuitBreaker(failure_threshold=1, probe_interval=2)
        b.record_failure()
        assert not b.allow()
        assert b.allow()  # probe admitted
        assert not b.allow()  # latched
        b.record_failure()  # probe failed -> OPEN again
        assert b.state == b.OPEN
        # Interval restarts, then exactly one new probe is admitted.
        assert [b.allow() for _ in range(3)] == [False, True, False]
