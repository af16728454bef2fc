"""Resilience policies: retry with backoff + jitter, circuit breaking.

These are the recovery half of the faults subsystem.  Policies are
deliberately deterministic where it matters for reproducibility: a
:class:`RetryPolicy`'s jitter is a pure hash of (seed, key, attempt), and a
:class:`CircuitBreaker`'s transitions are a pure function of the
success/failure sequence fed to it -- so two runs that observe the same
fault schedule take byte-identical recovery decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.faults.plan import unit_draw

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace import TraceRecorder


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter (the AWS-style scheme).

    Attempt ``k`` (0-based) may sleep up to ``min(max_delay, base_delay *
    2**k)`` seconds; the actual sleep is a uniform draw over [0, cap) --
    full jitter, which decorrelates retry storms across ranks hammering the
    same metadata server.  The draw is seeded + keyed, so a given (key,
    attempt) always jitters identically.
    """

    max_attempts: int = 4
    base_delay: float = 0.005
    max_delay: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry ``attempt`` (0 = first retry)."""
        cap = min(self.max_delay, self.base_delay * (2.0**attempt))
        return cap * unit_draw(self.seed, "retry", 0, attempt, salt=key)


def retry_call(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    key: str = "",
    trace: "TraceRecorder | None" = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``fn``, retrying ``OSError`` failures under ``policy``.

    Counts each retry as ``resilience::retry`` on ``trace``.  The final
    attempt's exception propagates unwrapped so callers see the real error
    (with ``__context__`` chaining the earlier tries).
    """
    attempt = 0
    while True:
        try:
            return fn()
        except OSError:
            if attempt >= policy.max_attempts - 1:
                raise
            if trace is not None:
                trace.count("resilience::retry", 1)
            backoff = policy.delay(attempt, key=key)
            if backoff > 0:
                sleep(backoff)
            attempt += 1


class CircuitBreaker:
    """Classic three-state breaker over a failing dependency.

    - **closed**: operations attempt normally; ``failure_threshold``
      consecutive failures trip the breaker open.
    - **open**: operations are refused (``allow()`` is False) for
      ``probe_interval`` refusals, avoiding a timeout penalty per step.
    - **half-open**: exactly one probe attempt is admitted; success closes
      the breaker, failure re-opens it.  Further ``allow()`` calls while
      that probe is unresolved are refused, so peers polling at different
      rates still admit the same single probe per episode.

    Transitions are a pure function of the ``allow``/``record_*`` call
    sequence, so peers fed the same consensus outcome stay in lockstep --
    the property the staging transport's collective fallback requires.
    It is the one attempt/skip policy, for FlexPath staging
    (:class:`~repro.infrastructure.adios.StagingResilience`) and for each
    service tenant's endpoint alike.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 2, probe_interval: int = 4) -> None:
        if failure_threshold < 1 or probe_interval < 1:
            raise ValueError("threshold and probe interval must be >= 1")
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.times_opened = 0
        self._refusals = 0
        #: True while a half-open probe has been admitted but not yet
        #: resolved by a ``record_*`` call -- the single-probe latch.
        self._probe_inflight = False

    def allow(self) -> bool:
        """Whether the next operation should be attempted."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.HALF_OPEN:
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True
        self._refusals += 1
        if self._refusals >= self.probe_interval:
            self.state = self.HALF_OPEN
            self._refusals = 0
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED
        self._probe_inflight = False

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self._probe_inflight = False
        if self.state == self.HALF_OPEN or (
            self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != self.OPEN:
                self.times_opened += 1
            self.state = self.OPEN
            self._refusals = 0

    def observe_outcome(self, step: int, staged: bool) -> None:
        """Feed one step's outcome (``step`` is unused: the breaker counts
        outcomes, it does not date them)."""
        if staged:
            self.record_success()
        else:
            self.record_failure()

    def snapshot(self) -> dict:
        """Deterministic state summary for recovery reports."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "times_opened": self.times_opened,
        }
