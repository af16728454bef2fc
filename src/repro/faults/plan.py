"""Deterministic, seed-driven fault schedules.

Extreme-scale in situ runs fail at three boundaries the paper measures:
the staging transport (a FlexPath endpoint disappears mid-stream, Sec.
2.2.3 / Figs. 8-9), the parallel filesystem (failed or wildly variable
Lustre writes, Table 1 / Figs. 10-11), and the MPI fabric itself
(stragglers, lost messages, dead ranks).  A :class:`FaultPlan` is a
*reproducible* schedule of such events: given the same seed and spec, every
run injects exactly the same faults at exactly the same program points,
which is what lets the chaos harness assert byte-identical recovery.

Determinism does not come from a shared RNG -- rank threads would race on
it -- but from counter hashing: each injection *site* keeps a per-rank
occurrence counter, and the decision for occurrence ``n`` is a pure
function ``blake2b(seed, site, rank, n)``.  Thread scheduling can reorder
wall-clock interleavings but never the per-rank draw sequence, because each
rank's calls at a site happen in that rank's program order.

Two scheduling forms:

- :class:`FaultEvent` -- an explicit one-shot event ("endpoint 0
  disconnects before ingesting step 4", "rank 2 dies at step 5").  Events
  fire exactly once; a checkpoint-restore replay passes through them.
- :class:`FaultRule` -- a probabilistic rule ("2% of sends are dropped"),
  drawn per occurrence via the counter hash, optionally capped.

Injection sites (the strings components pass to
:meth:`~repro.faults.injector.FaultInjector.draw`):

========================  =====================================================
site                      faults injected there
========================  =====================================================
``mpi.send``              ``drop`` / ``delay`` / ``duplicate`` (message level)
``mpi.collective``        ``stall`` (straggler rank entering a collective)
``sim.step``              ``die`` / ``stall`` (rank death, compute straggler)
``storage.write``         ``write_fail`` / ``write_partial`` / ``write_slow``
``staging.endpoint``      ``disconnect`` / ``stale_step`` (reader side)
``staging.queue``         ``queue_full`` (bounded staging queue, writer side)
``service.frame``         ``corrupt`` / ``duplicate`` / ``drop`` / ``delay``
                          (socket-transport wire faults, per tenant channel)
``service.client``        ``disconnect`` (client hangs up mid-step)
``service.step``          ``analysis_fail`` / ``stall`` (tenant endpoint
                          analysis failures behind the service bridge)
========================  =====================================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Message-level faults on the simulated fabric.
SITE_MPI_SEND = "mpi.send"
#: Straggler injection at collective entry.
SITE_MPI_COLLECTIVE = "mpi.collective"
#: Rank-level faults in the simulation step loop.
SITE_SIM_STEP = "sim.step"
#: Filesystem faults in the storage writers.
SITE_STORAGE_WRITE = "storage.write"
#: Reader-side staging faults (the in-transit endpoint).
SITE_STAGING_ENDPOINT = "staging.endpoint"
#: Writer-side bounded-queue faults on the staging transport.
SITE_STAGING_QUEUE = "staging.queue"
#: Wire-level faults on the service socket transport (per tenant channel).
SITE_SERVICE_FRAME = "service.frame"
#: Client-side faults on the service transport (disconnect mid-step).
SITE_SERVICE_CLIENT = "service.client"
#: Tenant-endpoint analysis faults behind the service bridge.
SITE_SERVICE_STEP = "service.step"

KNOWN_SITES = frozenset(
    {
        SITE_MPI_SEND,
        SITE_MPI_COLLECTIVE,
        SITE_SIM_STEP,
        SITE_STORAGE_WRITE,
        SITE_STAGING_ENDPOINT,
        SITE_STAGING_QUEUE,
        SITE_SERVICE_FRAME,
        SITE_SERVICE_CLIENT,
        SITE_SERVICE_STEP,
    }
)


def unit_draw(seed: int, site: str, rank: int, occurrence: int, salt: str = "") -> float:
    """Uniform [0, 1) draw, a pure function of its arguments.

    The same (seed, site, rank, occurrence) always yields the same value,
    on any platform: blake2b is specified byte-exactly, unlike Python's
    ``hash``.  ``salt`` separates independent decision streams that share a
    site (e.g. "does a rule fire" vs "which jitter delay").
    """
    key = f"{seed}:{site}:{rank}:{occurrence}:{salt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultAction:
    """What the injector tells a call site to do: a fault ``kind`` plus its
    parameters (delay seconds, partial-write fraction, ...)."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FaultEvent:
    """An explicit, one-shot scheduled fault.

    ``rank`` is the site-local rank (sender rank for ``mpi.send``, endpoint
    index for ``staging.endpoint``).  Either ``step`` or ``occurrence`` (or
    both) select *when* it fires: ``step`` matches the simulation/stream
    step the call site reports, ``occurrence`` the per-(site, rank) call
    count.  An event with neither fires on the rank's first draw at the
    site.  Events fire exactly once -- replayed work (checkpoint restart)
    passes through them, which is what makes rank-death recoverable.
    """

    site: str
    kind: str
    rank: int
    step: int | None = None
    occurrence: int | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def matches(self, site: str, rank: int, occurrence: int, step: int | None) -> bool:
        if site != self.site or rank != self.rank:
            return False
        if self.step is not None and step != self.step:
            return False
        if self.occurrence is not None and occurrence != self.occurrence:
            return False
        return True


@dataclass(frozen=True)
class FaultRule:
    """A probabilistic fault: fires on a fraction of a site's occurrences.

    ``ranks=None`` applies to every rank; ``max_firings`` caps how many
    times the rule fires per rank (None = unlimited).  The decision for a
    given occurrence is the counter hash -- independent of wall clock and
    thread schedule.
    """

    site: str
    kind: str
    probability: float
    ranks: frozenset[int] | None = None
    max_firings: int | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def applies_to(self, site: str, rank: int) -> bool:
        return site == self.site and (self.ranks is None or rank in self.ranks)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault events and rules.

    Immutable; all mutable draw state (occurrence counters, fired events,
    the injection log) lives in the :class:`~repro.faults.injector
    .FaultInjector` so one plan can drive many independent runs.
    """

    seed: int
    events: tuple[FaultEvent, ...] = ()
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        for spec in (*self.events, *self.rules):
            if spec.site not in KNOWN_SITES:
                raise ValueError(
                    f"unknown fault site {spec.site!r}; known: "
                    + ", ".join(sorted(KNOWN_SITES))
                )

    @property
    def empty(self) -> bool:
        return not self.events and not self.rules

    def match(
        self,
        site: str,
        rank: int,
        occurrence: int,
        step: int | None,
        fired_events: frozenset[int],
        rule_firings: Mapping[tuple[int, int], int],
    ) -> tuple[FaultAction, int | None, int | None] | None:
        """The pure scheduling decision for one occurrence.

        Returns ``(action, event_index, rule_index)`` for the first match
        (events take precedence over rules, in declaration order), or None.
        ``fired_events`` / ``rule_firings`` (keyed ``(rule_index, rank)``)
        carry the injector's one-shot and cap bookkeeping so this function
        stays side-effect free.  The firing cap is per rank by design, not
        merely by documentation: a cap shared across ranks would be eaten
        in thread-scheduling order and wreck schedule determinism.
        """
        for idx, ev in enumerate(self.events):
            if idx in fired_events:
                continue
            if ev.matches(site, rank, occurrence, step):
                return FaultAction(ev.kind, ev.params), idx, None
        for idx, rule in enumerate(self.rules):
            if not rule.applies_to(site, rank):
                continue
            cap = rule.max_firings
            if cap is not None and rule_firings.get((idx, rank), 0) >= cap:
                continue
            if unit_draw(self.seed, site, rank, occurrence, salt=f"rule{idx}") < rule.probability:
                return FaultAction(rule.kind, rule.params), None, idx
        return None


def chaos_plan(
    seed: int,
    n_writers: int,
    steps: int,
) -> FaultPlan:
    """The default end-to-end chaos schedule for ``repro chaos``.

    Seeded but structurally guaranteed: one endpoint disconnect and one
    writer-rank death always occur (at seed-chosen steps in the middle
    third of the run), layered over background message-level noise (delay /
    duplicate / drop on the fabric) and storage write failures -- the full
    set of failure modes the resilience policies must absorb.
    """
    if n_writers <= 0 or steps <= 2:
        raise ValueError("chaos_plan needs >= 1 writer and >= 3 steps")
    lo, hi = steps // 3, max(steps // 3 + 1, 2 * steps // 3)
    victim = int(unit_draw(seed, SITE_SIM_STEP, 0, 0, salt="victim") * n_writers)
    death_step = lo + int(unit_draw(seed, SITE_SIM_STEP, 0, 0, salt="death") * (hi - lo))
    disco_step = lo + int(
        unit_draw(seed, SITE_STAGING_ENDPOINT, 0, 0, salt="disco") * (hi - lo)
    )
    events = (
        FaultEvent(SITE_SIM_STEP, "die", rank=victim, step=max(death_step, 2)),
        FaultEvent(SITE_STAGING_ENDPOINT, "disconnect", rank=0, step=disco_step),
    )
    rules = (
        FaultRule(SITE_MPI_SEND, "delay", 0.06, params={"seconds": 0.002}),
        FaultRule(SITE_MPI_SEND, "duplicate", 0.04),
        FaultRule(SITE_MPI_SEND, "drop", 0.02, params={"retransmit_after": 0.005}),
        FaultRule(SITE_STORAGE_WRITE, "write_fail", 0.15, max_firings=3),
        FaultRule(SITE_STORAGE_WRITE, "write_partial", 0.10, max_firings=2,
                  params={"fraction": 0.5}),
        FaultRule(SITE_SIM_STEP, "stall", 0.05, params={"seconds": 0.002}),
    )
    return FaultPlan(seed=seed, events=events, rules=rules)
