"""Checker registry: every rule the analyzer knows about.

Three path-sensitive families plus two syntactic contract rules:

- :mod:`repro.analyze.checkers.contracts` -- ``analysis-sim-import`` and
  ``bare-time-call``;
- :mod:`repro.analyze.checkers.collectives` -- path-sensitive collective
  sequence matching over the CFG;
- :mod:`repro.analyze.checkers.typestate` -- resource state machines
  (timers, memory labels, shared-memory segments);
- :mod:`repro.analyze.checkers.forksafety` -- thread-before-fork and
  mutate-after-pickled-send.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.checkers.collectives import COLLECTIVE_CHECKERS
from repro.analyze.checkers.contracts import ALL_RULES, CONTRACT_CHECKERS
from repro.analyze.checkers.forksafety import FORKSAFETY_CHECKERS
from repro.analyze.checkers.typestate import TYPESTATE_CHECKERS
from repro.analyze.model import Checker

__all__ = ["ALL_CHECKERS", "RULE_CATALOG", "RuleMeta", "checker_emits", "ALL_RULES"]


ALL_CHECKERS: tuple[Checker, ...] = (
    CONTRACT_CHECKERS + COLLECTIVE_CHECKERS + TYPESTATE_CHECKERS + FORKSAFETY_CHECKERS
)


def checker_emits(checker: Checker) -> tuple[str, ...]:
    """Rule ids a checker can produce (most produce exactly one)."""
    emits = getattr(checker, "emits", None)
    return tuple(emits) if emits else (checker.rule_id,)


@dataclass(frozen=True)
class RuleMeta:
    id: str
    description: str
    severity: str


def _catalog() -> tuple[RuleMeta, ...]:
    rules: list[RuleMeta] = []
    seen: set[str] = set()
    extra_descriptions = {
        "collective-in-rank-loop": (
            "no collective may sit in a loop whose trip count depends on the rank"
        ),
        "shm-worker-unlink": (
            "attached (create=False) segments must not be unlinked by workers"
        ),
    }
    for checker in ALL_CHECKERS:
        for rid in checker_emits(checker):
            if rid in seen:
                continue
            seen.add(rid)
            desc = checker.description if rid == checker.rule_id else extra_descriptions[rid]
            sev = checker.severity
            rules.append(RuleMeta(rid, desc, sev))
    return tuple(rules)


RULE_CATALOG: tuple[RuleMeta, ...] = _catalog()
