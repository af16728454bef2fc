"""Checker registry: every rule the analyzer knows about.

Six rules, each guarding a paper claim at a live site in ``src/``:

- :mod:`repro.analyze.checkers.contracts` -- ``analysis-sim-import`` and
  ``bare-time-call``;
- :mod:`repro.analyze.checkers.collectives` -- path-sensitive collective
  sequence matching over the CFG (``rank-divergent-collectives`` and
  ``collective-in-rank-loop``);
- :mod:`repro.analyze.checkers.typestate` -- resource state machines
  (``timer-typestate``, ``memory-typestate``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.checkers.collectives import COLLECTIVE_CHECKERS
from repro.analyze.checkers.contracts import CONTRACT_CHECKERS
from repro.analyze.checkers.typestate import TYPESTATE_CHECKERS
from repro.analyze.model import Checker

__all__ = ["ALL_CHECKERS", "RULE_CATALOG", "RuleMeta"]


ALL_CHECKERS: tuple[Checker, ...] = (
    CONTRACT_CHECKERS + COLLECTIVE_CHECKERS + TYPESTATE_CHECKERS
)

#: Descriptions of the rule ids a checker emits besides its own ``rule_id``.
_EXTRA_DESCRIPTIONS = {
    "collective-in-rank-loop": (
        "no collective may sit in a loop whose trip count depends on the rank"
    ),
}


@dataclass(frozen=True)
class RuleMeta:
    id: str
    description: str


RULE_CATALOG: tuple[RuleMeta, ...] = tuple(
    RuleMeta(
        rid,
        checker.description if rid == checker.rule_id else _EXTRA_DESCRIPTIONS[rid],
    )
    for checker in ALL_CHECKERS
    for rid in checker.emits
)
