"""Worklist dataflow solving over :mod:`repro.analyze.cfg` graphs.

:class:`FactSolver` is a forward may-analysis over *individual hashable
facts* -- the classic worklist algorithm, except that the transfer function
is applied **per edge** rather than per block.  Edge-level transfer is what
makes the statement-granular CFG pay off: an ``exc`` edge leaving a
statement carries the fact *unchanged* (the statement raised, its effect
never happened), while the normal out-edge carries the transformed fact.
Every fact remembers the (predecessor block, predecessor fact, edge) that
first produced it, so any reported state has a concrete CFG path witness
(:meth:`FactSolver.witness`).  The typestate checkers are its users.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

from repro.analyze.cfg import CFG, Block, Edge

__all__ = ["FactSolver"]

Fact = Hashable


class FactSolver:
    """Forward worklist solver propagating hashable facts along edges.

    ``transfer(edge, fact)`` returns the facts that flow along ``edge``
    when ``fact`` holds at ``edge.src`` (empty iterable kills the path).
    The solver guarantees each (block, fact) pair is expanded once, so it
    terminates for any finite fact domain.
    """

    def __init__(
        self,
        cfg: CFG,
        transfer: Callable[[Edge, Fact], Iterable[Fact]],
        initial: Fact,
    ):
        self.cfg = cfg
        self.transfer = transfer
        self.initial = initial
        self.facts: dict[int, set[Fact]] = {}
        #: (block id, fact) -> (pred block, pred fact, edge) provenance.
        self.parent: dict[tuple[int, Fact], tuple[Block, Fact, Edge]] = {}

    def solve(self) -> "FactSolver":
        entry = self.cfg.entry
        self.facts = {entry.id: {self.initial}}
        work: deque[tuple[Block, Fact]] = deque([(entry, self.initial)])
        budget = 50 * len(self.cfg.blocks) + 1000  # safety valve
        while work and budget > 0:
            budget -= 1
            block, fact = work.popleft()
            for edge in block.succs:
                for nf in self.transfer(edge, fact):
                    seen = self.facts.setdefault(edge.dst.id, set())
                    if nf in seen:
                        continue
                    seen.add(nf)
                    self.parent[(edge.dst.id, nf)] = (block, fact, edge)
                    work.append((edge.dst, nf))
        return self

    def at(self, block: Block) -> set[Fact]:
        return self.facts.get(block.id, set())

    def witness(self, block: Block, fact: Fact, limit: int = 14) -> tuple[str, ...]:
        """Render the provenance chain of ``fact`` at ``block`` as path steps."""
        steps: list[str] = []
        key = (block.id, fact)
        guard = 10 * len(self.cfg.blocks) + 50
        while key in self.parent and guard > 0:
            guard -= 1
            pred, pfact, edge = self.parent[key]
            steps.append(edge.describe())
            key = (pred.id, pfact)
        if not steps or steps[-1] != "entry":
            steps.append("entry")
        steps.reverse()
        if len(steps) > limit:
            steps = ["..."] + steps[-(limit - 1):]
        return tuple(steps)
