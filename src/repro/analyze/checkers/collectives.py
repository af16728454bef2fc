"""Path-sensitive collective-matching checkers.

MPI collectives must be entered by **every** rank of the communicator, in
the same order.  These checkers enumerate the function's CFG paths and
compare the *sequence of collectives* each path executes.  If two paths
disagree and the first decision separating them is
rank-dependent, then different ranks of the same communicator can take
different paths and the collective schedules no longer line up -- the
canonical in situ deadlock (coupled simulation + analysis share the
communicator, Sec. 4.1 of the paper).

Two rule ids come out of the same analysis:

``rank-divergent-collectives``
    A rank-dependent branch (or early ``return``/``break`` under a
    rank-dependent condition) makes two paths execute different collective
    sequences.
``collective-in-rank-loop``
    The diverging decision is a loop bound: a loop whose trip count
    depends on the rank contains a collective, so ranks with fewer
    iterations stop participating while the others block.

Both findings carry the two witness paths and their collective sequences.
Calls to module-local helpers are resolved through the call graph, so a
rank-guarded ``self._flush()`` that transitively hits ``comm.barrier()``
is caught too.  Truncated path enumerations report nothing: a partial
view cannot prove divergence.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.callgraph import is_collective_call
from repro.analyze.cfg import Block, Edge, Path, enumerate_paths
from repro.analyze.model import Checker, Finding, FunctionUnit, ModuleModel

__all__ = ["CollectiveMatchChecker", "COLLECTIVE_CHECKERS"]

_LOOP_KINDS = frozenset({"loop", "exit", "back", "true", "false"})


def _mentions_rank(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and "rank" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "rank" in node.attr.lower():
            return True
    return False


def _block_events(block: Block, module: ModuleModel, cls: str | None) -> list[str]:
    """Collective events this block executes, in source order.

    Direct collective calls contribute their method name; calls to
    module-local functions whose summary (transitively) contains a
    collective contribute ``name()->collective``.
    """
    events: list[tuple[int, int, str]] = []
    cg = module.callgraph
    for node in block.walk_owned():
        if not isinstance(node, ast.Call):
            continue
        if is_collective_call(node):
            assert isinstance(node.func, ast.Attribute)
            events.append((node.lineno, node.col_offset, node.func.attr))
            continue
        callee = cg._callee_name(node, cls)
        if callee is not None and cg.has_collective(callee):
            hit = cg.first_collective(callee)
            name = hit[0] if hit else "collective"
            events.append((node.lineno, node.col_offset, f"{callee}()->{name}"))
    events.sort()
    return [name for _, _, name in events]


def _path_sequence(path: Path, events: dict[int, list[str]]) -> tuple[str, ...]:
    seq: list[str] = []
    for block in path.blocks:
        seq.extend(events.get(block.id, ()))
    return tuple(seq)


def _diverging_edge(a: Path, b: Path) -> Edge | None:
    """First edge where the two paths part ways (the decision point)."""
    for ea, eb in zip(a.edges, b.edges):
        if ea is not eb:
            return ea
    # One path is a strict prefix of the other (can't happen for distinct
    # entry->exit walks, but be safe).
    return a.edges[len(b.edges)] if len(a.edges) > len(b.edges) else None


def _loop_header_divergence(edge: Edge) -> bool:
    """Does the divergence happen at a loop header (trip-count decision)?"""
    stmt = edge.src.stmt
    return isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)) and edge.kind in _LOOP_KINDS


class CollectiveMatchChecker(Checker):
    rule_id = "rank-divergent-collectives"
    loop_rule_id = "collective-in-rank-loop"
    description = (
        "every rank must execute the same collective sequence: no "
        "rank-dependent branch, early exit, or loop bound may change "
        "which collectives run"
    )
    emits = ("rank-divergent-collectives", "collective-in-rank-loop")
    # The communicator implementation itself legitimately branches on rank.
    exempt_paths = ("repro/mpi/",)

    #: Path-enumeration budget per function; incomplete => silent.
    max_paths = 200

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        for unit in module.functions:
            yield from self._check_function(module, unit)

    # -- per function ------------------------------------------------------

    def _check_function(self, module: ModuleModel, unit: FunctionUnit) -> Iterator[Finding]:
        cfg = module.cfg(unit)
        events: dict[int, list[str]] = {}
        for block in cfg.blocks:
            ev = _block_events(block, module, unit.cls)
            if ev:
                events[block.id] = ev
        if not events:
            return
        # Cheap pre-filter: some decision in the function must be
        # rank-dependent, otherwise no rank can diverge here.
        if not any(
            e.cond is not None and _mentions_rank(e.cond)
            for b in cfg.blocks
            for e in b.succs
        ):
            return
        paths, complete = enumerate_paths(cfg, max_paths=self.max_paths)
        if not complete or len(paths) < 2:
            return
        sequences = [_path_sequence(p, events) for p in paths]
        reported: set[int] = set()
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                if sequences[i] == sequences[j]:
                    continue
                edge = _diverging_edge(paths[i], paths[j])
                if edge is None or edge.cond is None:
                    continue
                if not _mentions_rank(edge.cond):
                    continue
                if edge.src.id in reported:
                    continue
                reported.add(edge.src.id)
                yield self._emit(module, unit, edge, paths[i], sequences[i], paths[j], sequences[j])

    def _emit(
        self,
        module: ModuleModel,
        unit: FunctionUnit,
        edge: Edge,
        pa: Path,
        sa: tuple[str, ...],
        pb: Path,
        sb: tuple[str, ...],
    ) -> Finding:
        line = edge.src.line or unit.node.lineno
        col = edge.src.col
        fmt = lambda s: "[" + ", ".join(s) + "]" if s else "[]"  # noqa: E731
        witness = (
            f"path A: {pa.describe()} => collectives {fmt(sa)}",
            f"path B: {pb.describe()} => collectives {fmt(sb)}",
        )
        if _loop_header_divergence(edge):
            rule, msg = self.loop_rule_id, (
                f"collective sequence inside a loop whose bound depends on "
                f"the rank (loop at line {line} in {unit.qualname}): ranks "
                "with fewer iterations stop participating while the rest "
                "block in the collective"
            )
        else:
            rule, msg = self.rule_id, (
                f"rank-dependent decision at line {line} in {unit.qualname} "
                f"makes paths execute different collective sequences "
                f"({fmt(sa)} vs {fmt(sb)}): ranks taking different paths "
                "deadlock the communicator"
            )
        return Finding(
            path=module.path,
            line=line,
            col=col,
            rule_id=rule,
            message=msg,
            witness=witness,
        )


COLLECTIVE_CHECKERS: tuple[Checker, ...] = (CollectiveMatchChecker(),)
