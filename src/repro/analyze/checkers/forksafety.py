"""Fork- and pickle-safety checkers for the process-parallel transports.

The PR 5/6 runtimes mix three concurrency regimes -- ``threading`` for
drainers and tile workers, fork-based ``multiprocessing.Process`` for the
SPMD backend, and pickled messages over the in-memory/shm transports.  Two
hazards follow:

``thread-before-fork``
    A fork taken while the parent already created threads (or locks)
    clones a child whose copied lock state can never be released by the
    (non-existent) owning thread -- the classic fork-after-thread
    deadlock.  The checker runs a reaching-events analysis over each
    function's CFG: if any path reaches a fork-based launch with a
    thread/lock creation already behind it, it reports, with the path
    through the thread site as witness.  Module-local calls are resolved
    through the call graph, so a constructor that spins up a drainer
    thread taints its callers.

``mutate-after-send``
    The in-memory and shm transports hand a buffer to ``send()`` whose
    bytes are captured at an unspecified point (pickled eagerly today,
    but the MPI contract -- and any future nonblocking transport -- only
    guarantees capture by the next synchronization).  Mutating an ndarray
    between a ``send`` and the next collective is therefore latently
    racy: the checker tracks sent names per path and flags in-place
    mutations (subscript/attribute stores, ``AugAssign``, mutating ndarray
    methods, ``out=`` kwargs, ``np.copyto``) before a collective clears
    the in-flight set.  Reported as a warning: today's eager transports
    make it a portability hazard, not a live bug.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.callgraph import (
    is_collective_call,
    is_fork_launch,
    is_thread_creation,
    receiver_name,
)
from repro.analyze.cfg import Block
from repro.analyze.dataflow import SetSolver, shortest_path
from repro.analyze.model import Checker, Finding, FunctionUnit, ModuleModel

__all__ = ["ThreadBeforeForkChecker", "MutateAfterSendChecker", "FORKSAFETY_CHECKERS"]

_SEND_NAMES = frozenset({"send", "isend", "ssend"})

_MUTATING_METHODS = frozenset(
    {"fill", "sort", "resize", "put", "partition", "itemset", "byteswap", "setfield"}
)


def _is_comm_receiver(recv: str | None) -> bool:
    if recv is None:
        return False
    recv = recv.lower()
    return "comm" in recv or recv in {"world", "group"}


def _is_send_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SEND_NAMES
        and _is_comm_receiver(receiver_name(node.func.value))
    )


class ThreadBeforeForkChecker(Checker):
    rule_id = "thread-before-fork"
    description = (
        "no thread/lock creation may be reachable before a fork-based "
        "process launch in the same module"
    )
    severity = "error"
    emits = ("thread-before-fork",)

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        cg = module.callgraph
        for unit in module.functions:
            fn = unit.node
            # Cheap pre-filter before building the CFG.
            any_thread = any_fork = False
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    if is_thread_creation(node):
                        any_thread = True
                    if is_fork_launch(node):
                        any_fork = True
                    callee = cg._callee_name(node, unit.cls)
                    if callee is not None:
                        if cg.creates_thread(callee):
                            any_thread = True
                        if cg.creates_fork(callee):
                            any_fork = True
            if not (any_thread and any_fork):
                continue
            yield from self._check_function(module, unit)

    def _check_function(self, module: ModuleModel, unit: FunctionUnit) -> Iterator[Finding]:
        cfg = module.cfg(unit)
        cg = module.callgraph

        def classify(block: Block) -> tuple[list[tuple], list[tuple]]:
            """(thread events, fork sites) contributed by this block."""
            threads: list[tuple] = []
            forks: list[tuple] = []
            for node in block.walk_owned():
                if not isinstance(node, ast.Call):
                    continue
                if is_thread_creation(node):
                    threads.append(("thread", _call_name(node), node.lineno, block.id))
                elif is_fork_launch(node):
                    forks.append((_call_name(node), node.lineno))
                else:
                    callee = cg._callee_name(node, unit.cls)
                    if callee is None:
                        continue
                    if cg.creates_thread(callee):
                        threads.append(("thread-via", callee, node.lineno, block.id))
                    if cg.creates_fork(callee):
                        forks.append((f"{callee}()", node.lineno))
            return threads, forks

        per_block = {b.id: classify(b) for b in cfg.blocks}
        solver = SetSolver(cfg, lambda b: frozenset(per_block[b.id][0])).solve()
        by_id = {b.id: b for b in cfg.blocks}
        for block in cfg.blocks:
            forks = per_block[block.id][1]
            if not forks:
                continue
            reaching = sorted(solver.before(block), key=lambda ev: ev[2])
            if not reaching:
                continue
            kind, what, tline, tblock = reaching[0]
            fname, fline = forks[0]
            via = "" if kind == "thread" else f" (via {what}())"
            yield self.finding(
                module,
                fline,
                block.col,
                f"fork-based launch '{fname}' at line {fline} in "
                f"{unit.qualname} is reachable after a thread/lock was "
                f"created at line {tline}{via}: forking a threaded process "
                "clones lock state no child thread can ever release",
                witness=shortest_path(cfg, block, via=by_id.get(tblock)),
            )


def _call_name(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return "<call>"


class MutateAfterSendChecker(Checker):
    rule_id = "mutate-after-send"
    description = (
        "no in-place ndarray mutation between a point-to-point send and "
        "the next collective"
    )
    severity = "warning"
    emits = ("mutate-after-send",)

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        for unit in module.functions:
            if not any(_is_send_call(n) for n in ast.walk(unit.node)):
                continue
            yield from self._check_function(module, unit)

    def _check_function(self, module: ModuleModel, unit: FunctionUnit) -> Iterator[Finding]:
        cfg = module.cfg(unit)

        def sends(block: Block) -> frozenset:
            out = set()
            for node in block.walk_owned():
                if _is_send_call(node):
                    assert isinstance(node, ast.Call)
                    for arg in node.args[:1]:  # the payload argument
                        if isinstance(arg, ast.Name):
                            out.add((arg.id, node.lineno, block.id))
            return frozenset(out)

        def clears(block: Block, flowing: frozenset) -> frozenset:
            # A collective is a synchronization point: sends are complete.
            if any(is_collective_call(n) for n in block.walk_owned()):
                return frozenset()
            rebound = _rebound_names(block)
            if rebound:
                flowing = frozenset(ev for ev in flowing if ev[0] not in rebound)
            return flowing

        solver = SetSolver(cfg, sends, kill=clears).solve()
        by_id = {b.id: b for b in cfg.blocks}
        seen: set[tuple[int, str]] = set()
        for block in cfg.blocks:
            inflight = solver.before(block)
            if not inflight:
                continue
            mutated = _mutated_names(block)
            for var, sline, sblock in sorted(inflight, key=lambda ev: ev[1]):
                if var not in mutated or (block.id, var) in seen:
                    continue
                seen.add((block.id, var))
                line = block.line or sline
                yield self.finding(
                    module,
                    line,
                    block.col,
                    f"'{var}' sent at line {sline} in {unit.qualname} is "
                    f"mutated in place at line {line} before the next "
                    "collective: the transport only guarantees the bytes "
                    "are captured by the next synchronization, so this is "
                    "latently racy",
                    witness=shortest_path(cfg, block, via=by_id.get(sblock)),
                )


def _rebound_names(block: Block) -> set[str]:
    stmt = block.stmt
    names: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
    elif isinstance(stmt, (ast.AnnAssign,)) and isinstance(stmt.target, ast.Name):
        names.add(stmt.target.id)
    return names


def _mutated_names(block: Block) -> set[str]:
    """Names mutated in place by this block's statement."""
    out: set[str] = set()
    stmt = block.stmt
    if stmt is None:
        return out
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            base = _store_base(t)
            if base is not None:
                out.add(base)
    if isinstance(stmt, ast.AugAssign):
        base = _store_base(stmt.target)
        if base is not None:
            out.add(base)
        if isinstance(stmt.target, ast.Name):
            out.add(stmt.target.id)
    for node in block.walk_owned():
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in _MUTATING_METHODS:
            if isinstance(f.value, ast.Name):
                out.add(f.value.id)
        if isinstance(f, ast.Attribute) and f.attr == "copyto" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name):
                out.add(first.id)
        for kw in node.keywords:
            if kw.arg == "out" and isinstance(kw.value, ast.Name):
                out.add(kw.value.id)
    return out


def _store_base(target: ast.expr) -> str | None:
    """``x[i] = ...`` / ``x.attr = ...`` mutate ``x`` in place."""
    if isinstance(target, (ast.Subscript, ast.Attribute)):
        node = target.value
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
    return None


FORKSAFETY_CHECKERS: tuple[Checker, ...] = (
    ThreadBeforeForkChecker(),
    MutateAfterSendChecker(),
)
