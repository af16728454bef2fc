"""Resource typestate checkers: every acquire must reach its release.

The repo's measurement machinery is full of paired operations whose
imbalance silently corrupts results: ``Timer.start``/``stop`` (phase
totals, Figs. 5-6) and ``MemoryTracker.allocate``/``free`` (high-water
marks, Fig. 4).  These checkers run a *typestate* analysis over the CFG: each tracked
resource is a little state machine, facts are propagated with
:class:`~repro.analyze.dataflow.FactSolver`, and a resource still "open" at
function exit -- on the normal **or** the exceptional path -- is reported
together with the CFG path that leaks it.

Exception edges are the point: an ``exc`` edge leaving a statement carries
the state *unchanged* (the statement raised, its effect never happened),
so ``t.start(); risky(); t.stop()`` correctly reports a timer left
running on the path where ``risky()`` raises, while ``try/finally`` cleanup
is recognized because the CFG duplicates ``finally`` bodies per
continuation.

Tracking is deliberately dropped ("escape") the moment a resource leaves
the function's hands -- returned, yielded, stored to an attribute,
aliased, or passed to any call that is not one of the resource's own
operations.  Escaped resources produce no findings: missing a real leak
is acceptable, crying wolf on ownership transfer is not.

A chained ``<...>.timer(...).start()`` is a timer created running with no
name to stop it by, so it leaks at every exit.  Memory labels also get one
module-scope pass with no path: a string-literal label that the module
allocates but never frees, or frees but never allocates, is reported at
its first call site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.callgraph import receiver_name
from repro.analyze.cfg import CFG, Block
from repro.analyze.dataflow import FactSolver
from repro.analyze.model import Checker, Finding, FunctionUnit, ModuleModel

__all__ = [
    "TypestateChecker",
    "TimerSpec",
    "MemorySpec",
    "TYPESTATE_CHECKERS",
]

#: Fact meaning "this resource does not exist yet on this path".
UNTRACKED = "untracked"

# Event kinds produced per block, applied in order on non-exceptional
# out-edges: ("create", state0) | ("op", opname, line) | ("drop",).
Event = tuple


class _Error:
    """A statement- or exit-level typestate violation."""

    __slots__ = ("message", "line", "col", "witness")

    def __init__(self, message, line, col, witness):
        self.message = message
        self.line = line
        self.col = col
        self.witness = witness


class ResourceSpec:
    """One resource family: creation shape, operations, exit contract."""

    rule_id: str = ""
    description: str = ""
    exempt_paths: tuple[str, ...] = ()
    #: Resources are named local variables (enables escape analysis).
    var_based: bool = True
    #: Check leaks on the exceptional exit too?
    check_raise_exit: bool = True

    def creations(self, stmt: ast.stmt) -> list[tuple[str, str]]:
        """(key, initial state) pairs created by this statement."""
        raise NotImplementedError

    def creation_calls(self, node: ast.AST) -> list[tuple[str, str]]:
        """Expression-level creations (non-var-based specs only)."""
        return []

    def op_of(self, call: ast.Call, key: str) -> str | None:
        """Operation name if ``call`` is one of the resource's own ops."""
        raise NotImplementedError

    def apply(self, op: str, state: str, qualname: str, key: str):
        """-> (new state, error message | None)."""
        raise NotImplementedError

    def exit_error(self, state: str, exceptional: bool, qualname: str, key: str) -> str | None:
        raise NotImplementedError

    def module_errors(self, tree: ast.Module) -> Iterator[tuple[int, int, str]]:
        """(line, col, message) for contracts that span the whole module."""
        return iter(())


# --------------------------------------------------------------------------
# Specs
# --------------------------------------------------------------------------


def _is_timer_factory(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "timer"
    )


def _is_chained_start(node: ast.expr) -> bool:
    """``<...>.timer(...).start()``: a timer started without a handle."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "start"
        and _is_timer_factory(node.func.value)
    )


def _is_memory_call(node: ast.AST, attr: str) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != attr:
        return False
    recv = receiver_name(node.func.value)
    return recv is not None and "mem" in recv.lower()


def _memory_label(node: ast.Call) -> str | None:
    """String-literal label of an allocate/free call, if any."""
    for kw in node.keywords:
        if kw.arg == "label" and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, str):
                return kw.value.value
    for arg in node.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


class TimerSpec(ResourceSpec):
    rule_id = "timer-typestate"
    description = "timers created via .timer(...) must be stopped on every path"
    exempt_paths = ("repro/util/timers.py",)

    def creations(self, stmt: ast.stmt) -> list[tuple[str, str]]:
        if isinstance(stmt, ast.Expr) and _is_chained_start(stmt.value):
            # ``<...>.timer(...).start()`` keeps no handle: the timer is
            # tracked under its (non-identifier) expression text, which no
            # stop() can ever name.
            return [(ast.unparse(stmt.value.func.value), "running")]  # type: ignore[attr-defined]
        if not (isinstance(stmt, ast.Assign) and _is_timer_factory(stmt.value)):
            return []
        return [
            (t.id, "stopped") for t in stmt.targets if isinstance(t, ast.Name)
        ]

    def op_of(self, call: ast.Call, key: str) -> str | None:
        f = call.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in ("start", "stop")
            and isinstance(f.value, ast.Name)
            and f.value.id == key
        ):
            return f.attr
        return None

    def apply(self, op: str, state: str, qualname: str, key: str):
        if op == "start":
            if state == "running":
                return (
                    "running",
                    f"timer '{key}' started twice without an intervening "
                    f"stop() in {qualname}: Timer.start() raises on a "
                    "running timer",
                )
            return ("running", None)
        # stop
        if state == "stopped":
            return (
                "stopped",
                f"timer '{key}' stopped without a start() on this path in "
                f"{qualname}: Timer.stop() raises on a stopped timer",
            )
        return ("stopped", None)

    def exit_error(self, state: str, exceptional: bool, qualname: str, key: str) -> str | None:
        if state != "running":
            return None
        if not key.isidentifier():
            return (
                f"chained {key}.start() in {qualname} discards the timer: "
                "nothing can ever stop it, so its interval is never "
                "recorded; bind it to a name or use TimerRegistry.time()"
            )
        where = "when an exception escapes" if exceptional else "at function exit"
        return (
            f"timer '{key}' is still running {where} in {qualname}: its "
            "interval is never recorded and the next start() raises; stop "
            "it in a finally block or use TimerRegistry.time()"
        )


class MemorySpec(ResourceSpec):
    rule_id = "memory-typestate"
    description = (
        "every allocate(label=...) must have a free(label=...) in its module "
        "(and vice versa), balanced on every path of a function that does both"
    )
    var_based = False  # keys are string labels, not variables
    check_raise_exit = False  # exceptions tear the tracker down anyway

    def creations(self, stmt: ast.stmt) -> list[tuple[str, str]]:
        out = []
        for node in ast.walk(stmt):
            out.extend(self.creation_calls(node))
        return out

    def creation_calls(self, node: ast.AST) -> list[tuple[str, str]]:
        if _is_memory_call(node, "allocate"):
            label = _memory_label(node)  # type: ignore[arg-type]
            if label is not None:
                return [(label, "allocated")]
        return []

    def op_of(self, call: ast.Call, key: str) -> str | None:
        if _is_memory_call(call, "free") and _memory_label(call) == key:
            return "free"
        return None

    def apply(self, op: str, state: str, qualname: str, key: str):
        return ("freed", None)

    def exit_error(self, state: str, exceptional: bool, qualname: str, key: str) -> str | None:
        if state != "allocated":
            return None
        return (
            f"memory label {key!r} is allocated but not freed on this path "
            f"through {qualname}: the function frees it on other paths, so "
            "per-label accounting drifts step over step"
        )

    def module_errors(self, tree: ast.Module) -> Iterator[tuple[int, int, str]]:
        # Pairing across functions is legitimate (allocate in initialize,
        # free in finalize), but some function of the module must do each
        # side.  Only string-literal labels are checked.
        sites: dict[str, dict[str, tuple[int, int]]] = {"allocate": {}, "free": {}}
        for node in ast.walk(tree):
            for attr, seen in sites.items():
                if _is_memory_call(node, attr):
                    label = _memory_label(node)  # type: ignore[arg-type]
                    if label is not None:
                        seen.setdefault(label, (node.lineno, node.col_offset))
        allocs, frees = sites["allocate"], sites["free"]
        for label, (line, col) in allocs.items():
            if label not in frees:
                yield (
                    line,
                    col,
                    f"memory label {label!r} is allocate()d but never free()d "
                    "in this module: per-label accounting drifts and the "
                    "tracker's negative-balance guard cannot protect it",
                )
        for label, (line, col) in frees.items():
            if label not in allocs:
                yield (
                    line,
                    col,
                    f"memory label {label!r} is free()d but never allocate()d "
                    "in this module: free() raises MemoryAccountingError at "
                    "runtime",
                )


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def _escapes(stmt: ast.stmt, key: str, spec: ResourceSpec) -> bool:
    """Does this statement move ``key`` out of the function's hands?

    Passing the bare name to a foreign call transfers ownership;
    passing an attribute of it (``log(t.mean)``) does not.
    """
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _contains_name(stmt.value, key)
    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            if isinstance(tgt, (ast.Attribute, ast.Subscript, ast.Tuple, ast.List)):
                if _contains_name(stmt.value, key):
                    return True
            if isinstance(tgt, ast.Name) and tgt.id != key:
                if isinstance(stmt.value, ast.Name) and stmt.value.id == key:
                    return True  # plain alias: the alias now owns it
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            if _contains_name(node.value, key):
                return True
        if isinstance(node, ast.Call) and spec.op_of(node, key) is None:
            for arg in node.args:
                if _is_name(arg, key):
                    return True
                if isinstance(arg, ast.Starred) and _is_name(arg.value, key):
                    return True
            for kw in node.keywords:
                if _is_name(kw.value, key):
                    return True
    return False


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _contains_name(node: ast.AST, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))


def _rebinds(stmt: ast.stmt, key: str, spec: ResourceSpec) -> bool:
    """Is the *name* ``key`` itself reassigned (not a store through it)?"""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        if spec.creations(stmt):
            return False  # handled as a (re-)creation event
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [i.optional_vars for i in stmt.items if i.optional_vars is not None]
    for t in targets:
        if _is_name(t, key):
            return True
        if isinstance(t, (ast.Tuple, ast.List)) and _contains_name(t, key):
            return True
    return False


class _Tracker:
    """One (spec, key) typestate run over one function CFG."""

    def __init__(self, spec: ResourceSpec, key: str, cfg: CFG, unit: FunctionUnit):
        self.spec = spec
        self.key = key
        self.cfg = cfg
        self.unit = unit
        self.events: dict[int, list[Event]] = {}
        self.creation_line = 0
        self.creation_col = 0
        self._index_blocks()
        self.errors: list[_Error] = []
        self._seen: set[tuple[int, str]] = set()
        self.solver = FactSolver(cfg, self._transfer, UNTRACKED)

    def _index_blocks(self) -> None:
        spec, key = self.spec, self.key
        for block in self.cfg.blocks:
            stmt = block.stmt
            if stmt is None:
                continue
            evs: list[Event] = []
            if spec.var_based:
                created = spec.creations(stmt)
            else:
                created = [
                    c for node in block.walk_owned() for c in spec.creation_calls(node)
                ]
            for ck, state in created:
                if ck == key:
                    evs.append(("create", state))
                    if not self.creation_line:
                        self.creation_line = stmt.lineno
                        self.creation_col = stmt.col_offset
            for node in block.walk_owned():
                if isinstance(node, ast.Call):
                    op = spec.op_of(node, key)
                    if op is not None:
                        evs.append(("op", op, node.lineno))
            if spec.var_based and not any(e[0] == "create" for e in evs):
                if _escapes(stmt, key, spec) or _rebinds(stmt, key, spec):
                    evs.append(("drop",))
            if evs:
                self.events[block.id] = evs

    def _transfer(self, edge, fact):
        if edge.kind == "exc":
            evs = self.events.get(edge.src.id)
            if (
                fact != UNTRACKED
                and evs is not None
                and any(e[0] == "op" for e in evs)
            ):
                # The resource's own op (stop/free) raised: the
                # release was *attempted*; reporting "leaked because the
                # cleanup call itself blew up" is noise, so stop tracking.
                return ()
            # Any other raising statement: its effects never happened.
            return (fact,)
        evs = self.events.get(edge.src.id)
        if evs is None:
            return (fact,)
        state = fact
        for ev in evs:
            if ev[0] == "create":
                state = ev[1]
            elif ev[0] == "op":
                if state == UNTRACKED:
                    continue  # op on a name this path never created
                new, msg = self.spec.apply(ev[1], state, self.unit.qualname, self.key)
                if msg is not None:
                    self._record(edge.src, fact, msg, ev[2])
                state = new
            elif ev[0] == "drop":
                return ()  # escaped: stop tracking on this path
        return (state,)

    def _record(self, block: Block, in_fact, msg: str, line: int) -> None:
        dkey = (block.id, msg)
        if dkey in self._seen:
            return
        self._seen.add(dkey)
        self.errors.append(
            _Error(msg, line, block.col, self.solver.witness(block, in_fact))
        )

    def run(self) -> list[_Error]:
        self.solver.solve()
        spec = self.spec
        exits = [(self.cfg.exit, False)]
        if spec.check_raise_exit:
            exits.append((self.cfg.raise_exit, True))
        reported_states: set[str] = set()
        for block, exceptional in exits:
            for fact in sorted(self.solver.at(block), key=str):
                if fact == UNTRACKED:
                    continue
                msg = spec.exit_error(fact, exceptional, self.unit.qualname, self.key)
                if msg is None:
                    continue
                if fact in reported_states:
                    continue  # already leaked on the normal exit
                reported_states.add(fact)
                dkey = (block.id, msg)
                if dkey in self._seen:
                    continue
                self._seen.add(dkey)
                self.errors.append(
                    _Error(
                        msg,
                        self.creation_line or (self.unit.node.lineno),
                        self.creation_col,
                        self.solver.witness(block, fact),
                    )
                )
        return self.errors


class TypestateChecker(Checker):
    """Runs one :class:`ResourceSpec` over every function in a module."""

    def __init__(self, spec: ResourceSpec):
        self.spec = spec
        self.rule_id = spec.rule_id
        self.description = spec.description
        self.exempt_paths = spec.exempt_paths

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        spec = self.spec
        for line, col, message in spec.module_errors(module.tree):
            yield self.finding(module, line, col, message)
        for unit in module.functions:
            keys: dict[str, bool] = {}
            for node in ast.walk(unit.node):
                if isinstance(node, ast.stmt) and spec.var_based:
                    for key, _ in spec.creations(node):
                        keys[key] = True
                elif not spec.var_based:
                    for key, _ in spec.creation_calls(node):
                        keys[key] = True
            if not keys:
                continue
            has_op: set[str] = set()
            for node in ast.walk(unit.node):
                if isinstance(node, ast.Call):
                    for key in keys:
                        if spec.op_of(node, key) is not None:
                            has_op.add(key)
            cfg = module.cfg(unit)
            for key in keys:
                if not spec.var_based and key not in has_op:
                    # Label-based pairing across functions is legitimate
                    # (allocate here, free in the drain method): only check
                    # functions that do both sides themselves.
                    continue
                for err in _Tracker(spec, key, cfg, unit).run():
                    yield self.finding(
                        module, err.line, err.col, err.message, err.witness
                    )


TYPESTATE_CHECKERS: tuple[TypestateChecker, ...] = (
    TypestateChecker(TimerSpec()),
    TypestateChecker(MemorySpec()),
)
