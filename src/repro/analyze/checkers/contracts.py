"""The five syntactic repo-contract rules (``--rules`` selects them by id).

Each is a single pass over the AST.  The deeper, path-sensitive families
(collective matching, resource typestate, fork safety) live in the sibling
checker modules.

Rule catalogue:

``collective-in-rank-branch``
    Collective calls (``comm.barrier``, ``comm.reduce``, ...) inside an
    ``if`` whose condition mentions a rank deadlock the job: MPI collectives
    must be entered by every rank of the communicator.
``timer-balance``
    ``Timer.start()`` without a matching ``stop()`` in the same function
    corrupts phase totals (Figs. 5-6) and raises on the next ``start``.
``memory-pairing``
    ``MemoryTracker.allocate(label=...)`` labels must have a matching
    ``free`` somewhere in the module (and vice versa), else high-water
    marks (Fig. 4) drift across steps.  Only string-literal labels are
    checked.
``analysis-sim-import``
    Analysis, infrastructure, and extract modules must not import
    simulation internals (``repro.miniapp``, ``repro.apps``): the SENSEI
    decoupling (Sec. 3.2) is the paper's core portability claim.
``bare-time-call``
    ``time.time()`` is wall-clock (non-monotonic, coarse); timed hot paths
    must use the :class:`Timer` machinery (``perf_counter``-based).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.analyze.callgraph import is_collective_call, receiver_name
from repro.analyze.model import Checker, Finding, ModuleModel

__all__ = ["Rule", "ALL_RULES", "CONTRACT_CHECKERS", "ContractChecker"]

LintFinding = tuple[int, int, str]  # (line, col, message)


@dataclass(frozen=True)
class Rule:
    id: str
    description: str
    check: Callable[[ast.Module, str], Iterator[LintFinding]]
    #: Path substrings (posix-normalized) where the rule does not apply.
    exempt_paths: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# collective-in-rank-branch
# --------------------------------------------------------------------------


def _mentions_rank(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and "rank" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "rank" in node.attr.lower():
            return True
    return False


def _check_collective_in_rank_branch(
    tree: ast.Module, path: str
) -> Iterator[LintFinding]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and _mentions_rank(node.test)):
            continue
        for sub in ast.walk(node):
            if sub is node.test or not is_collective_call(sub):
                continue
            # Skip calls that live in the test expression itself.
            assert isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            yield (
                sub.lineno,
                sub.col_offset,
                f"collective '{sub.func.attr}' called inside a "
                "rank-conditional branch "
                f"(if at line {node.lineno}): collectives must be entered "
                "by every rank or the job deadlocks",
            )


# --------------------------------------------------------------------------
# timer-balance
# --------------------------------------------------------------------------


def _is_timer_factory_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "timer"
    )


def _check_timer_balance(tree: ast.Module, path: str) -> Iterator[LintFinding]:
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        timer_vars: dict[str, int] = {}
        starts: dict[str, int] = {}
        stops: dict[str, int] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _is_timer_factory_call(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        timer_vars.setdefault(tgt.id, node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("start", "stop")
            ):
                recv = node.func.value
                if isinstance(recv, ast.Name):
                    bucket = starts if node.func.attr == "start" else stops
                    bucket[recv.id] = bucket.get(recv.id, 0) + 1
                elif _is_timer_factory_call(recv) and node.func.attr == "start":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "chained .timer(...).start() discards the timer: "
                        "nothing can ever stop it, so its phase total is "
                        "never recorded",
                    )
        for var, lineno in timer_vars.items():
            n_start, n_stop = starts.get(var, 0), stops.get(var, 0)
            if n_start != n_stop:
                yield (
                    lineno,
                    0,
                    f"timer variable '{var}' in {fn.name}() has "
                    f"{n_start} start() but {n_stop} stop() call(s); "
                    "unbalanced timers corrupt phase totals",
                )


# --------------------------------------------------------------------------
# memory-pairing
# --------------------------------------------------------------------------


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


def _is_memory_call(node: ast.AST, attr: str) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != attr:
        return False
    recv = receiver_name(node.func.value)
    return recv is not None and "mem" in recv.lower()


def _check_memory_pairing(tree: ast.Module, path: str) -> Iterator[LintFinding]:
    allocs: dict[str, tuple[int, int]] = {}
    frees: dict[str, tuple[int, int]] = {}
    for node in ast.walk(tree):
        for attr, sink in (("allocate", allocs), ("free", frees)):
            if _is_memory_call(node, attr):
                assert isinstance(node, ast.Call)
                label = _memory_label(node)
                if label is not None:
                    sink.setdefault(label, (node.lineno, node.col_offset))
    for label, (line, col) in sorted(allocs.items(), key=lambda kv: kv[1]):
        if label not in frees:
            yield (
                line,
                col,
                f"memory label {label!r} is allocate()d but never free()d "
                "in this module: per-label accounting drifts and the "
                "tracker's negative-balance guard cannot protect it",
            )
    for label, (line, col) in sorted(frees.items(), key=lambda kv: kv[1]):
        if label not in allocs:
            yield (
                line,
                col,
                f"memory label {label!r} is free()d but never allocate()d "
                "in this module: free() will raise MemoryAccountingError "
                "at runtime",
            )


# --------------------------------------------------------------------------
# analysis-sim-import
# --------------------------------------------------------------------------

_SIM_INTERNAL_PREFIXES = ("repro.miniapp", "repro.apps")
_DECOUPLED_DIRS = ("repro/analysis/", "repro/infrastructure/")


def _check_analysis_sim_import(tree: ast.Module, path: str) -> Iterator[LintFinding]:
    if not any(d in path for d in _DECOUPLED_DIRS):
        return
    for node in ast.walk(tree):
        modules: list[str] = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules = [node.module]
        for mod in modules:
            if mod.startswith(_SIM_INTERNAL_PREFIXES) or mod in (
                p.rstrip(".") for p in _SIM_INTERNAL_PREFIXES
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"import of simulation internals {mod!r} from an "
                    "analysis/infrastructure module: analyses must consume "
                    "simulations only through the DataAdaptor contract "
                    "(Sec. 3.2)",
                )


# --------------------------------------------------------------------------
# bare-time-call
# --------------------------------------------------------------------------


def _check_bare_time_call(tree: ast.Module, path: str) -> Iterator[LintFinding]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            yield (
                node.lineno,
                node.col_offset,
                "bare time.time() call: wall-clock time is non-monotonic "
                "and coarse; use Timer/TimerRegistry (perf_counter-based) "
                "for anything measured",
            )


ALL_RULES: tuple[Rule, ...] = (
    Rule(
        id="collective-in-rank-branch",
        description="no collective calls inside rank-conditional branches",
        check=_check_collective_in_rank_branch,
        # The communicator implements collectives and legitimately branches
        # on its own rank (e.g. root-only reduction evaluation).
        exempt_paths=("repro/mpi/",),
    ),
    Rule(
        id="timer-balance",
        description="Timer.start()/stop() must balance per function",
        check=_check_timer_balance,
    ),
    Rule(
        id="memory-pairing",
        description="MemoryTracker allocate/free labels must pair per module",
        check=_check_memory_pairing,
    ),
    Rule(
        id="analysis-sim-import",
        description="analysis modules must not import simulation internals",
        check=_check_analysis_sim_import,
    ),
    Rule(
        id="bare-time-call",
        description="no bare time.time() outside the timer machinery",
        check=_check_bare_time_call,
        exempt_paths=("repro/util/timers.py",),
    ),
)


class ContractChecker(Checker):
    """Adapter running one :class:`Rule` on the checker framework."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.rule_id = rule.id
        self.description = rule.description
        self.severity = "error"
        self.exempt_paths = rule.exempt_paths

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        for line, col, message in self.rule.check(module.tree, module.path):
            yield self.finding(module, line, col, message)


CONTRACT_CHECKERS: tuple[ContractChecker, ...] = tuple(
    ContractChecker(rule) for rule in ALL_RULES
)
