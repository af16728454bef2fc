"""The two syntactic repo-contract rules.

Each is a single pass over the AST.  The path-sensitive families
(collective matching, resource typestate) live in the sibling checker
modules.

Rule catalogue:

``analysis-sim-import``
    Analysis and infrastructure modules must not import simulation
    internals (``repro.miniapp``, ``repro.apps``): the SENSEI decoupling
    (Sec. 3.2) is the paper's core portability claim.
``bare-time-call``
    ``time.time()`` is wall-clock (non-monotonic, coarse); timed hot paths
    must use the :class:`Timer` machinery (``perf_counter``-based).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

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
        self.exempt_paths = rule.exempt_paths

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        for line, col, message in self.rule.check(module.tree, module.path):
            yield self.finding(module, line, col, message)


CONTRACT_CHECKERS: tuple[ContractChecker, ...] = tuple(
    ContractChecker(rule) for rule in ALL_RULES
)
