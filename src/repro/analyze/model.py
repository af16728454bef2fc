"""Shared model types for the static analyzer: findings, checkers, modules.

A :class:`Checker` sees one :class:`ModuleModel` at a time -- the parsed
tree plus lazily-built per-function CFGs and the module call graph -- and
yields :class:`Finding` objects.  Every finding is an error; it carries an
optional **CFG path witness**: the sequence of control-flow decisions that leads to
the defect, rendered as human-readable steps (and exported as a SARIF code
flow by :mod:`repro.analyze.sarif`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterator

from repro.analyze.callgraph import CallGraph
from repro.analyze.cfg import CFG, build_cfg

__all__ = ["Finding", "Checker", "ModuleModel", "FunctionUnit", "normalize_path"]

def normalize_path(path: str) -> str:
    return path.replace(os.sep, "/")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Human-readable CFG path steps leading to the defect ("entry",
    #: "L12: branch true", ...); empty for purely syntactic rules.
    witness: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: [{self.rule_id}] {self.message}"
        if self.witness:
            text += f"\n    path: {' -> '.join(self.witness)}"
        return text


@dataclass
class FunctionUnit:
    """One function/method definition inside a module."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None


class ModuleModel:
    """Everything the checkers need to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = normalize_path(path)
        self.source = source
        self.tree = tree
        self._cfgs: dict[int, CFG] = {}
        self._callgraph: CallGraph | None = None
        self._functions: list[FunctionUnit] | None = None

    @property
    def functions(self) -> list[FunctionUnit]:
        if self._functions is None:
            units: list[FunctionUnit] = []

            def visit(body: list[ast.stmt], cls: str | None, prefix: str) -> None:
                for node in body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{prefix}{node.name}"
                        units.append(FunctionUnit(qual, node, cls))
                        visit(node.body, cls, f"{qual}.<locals>.")
                    elif isinstance(node, ast.ClassDef):
                        visit(node.body, node.name, f"{prefix}{node.name}.")

            visit(self.tree.body, None, "")
            self._functions = units
        return self._functions

    def cfg(self, unit: FunctionUnit) -> CFG:
        key = id(unit.node)
        got = self._cfgs.get(key)
        if got is None:
            got = self._cfgs[key] = build_cfg(unit.node, unit.qualname)
        return got

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.tree)
        return self._callgraph


class Checker:
    """Base class for analyzer rules.

    Subclasses set ``rule_id``/``description`` and implement :meth:`check`.
    ``exempt_paths`` lists posix path substrings where the rule does not
    apply (typically the module that *implements* the machinery the rule
    protects).
    """

    rule_id: str = ""
    description: str = ""
    exempt_paths: tuple[str, ...] = ()

    @property
    def emits(self) -> tuple[str, ...]:
        """Rule ids this checker can produce (most produce exactly one)."""
        return (self.rule_id,)

    def applies_to(self, path: str) -> bool:
        return not any(sub in path for sub in self.exempt_paths)

    def check(self, module: ModuleModel) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self,
        module: ModuleModel,
        line: int,
        col: int,
        message: str,
        witness: tuple[str, ...] = (),
    ) -> Finding:
        return Finding(
            path=module.path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
            witness=witness,
        )
