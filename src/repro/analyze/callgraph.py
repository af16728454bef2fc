"""Module-level call graph with interprocedural collective summaries.

The checkers are intraprocedural over CFGs, but a rank-guarded helper that
*transitively* enters a collective hides the collective one call deep.
This module gives each function in a module a summary --

- ``collectives``: communicator collectives the function calls directly;
- ``calls``: locally-resolvable callees (module functions, ``Class.method``
  via ``self.``/``cls.``, and ``ClassName(...)`` as ``Class.__init__``)

-- plus the transitive predicate :meth:`CallGraph.has_collective`, computed
by memoized DFS that is cycle-safe.  Resolution is deliberately local to
the module: imported callees are unknown and contribute nothing, which
keeps the summaries cheap and the false-positive rate near zero.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CallGraph", "FunctionSummary", "receiver_name"]

#: Collective methods of the repo's Communicator (the one set every
#: collective checker matches against, via :func:`is_collective_call`).
COLLECTIVE_NAMES = frozenset(
    {
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "exscan",
        "split",
        "dup",
    }
)


def receiver_name(node: ast.expr) -> str | None:
    """Rightmost identifier of a call receiver (``self.comm`` -> ``comm``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_collective_call(node: ast.AST) -> bool:
    """A collective method call on a communicator-shaped receiver."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr not in COLLECTIVE_NAMES:
        return False
    recv = receiver_name(node.func.value)
    if recv is None:
        return False
    recv = recv.lower()
    return "comm" in recv or recv in {"world", "group"}


@dataclass
class FunctionSummary:
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None
    calls: set[str] = field(default_factory=set)
    collectives: list[tuple[str, int]] = field(default_factory=list)


class CallGraph:
    """Summaries for every function/method defined in one module."""

    def __init__(self, tree: ast.Module):
        self.functions: dict[str, FunctionSummary] = {}
        self._collect(tree)
        self._memo: dict[str, bool] = {}

    # -- construction ------------------------------------------------------

    def _collect(self, tree: ast.Module) -> None:
        classes: dict[str, ast.ClassDef] = {}

        def visit_body(body: list[ast.stmt], cls: str | None) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{cls}.{node.name}" if cls else node.name
                    self.functions[qual] = self._summarize(node, qual, cls)
                    # Nested defs get their own (less resolvable) summaries.
                    visit_body(node.body, cls)
                elif isinstance(node, ast.ClassDef):
                    classes[node.name] = node
                    visit_body(node.body, node.name)

        visit_body(tree.body, None)
        self._classes = classes

    def _summarize(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, qual: str, cls: str | None
    ) -> FunctionSummary:
        s = FunctionSummary(qual, fn, cls)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if is_collective_call(node):
                assert isinstance(node.func, ast.Attribute)
                s.collectives.append((node.func.attr, node.lineno))
            callee = self._callee_name(node, cls)
            if callee is not None:
                s.calls.add(callee)
        return s

    def _callee_name(self, call: ast.Call, cls: str | None) -> str | None:
        fn = call.func
        if isinstance(fn, ast.Name):
            return fn.id  # module function or ClassName(...)
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            if fn.value.id in ("self", "cls") and cls is not None:
                return f"{cls}.{fn.attr}"
        return None

    # -- resolution --------------------------------------------------------

    def resolve(self, name: str) -> FunctionSummary | None:
        """A summary for ``name``; class names resolve to ``__init__``."""
        s = self.functions.get(name)
        if s is not None:
            return s
        if name in getattr(self, "_classes", {}):
            return self.functions.get(f"{name}.__init__")
        return None

    # -- transitive predicate ----------------------------------------------

    def _reaches_collective(self, qual: str) -> bool:
        if qual in self._memo:
            return self._memo[qual]
        self._memo[qual] = False  # cycle guard: assume False while exploring
        s = self.functions.get(qual)
        if s is None:
            return False
        result = bool(s.collectives) or any(
            self._reaches_collective(callee.qualname)
            for callee in filter(None, (self.resolve(c) for c in s.calls))
            if callee.qualname != qual
        )
        self._memo[qual] = result
        return result

    def has_collective(self, name: str) -> bool:
        s = self.resolve(name)
        return s is not None and self._reaches_collective(s.qualname)

    def first_collective(self, name: str) -> tuple[str, int] | None:
        """A representative (collective, line) a call to ``name`` reaches."""
        s = self.resolve(name)
        if s is None:
            return None
        seen: set[str] = set()
        stack = [s]
        while stack:
            cur = stack.pop()
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if cur.collectives:
                return cur.collectives[0]
            for c in sorted(cur.calls):
                nxt = self.resolve(c)
                if nxt is not None:
                    stack.append(nxt)
        return None
