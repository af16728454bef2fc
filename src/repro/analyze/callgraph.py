"""Module-level call graph with interprocedural effect summaries.

The checkers are intraprocedural over CFGs, but two bug classes routinely
hide one call deep: a rank-guarded helper that *transitively* enters a
collective, and a constructor that spins up a thread before the caller
forks.  This module gives each function in a module a summary --

- ``collectives``: communicator collectives the function calls directly;
- ``thread_sites`` / ``fork_sites``: direct thread/lock creations and
  fork-based pool/process launches;
- ``calls``: locally-resolvable callees (module functions, ``Class.method``
  via ``self.``/``cls.``, and ``ClassName(...)`` as ``Class.__init__``)

-- plus transitive predicates (:meth:`CallGraph.has_collective`,
:meth:`CallGraph.creates_thread`, :meth:`CallGraph.creates_fork`) computed
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

_THREAD_FACTORIES = frozenset(
    {
        "Thread",
        "Timer",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "ThreadPoolExecutor",
    }
)

_FORK_RECEIVERS = frozenset({"multiprocessing", "mp", "mpctx", "ctx", "context", "mp_context"})


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


def is_thread_creation(node: ast.AST) -> bool:
    """``threading.Thread(...)``-style thread/lock/executor creation."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Attribute):
        base = fn.value
        if isinstance(base, ast.Name) and base.id in ("threading", "futures", "concurrent"):
            return fn.attr in _THREAD_FACTORIES
        return False
    if isinstance(fn, ast.Name):
        return fn.id in ("Thread", "ThreadPoolExecutor")
    return False


def is_fork_launch(node: ast.AST) -> bool:
    """Fork-based pool/process creation: ``ProcessPoolExecutor``,
    ``multiprocessing.Process`` (and context aliases), ``os.fork``."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id in ("ProcessPoolExecutor", "Process")
    if isinstance(fn, ast.Attribute):
        if fn.attr == "ProcessPoolExecutor":
            return True
        if fn.attr == "fork" and isinstance(fn.value, ast.Name) and fn.value.id == "os":
            return True
        if fn.attr == "Process":
            recv = receiver_name(fn.value)
            return recv is not None and recv.lower() in _FORK_RECEIVERS
    return False


@dataclass
class FunctionSummary:
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None
    calls: set[str] = field(default_factory=set)
    collectives: list[tuple[str, int]] = field(default_factory=list)
    thread_sites: list[int] = field(default_factory=list)
    fork_sites: list[int] = field(default_factory=list)


class CallGraph:
    """Summaries for every function/method defined in one module."""

    def __init__(self, tree: ast.Module):
        self.functions: dict[str, FunctionSummary] = {}
        self._collect(tree)
        self._memo: dict[tuple[str, str], bool] = {}

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
            if is_thread_creation(node):
                s.thread_sites.append(node.lineno)
            if is_fork_launch(node):
                s.fork_sites.append(node.lineno)
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

    # -- transitive predicates ---------------------------------------------

    def _transitive(self, qual: str, what: str) -> bool:
        key = (qual, what)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = False  # cycle guard: assume False while exploring
        s = self.functions.get(qual)
        if s is None:
            return False
        direct = {
            "collective": bool(s.collectives),
            "thread": bool(s.thread_sites),
            "fork": bool(s.fork_sites),
        }[what]
        result = direct or any(
            self._transitive(callee.qualname, what)
            for callee in filter(None, (self.resolve(c) for c in s.calls))
            if callee.qualname != qual
        )
        self._memo[key] = result
        return result

    def has_collective(self, name: str) -> bool:
        s = self.resolve(name)
        return s is not None and self._transitive(s.qualname, "collective")

    def creates_thread(self, name: str) -> bool:
        s = self.resolve(name)
        return s is not None and self._transitive(s.qualname, "thread")

    def creates_fork(self, name: str) -> bool:
        s = self.resolve(name)
        return s is not None and self._transitive(s.qualname, "fork")

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
