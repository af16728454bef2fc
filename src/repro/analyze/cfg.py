"""Per-function control-flow graphs over the Python AST.

Every checker in :mod:`repro.analyze` that reasons about *paths* -- which
collectives a rank executes, whether a timer is stopped before the function
returns, whether a shared-memory segment reaches ``close()`` on the
exception path -- runs over the CFGs built here rather than over the raw
syntax tree.  The graph is deliberately fine-grained: **one statement per
block**.  Functions in this repo are small, and statement-granular blocks
make exception edges precise (an edge leaving a statement models "this
statement raised, its effect did not happen"), which is exactly the
precision the resource-typestate checkers need.

Shape of the graph:

- synthetic ``entry`` and ``exit`` blocks, plus a distinct ``raise_exit``
  reached by paths that leave the function with an unhandled exception;
- every simple statement is one block; compound statements contribute a
  *head* block holding only their header expressions (``if``/``while``
  tests, ``for`` iterables, ``with`` context expressions) -- use
  :meth:`Block.owned_nodes` to get the AST a block actually executes;
- branch edges carry their condition (``kind`` in ``{"true", "false",
  "loop", "exit"}`` plus ``cond``), loops get a ``back`` edge, and
  statements that can raise (they contain a call, ``yield``, ``await``,
  ``raise`` or ``assert``) get an ``exc`` edge to the innermost enclosing
  handler chain, else to ``raise_exit``;
- ``try``/``finally`` is modeled by *duplicating* the ``finally`` body per
  continuation kind (normal completion, exception propagation, ``return``,
  ``break``/``continue``), so a path that runs the body to completion can
  never leak into the exceptional continuation -- the imprecision that
  would otherwise manufacture false "leaked on exception path" findings.

Path enumeration (:func:`enumerate_paths`) walks the graph depth-first
with every back edge taken at most once -- i.e. loops contribute their
zero- and one-iteration unrollings -- and a hard cap on the number of
paths; callers must treat a truncated enumeration as "no findings" rather
than report from a partial view.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["Block", "Edge", "CFG", "build_cfg", "enumerate_paths", "Path"]

#: Edge kinds that represent a *decision* (several successors exist and
#: runtime state picks one).  ``back`` is a loop re-entry; ``case`` /
#: ``nomatch`` come from ``match`` statements.
DECISION_KINDS = frozenset({"true", "false", "loop", "exit", "case", "nomatch", "back"})


class Edge:
    """A directed CFG edge; ``cond`` is the controlling expression, if any."""

    __slots__ = ("src", "dst", "kind", "cond")

    def __init__(self, src: "Block", dst: "Block", kind: str, cond: ast.expr | None):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.cond = cond

    def describe(self) -> str:
        where = f"L{self.src.line}" if self.src.line else self.src.label
        if self.kind in ("true", "false"):
            return f"{where}: branch {self.kind}"
        if self.kind == "loop":
            return f"{where}: enter loop"
        if self.kind == "exit":
            return f"{where}: skip/leave loop"
        if self.kind == "back":
            return f"{where}: loop again"
        if self.kind == "exc":
            return f"{where}: raises"
        if self.kind == "return":
            return f"{where}: return"
        return where

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge({self.src.label}->{self.dst.label}, {self.kind})"


class Block:
    """One CFG node: a single statement, or a synthetic join/entry/exit."""

    __slots__ = ("id", "stmt", "label", "succs", "preds")

    def __init__(self, id: int, stmt: ast.stmt | None, label: str):
        self.id = id
        self.stmt = stmt
        self.label = label
        self.succs: list[Edge] = []
        self.preds: list[Edge] = []

    @property
    def line(self) -> int | None:
        return getattr(self.stmt, "lineno", None)

    @property
    def col(self) -> int:
        return getattr(self.stmt, "col_offset", 0)

    def owned_nodes(self) -> list[ast.AST]:
        """The AST this block *executes* (head exprs for compound stmts)."""
        s = self.stmt
        if s is None:
            return []
        if isinstance(s, (ast.If, ast.While)):
            return [s.test]
        if isinstance(s, (ast.For, ast.AsyncFor)):
            return [s.target, s.iter]
        if isinstance(s, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in s.items]
        if isinstance(s, ast.Match):
            return [s.subject]
        if isinstance(s, ast.Try):
            return []
        if isinstance(s, ast.ExceptHandler):
            return [s.type] if s.type is not None else []
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        return [s]

    def walk_owned(self) -> Iterator[ast.AST]:
        for node in self.owned_nodes():
            yield from ast.walk(node)

    def describe(self) -> str:
        if self.stmt is None:
            return self.label
        return f"{self.label}@L{self.line}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.describe()})"


class CFG:
    """Control-flow graph of one function definition."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str):
        self.func = func
        self.qualname = qualname
        self.blocks: list[Block] = []
        self.entry = self._block(None, "entry")
        self.exit = self._block(None, "exit")
        self.raise_exit = self._block(None, "raise-exit")

    def _block(self, stmt: ast.stmt | None, label: str) -> Block:
        b = Block(len(self.blocks), stmt, label)
        self.blocks.append(b)
        return b

    def edge(self, src: Block, dst: Block, kind: str, cond: ast.expr | None = None) -> Edge:
        e = Edge(src, dst, kind, cond)
        src.succs.append(e)
        dst.preds.append(e)
        return e


# --------------------------------------------------------------------------
# Builder
# --------------------------------------------------------------------------


class _LoopFrame:
    __slots__ = ("header", "after")

    def __init__(self, header: Block, after: Block):
        self.header = header
        self.after = after


class _TryFrame:
    __slots__ = ("handlers", "catch_all", "finalbody", "exc_channel")

    def __init__(self, handlers: list[Block], catch_all: bool, finalbody: list[ast.stmt]):
        self.handlers = handlers
        self.catch_all = catch_all
        self.finalbody = finalbody
        #: Shared entry block of the exceptional finally copy (built lazily;
        #: all may-raise statements in this try route through the one copy).
        self.exc_channel: Block | None = None


def _may_raise(stmt: ast.stmt, head_nodes: list[ast.AST]) -> bool:
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in head_nodes:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
                return True
    return False


def _is_literal_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is True


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str):
        self.cfg = CFG(func, qualname)
        self.frames: list[_LoopFrame | _TryFrame] = []

    def build(self) -> CFG:
        end = self._seq(self.cfg.func.body, self.cfg.entry, "fall", None)
        if end is not None:
            self.cfg.edge(end, self.cfg.exit, "fall")
        return self.cfg

    # -- statement sequencing ----------------------------------------------

    def _seq(
        self,
        stmts: list[ast.stmt],
        cursor: Block | None,
        kind: str,
        cond: ast.expr | None,
    ) -> Block | None:
        """Chain ``stmts`` after ``cursor``; returns the open end (or None
        when every path through the sequence terminated abruptly)."""
        first = True
        for stmt in stmts:
            if cursor is None:
                break
            cursor = self._stmt(stmt, cursor, kind if first else "fall", cond if first else None)
            first = False
        if first and cursor is not None and kind != "fall":
            # Empty sequence on a branch: materialize the edge via a join.
            join = self.cfg._block(None, "join")
            self.cfg.edge(cursor, join, kind, cond)
            return join
        return cursor

    def _simple(self, stmt: ast.stmt, cursor: Block, kind: str, cond: ast.expr | None) -> Block:
        b = self.cfg._block(stmt, type(stmt).__name__.lower())
        self.cfg.edge(cursor, b, kind, cond)
        if _may_raise(stmt, b.owned_nodes()):
            self._propagate_exception(b)
        return b

    def _stmt(
        self, stmt: ast.stmt, cursor: Block, kind: str, cond: ast.expr | None
    ) -> Block | None:
        if isinstance(stmt, ast.If):
            return self._if(stmt, cursor, kind, cond)
        if isinstance(stmt, ast.While):
            return self._while(stmt, cursor, kind, cond)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, cursor, kind, cond)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, cursor, kind, cond)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            b = self._simple(stmt, cursor, kind, cond)
            return self._seq(stmt.body, b, "fall", None)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, cursor, kind, cond)
        if isinstance(stmt, ast.Return):
            b = self._simple(stmt, cursor, kind, cond)
            self._unwind(b, "return", None)
            return None
        if isinstance(stmt, ast.Raise):
            # _simple already routed the raise to handlers / raise_exit.
            self._simple(stmt, cursor, kind, cond)
            return None
        if isinstance(stmt, ast.Break):
            b = self._simple(stmt, cursor, kind, cond)
            self._unwind(b, "break", self._innermost_loop())
            return None
        if isinstance(stmt, ast.Continue):
            b = self._simple(stmt, cursor, kind, cond)
            self._unwind(b, "continue", self._innermost_loop())
            return None
        # FunctionDef / ClassDef / Assign / Expr / Import / ... : one block.
        return self._simple(stmt, cursor, kind, cond)

    # -- compound statements -----------------------------------------------

    def _if(self, stmt: ast.If, cursor: Block, kind: str, cond: ast.expr | None) -> Block | None:
        head = self._simple(stmt, cursor, kind, cond)
        after = self.cfg._block(None, "join")
        t_end = self._seq(stmt.body, head, "true", stmt.test)
        if t_end is not None:
            self.cfg.edge(t_end, after, "fall")
        if stmt.orelse:
            f_end = self._seq(stmt.orelse, head, "false", stmt.test)
            if f_end is not None:
                self.cfg.edge(f_end, after, "fall")
        else:
            self.cfg.edge(head, after, "false", stmt.test)
        return after if after.preds else None

    def _while(
        self, stmt: ast.While, cursor: Block, kind: str, cond: ast.expr | None
    ) -> Block | None:
        header = self._simple(stmt, cursor, kind, cond)
        after = self.cfg._block(None, "loop-exit")
        self.frames.append(_LoopFrame(header, after))
        body_end = self._seq(stmt.body, header, "true", stmt.test)
        if body_end is not None:
            self.cfg.edge(body_end, header, "back")
        self.frames.pop()
        if not _is_literal_true(stmt.test):
            if stmt.orelse:
                oe = self._seq(stmt.orelse, header, "false", stmt.test)
                if oe is not None:
                    self.cfg.edge(oe, after, "fall")
            else:
                self.cfg.edge(header, after, "false", stmt.test)
        return after if after.preds else None

    def _for(
        self, stmt: ast.For | ast.AsyncFor, cursor: Block, kind: str, cond: ast.expr | None
    ) -> Block | None:
        header = self._simple(stmt, cursor, kind, cond)
        after = self.cfg._block(None, "loop-exit")
        self.frames.append(_LoopFrame(header, after))
        body_end = self._seq(stmt.body, header, "loop", stmt.iter)
        if body_end is not None:
            self.cfg.edge(body_end, header, "back")
        self.frames.pop()
        if stmt.orelse:
            oe = self._seq(stmt.orelse, header, "exit", stmt.iter)
            if oe is not None:
                self.cfg.edge(oe, after, "fall")
        else:
            self.cfg.edge(header, after, "exit", stmt.iter)
        return after if after.preds else None

    def _match(
        self, stmt: ast.Match, cursor: Block, kind: str, cond: ast.expr | None
    ) -> Block | None:
        head = self._simple(stmt, cursor, kind, cond)
        after = self.cfg._block(None, "join")
        for case in stmt.cases:
            c_end = self._seq(case.body, head, "case", case.guard or stmt.subject)
            if c_end is not None:
                self.cfg.edge(c_end, after, "fall")
        self.cfg.edge(head, after, "nomatch", stmt.subject)
        return after if after.preds else None

    def _try(self, stmt: ast.Try, cursor: Block, kind: str, cond: ast.expr | None) -> Block | None:
        # Hop through a synthetic block so the incoming branch edge does not
        # land directly on the first body statement (keeps kinds uniform).
        if kind != "fall":
            hop = self.cfg._block(None, "try")
            self.cfg.edge(cursor, hop, kind, cond)
            cursor = hop
        after = self.cfg._block(None, "join")
        handler_entries = [
            self.cfg._block(h, f"except@{h.lineno}") for h in stmt.handlers
        ]
        catch_all = any(
            h.type is None
            or (isinstance(h.type, ast.Name) and h.type.id in ("Exception", "BaseException"))
            for h in stmt.handlers
        )
        body_frame = _TryFrame(handler_entries, catch_all, stmt.finalbody)
        self.frames.append(body_frame)
        body_end = self._seq(stmt.body, cursor, "fall", None)
        self.frames.pop()

        # Handlers and orelse run with the body's handlers out of scope but
        # still under this try's finally.
        protect: _TryFrame | None = None
        if stmt.finalbody:
            protect = _TryFrame([], False, stmt.finalbody)
            self.frames.append(protect)

        def _through_finally(end: Block | None) -> None:
            if end is None:
                return
            if stmt.finalbody:
                # The normal-completion finally copy runs outside this
                # try's own protection.
                saved = self.frames
                self.frames = [f for f in saved if f is not protect]
                end = self._seq(stmt.finalbody, end, "fall", None)
                self.frames = saved
                if end is None:
                    return
            self.cfg.edge(end, after, "fall")

        if body_end is not None and stmt.orelse:
            body_end = self._seq(stmt.orelse, body_end, "fall", None)
        _through_finally(body_end)

        for h, entry in zip(stmt.handlers, handler_entries):
            h_end = self._seq(h.body, entry, "fall", None)
            _through_finally(h_end)

        if protect is not None:
            self.frames.pop()
        return after if after.preds else None

    # -- abrupt control flow -----------------------------------------------

    def _innermost_loop(self) -> _LoopFrame | None:
        for fr in reversed(self.frames):
            if isinstance(fr, _LoopFrame):
                return fr
        return None

    def _unwind(self, src: Block, kind: str, target: _LoopFrame | None) -> None:
        """Route a ``return``/``break``/``continue`` through pending
        ``finally`` bodies (each gets a fresh copy) to its destination."""
        frames = list(self.frames)
        cursor: Block | None = src
        for i in range(len(frames) - 1, -1, -1):
            fr = frames[i]
            if isinstance(fr, _TryFrame) and fr.finalbody:
                saved = self.frames
                self.frames = frames[:i]
                cursor = self._seq(fr.finalbody, cursor, "fall", None)
                self.frames = saved
                if cursor is None:
                    return  # the finally body itself ended the flow
            if isinstance(fr, _LoopFrame) and fr is target:
                if kind == "break":
                    self.cfg.edge(cursor, fr.after, "fall")
                else:
                    self.cfg.edge(cursor, fr.header, "back")
                return
        if kind == "return":
            self.cfg.edge(cursor, self.cfg.exit, "return")
        elif kind in ("break", "continue"):  # pragma: no cover - syntax error
            self.cfg.edge(cursor, self.cfg.exit, "return")

    def _propagate_exception(self, src: Block) -> None:
        """Connect ``src``'s potential raise to handlers / ``raise_exit``.

        Does not terminate normal flow: the ``exc`` edge models "this
        statement raised *instead of* taking effect".
        """
        frames = list(self.frames)
        self._propagate_from(src, frames, len(frames) - 1)

    def _propagate_from(self, src: Block, frames: list, top: int) -> None:
        for i in range(top, -1, -1):
            fr = frames[i]
            if not isinstance(fr, _TryFrame):
                continue
            for entry in fr.handlers:
                self.cfg.edge(src, entry, "exc")
            if fr.catch_all:
                return
            if fr.finalbody:
                if fr.exc_channel is None:
                    entry = self.cfg._block(None, "finally-exc")
                    fr.exc_channel = entry
                    saved = self.frames
                    self.frames = frames[:i]
                    end = self._seq(fr.finalbody, entry, "fall", None)
                    self.frames = saved
                    if end is not None:
                        # The exception keeps propagating outward after
                        # the finally body ran.
                        self._propagate_from(end, frames, i - 1)
                self.cfg.edge(src, fr.exc_channel, "exc")
                return
        self.cfg.edge(src, self.cfg.raise_exit, "exc")


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str | None = None) -> CFG:
    """Build the CFG of one function definition (no nested descent)."""
    return _Builder(func, qualname or func.name).build()


# --------------------------------------------------------------------------
# Path enumeration
# --------------------------------------------------------------------------


class Path:
    """One entry-to-exit walk: the edge list plus derived views."""

    __slots__ = ("edges",)

    def __init__(self, edges: list[Edge]):
        self.edges = edges

    @property
    def blocks(self) -> list[Block]:
        if not self.edges:
            return []
        return [self.edges[0].src] + [e.dst for e in self.edges]

    @property
    def exceptional(self) -> bool:
        return bool(self.edges) and self.edges[-1].dst.label == "raise-exit"

    def describe(self, limit: int = 14) -> str:
        steps = [e.describe() for e in self.edges if e.kind in DECISION_KINDS or e.kind in ("return", "exc")]
        if not steps:
            steps = ["straight-line"]
        if len(steps) > limit:
            steps = steps[: limit - 1] + ["..."]
        return " -> ".join(steps)


def enumerate_paths(
    cfg: CFG,
    max_paths: int = 400,
    include_exc: bool = False,
) -> tuple[list[Path], bool]:
    """All entry->exit paths, each back edge taken at most once.

    Returns ``(paths, complete)``; when ``complete`` is False the cap was
    hit and callers must not report findings from the partial set.
    """
    paths: list[Path] = []
    complete = True
    max_len = 2 * len(cfg.blocks) + 16
    terminal = (cfg.exit, cfg.raise_exit)

    def dfs(block: Block, trail: list[Edge], back_used: frozenset[int]) -> None:
        nonlocal complete
        if not complete:
            return
        if block in terminal:
            if len(paths) >= max_paths:
                complete = False
                return
            paths.append(Path(list(trail)))
            return
        if len(trail) > max_len:
            return  # abandoned: loop unrolling dead end
        for e in block.succs:
            if e.kind == "exc" and not include_exc:
                continue
            if e.kind == "back":
                if id(e) in back_used:
                    continue
                trail.append(e)
                dfs(e.dst, trail, back_used | {id(e)})
                trail.pop()
            else:
                trail.append(e)
                dfs(e.dst, trail, back_used)
                trail.pop()

    dfs(cfg.entry, [], frozenset())
    return paths, complete
