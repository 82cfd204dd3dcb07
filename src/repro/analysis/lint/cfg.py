"""Per-function control-flow graphs with dominance (reprolint engine).

:func:`build_cfg` lowers one function body to a statement-level CFG:

* every simple statement is one node; compound statements contribute a
  *header* node (the part that evaluates before branching — an ``if``
  test, a loop iterator, a ``with`` enter) plus their bodies;
* synthetic ``entry`` / ``exit`` / ``raise`` nodes bracket the graph —
  ``exit`` is the normal return, ``raise`` the exceptional function
  exit;
* any statement that can raise (contains a call, ``raise`` or
  ``assert`` outside nested ``def``/``lambda`` bodies) gets an **exception
  edge** to the innermost reachable ``except`` heads, walking outward
  until a catch-all handler or the nearest ``finally`` head (whose body
  re-propagates onward itself), else the ``raise`` exit;
* every node records the stack of context-manager names whose ``with``
  body encloses it (``node.with_scopes``), so a scope-discipline rule
  can test "runs inside a given context manager".

Deliberate simplifications, chosen to keep ordering rules (``A must
dominate B``) free of false positives: ``return``/``break``/``continue``
do not detour through enclosing ``finally`` blocks, and a ``finally``
body is modelled once with both a normal and an exceptional
continuation.  Both add paths *around* protected regions, never paths
that skip a dominator on the way to a protected operation.

:meth:`CFG.dominators` runs the classic iterative dataflow: ``dom(n) =
{n} ∪ ⋂ dom(preds)``.  Rules use it as "the WAL append dominates the
apply", "the manifest commit dominates the unlink".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

#: Edge kinds: normal fall-through/branch vs exceptional propagation.
NORMAL = "normal"
EXC = "exc"

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class Node:
    """One CFG node: a statement (or header / synthetic marker)."""

    idx: int
    kind: str                       # "entry" | "exit" | "raise" | "stmt" | "except" | "finally"
    line: int
    stmt: ast.stmt | None = None
    #: ASTs evaluated *at this node* (header nodes carry only the header
    #: expressions, never their bodies).
    parts: tuple[ast.AST, ...] = ()
    #: Dotted context-manager callee names of every enclosing ``with``.
    with_scopes: tuple[str, ...] = ()


class CFG:
    """Statement-level control-flow graph of one function."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        #: succ idx -> edge kind; NORMAL wins if both kinds exist.
        self.succs: list[dict[int, str]] = []
        self.preds: list[set[int]] = []
        self.entry: int = -1
        self.exit: int = -1
        self.raise_exit: int = -1

    # ------------------------------------------------------------------
    def add_node(self, kind: str, line: int, stmt: ast.stmt | None = None,
                 parts: Sequence[ast.AST] = (),
                 with_scopes: Sequence[str] = ()) -> int:
        idx = len(self.nodes)
        self.nodes.append(Node(idx=idx, kind=kind, line=line, stmt=stmt,
                               parts=tuple(parts),
                               with_scopes=tuple(with_scopes)))
        self.succs.append({})
        self.preds.append(set())
        return idx

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        existing = self.succs[src].get(dst)
        if existing == NORMAL:
            return
        self.succs[src][dst] = kind if existing is None else NORMAL
        self.preds[dst].add(src)

    # ------------------------------------------------------------------
    def dominators(self) -> list[set[int]]:
        """``dom[n]`` = nodes on *every* path from entry to ``n``.

        Unreachable nodes keep the full node set (vacuously dominated),
        which makes "must be dominated by X" rules skip dead code
        instead of flagging it.
        """
        n = len(self.nodes)
        universe = set(range(n))
        dom: list[set[int]] = [set(universe) for _ in range(n)]
        dom[self.entry] = {self.entry}
        order = self.reverse_postorder()
        changed = True
        while changed:
            changed = False
            for i in order:
                if i == self.entry:
                    continue
                pred_doms = [dom[p] for p in self.preds[i]]
                if not pred_doms:
                    continue
                new = set.intersection(*pred_doms) | {i}
                if new != dom[i]:
                    dom[i] = new
                    changed = True
        return dom

    def reverse_postorder(self) -> list[int]:
        seen: set[int] = set()
        post: list[int] = []

        def visit(start: int) -> None:
            stack: list[tuple[int, Iterator[int]]] = [
                (start, iter(self.succs[start]))
            ]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.succs[succ])))
                        advanced = True
                        break
                if not advanced:
                    post.append(node)
                    stack.pop()

        visit(self.entry)
        return list(reversed(post))


# ---------------------------------------------------------------------------
# raise / lambda-aware walking


def walk_no_nested(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested ``def``/``lambda``
    bodies (their code does not run at this statement)."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                # The def/lambda expression itself is visible (a rule may
                # care that one is *created* here) but not its body.
                yield child
                continue
            stack.append(child)


def node_asts(node: Node) -> Iterator[ast.AST]:
    """Every AST evaluated at this node, nested bodies excluded."""
    for part in node.parts:
        yield from walk_no_nested(part)


def _can_raise(parts: Sequence[ast.AST]) -> bool:
    for part in parts:
        for sub in walk_no_nested(part):
            if isinstance(sub, (ast.Call, ast.Raise, ast.Assert, ast.Await)):
                return True
    return False


def dotted_name(expr: ast.expr) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _context_label(item: ast.withitem) -> str:
    expr = item.context_expr
    target = expr.func if isinstance(expr, ast.Call) else expr
    return dotted_name(target) or "<dynamic>"


# ---------------------------------------------------------------------------
# builder


@dataclass
class _TryFrame:
    handler_heads: list[int]
    catch_all: bool
    finally_head: int | None


@dataclass
class _LoopFrame:
    header: int
    breaks: list[int] = field(default_factory=list)


_CATCH_ALL_NAMES = {"BaseException", "Exception"}


class _Builder:
    def __init__(self, func: _FuncDef) -> None:
        self.cfg = CFG()
        self.func = func
        self.try_stack: list[_TryFrame] = []
        self.loop_stack: list[_LoopFrame] = []
        self.with_stack: list[str] = []

    # ------------------------------------------------------------------
    def build(self) -> CFG:
        cfg = self.cfg
        cfg.entry = cfg.add_node("entry", self.func.lineno)
        cfg.exit = cfg.add_node("exit", self.func.lineno)
        cfg.raise_exit = cfg.add_node("raise", self.func.lineno)
        out = self._block(self.func.body, [cfg.entry])
        for idx in out:
            cfg.add_edge(idx, cfg.exit)
        return cfg

    # ------------------------------------------------------------------
    def _exc_targets(self) -> list[int]:
        """Where an uncaught exception raised *here* can go next."""
        targets: list[int] = []
        for frame in reversed(self.try_stack):
            targets.extend(frame.handler_heads)
            if frame.catch_all:
                return targets
            if frame.finally_head is not None:
                # The exception enters the finally block; the finally
                # body's own re-propagation edges carry it onward from
                # there.  A direct edge past it would model skipping
                # the cleanup, which cannot happen.
                targets.append(frame.finally_head)
                return targets
        targets.append(self.cfg.raise_exit)
        return targets

    def _new_stmt(self, stmt: ast.stmt, parts: Sequence[ast.AST],
                  preds: Sequence[int]) -> int:
        idx = self.cfg.add_node("stmt", stmt.lineno, stmt=stmt, parts=parts,
                                with_scopes=self.with_stack)
        for p in preds:
            self.cfg.add_edge(p, idx)
        if _can_raise(list(parts)):
            for t in self._exc_targets():
                self.cfg.add_edge(idx, t, EXC)
        return idx

    def _block(self, stmts: Sequence[ast.stmt],
               preds: Sequence[int]) -> list[int]:
        cur = list(preds)
        for stmt in stmts:
            cur = self._stmt(stmt, cur)
        return cur

    # ------------------------------------------------------------------
    def _stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            head = self._new_stmt(stmt, [stmt.test], preds)
            body_out = self._block(stmt.body, [head])
            else_out = (self._block(stmt.orelse, [head])
                        if stmt.orelse else [head])
            return body_out + else_out

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header_parts: list[ast.AST] = (
                [stmt.test] if isinstance(stmt, ast.While)
                else [stmt.iter, stmt.target]
            )
            head = self._new_stmt(stmt, header_parts, preds)
            frame = _LoopFrame(header=head)
            self.loop_stack.append(frame)
            body_out = self._block(stmt.body, [head])
            self.loop_stack.pop()
            for idx in body_out:
                cfg.add_edge(idx, head)
            normal_exit = (self._block(stmt.orelse, [head])
                           if stmt.orelse else [head])
            return normal_exit + frame.breaks

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = self._new_stmt(stmt, [i.context_expr for i in stmt.items],
                                  preds)
            labels = [_context_label(i) for i in stmt.items]
            self.with_stack.extend(labels)
            body_out = self._block(stmt.body, [head])
            del self.with_stack[len(self.with_stack) - len(labels):]
            return body_out

        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)

        if isinstance(stmt, ast.Match):
            head = self._new_stmt(stmt, [stmt.subject], preds)
            outs: list[int] = []
            exhaustive = False
            for case in stmt.cases:
                outs.extend(self._block(case.body, [head]))
                if (isinstance(case.pattern, ast.MatchAs)
                        and case.pattern.pattern is None
                        and case.guard is None):
                    exhaustive = True
            if not exhaustive:
                outs.append(head)
            return outs

        if isinstance(stmt, ast.Return):
            parts = [stmt.value] if stmt.value is not None else []
            idx = self._new_stmt(stmt, parts, preds)
            cfg.add_edge(idx, cfg.exit)
            return []

        if isinstance(stmt, ast.Raise):
            idx = self._new_stmt(stmt, [stmt], preds)
            return []

        if isinstance(stmt, ast.Break):
            idx = self._new_stmt(stmt, [], preds)
            if self.loop_stack:
                self.loop_stack[-1].breaks.append(idx)
            return []

        if isinstance(stmt, ast.Continue):
            idx = self._new_stmt(stmt, [], preds)
            if self.loop_stack:
                cfg.add_edge(idx, self.loop_stack[-1].header)
            return []

        # Simple statement (including nested def/class, whose bodies are
        # separate CFGs).
        return [self._new_stmt(stmt, [stmt], preds)]

    # ------------------------------------------------------------------
    def _try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        cfg = self.cfg
        handler_heads = [
            cfg.add_node("except", h.lineno, with_scopes=self.with_stack)
            for h in stmt.handlers
        ]
        finally_head = (
            cfg.add_node("finally", stmt.finalbody[0].lineno,
                         with_scopes=self.with_stack)
            if stmt.finalbody else None
        )
        catch_all = any(self._is_catch_all(h) for h in stmt.handlers)
        frame = _TryFrame(handler_heads=handler_heads, catch_all=catch_all,
                          finally_head=finally_head)
        self.try_stack.append(frame)
        body_out = self._block(stmt.body, preds)
        else_out = (self._block(stmt.orelse, body_out)
                    if stmt.orelse else body_out)
        self.try_stack.pop()
        # Handler bodies: their own exceptions propagate to *outer* frames.
        handler_outs: list[int] = []
        for head, handler in zip(handler_heads, stmt.handlers):
            handler_outs.extend(self._block(handler.body, [head]))
        if finally_head is None:
            return else_out + handler_outs
        for idx in else_out + handler_outs:
            cfg.add_edge(idx, finally_head)
        fin_out = self._block(stmt.finalbody, [finally_head])
        # The finally body is shared by the normal and the exceptional
        # continuation: it falls through *and* may re-propagate.
        for idx in fin_out:
            for t in self._exc_targets():
                cfg.add_edge(idx, t, EXC)
        return fin_out

    @staticmethod
    def _is_catch_all(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        name = dotted_name(handler.type)
        return name is not None and name.split(".")[-1] in _CATCH_ALL_NAMES


def build_cfg(func: _FuncDef) -> CFG:
    """Build the statement-level CFG of one function definition."""
    return _Builder(func).build()


def iter_functions(tree: ast.Module) -> Iterator[tuple[str | None, _FuncDef]]:
    """Yield ``(enclosing class name or None, function def)`` for every
    function in the module, including methods and nested functions."""

    def visit(node: ast.AST, cls: str | None) -> Iterator[
            tuple[str | None, _FuncDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from visit(child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            else:
                yield from visit(child, cls)

    yield from visit(tree, None)
