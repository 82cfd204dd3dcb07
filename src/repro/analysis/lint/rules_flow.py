"""CFG/dataflow rules: durability ordering and epoch discipline.

Each rule here encodes the bug class one of PRs 7–9 fixed by hand, as a
property over the per-function CFG (:mod:`.cfg`) plus, where the
property is transitive, the project call graph (:mod:`.symbols`):

``D1`` (durability-ordering)
    In ``DurableIndex`` methods, the WAL ``append`` must **dominate**
    the inner-index mutation (a call to an ``apply``/``apply_fn``
    parameter, a mutator on ``self.inner``/``self._inner``, an
    ``apply_across`` hook of another class or the ``apply_grouped``
    helper that calls one) on every path.  Mutations inside ``lambda``
    bodies are argument *values*, not executions, and are ignored.

``D2`` (durability-ordering)
    In ``src/repro/persist/`` functions that write a commit point
    (``atomic_write_json`` / ``write_manifest`` /
    ``write_service_manifest``), the commit must dominate every
    ``unlink``/``rmtree``/``remove``/``rmdir`` — stale generations may
    only disappear after the manifest stops referencing them.
    Pure-teardown functions (no commit call) are out of scope.

``E1`` (epoch-discipline)
    Values derived from routing-table ordinals (``route``,
    ``route_key``, ``ordinal_of``) or ``.shards`` views go **stale**
    when any call that can bump the topology epoch (transitively
    reaches ``split_shard``/``merge_shards``) executes; using a stale
    value afterwards is the dataflow generalization of P4.  Stable-id
    accessors (``id_at``/``shard_by_id``/...) launder their arguments:
    shard *ids* survive epoch bumps.  Same file scope as P4 (service
    layer minus the topology owners).
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping, Sequence

from repro.analysis.lint.base import (
    Violation,
    in_persist_scope,
    in_src_scope,
    in_topology_scope,
)
from repro.analysis.lint.cfg import (
    CFG,
    Node,
    build_cfg,
    dotted_name,
    iter_functions,
    node_asts,
    walk_no_nested,
)
from repro.analysis.lint.dataflow import forward
from repro.analysis.lint.symbols import (
    EPOCH_BUMP_SEEDS,
    FileUnit,
    ProjectIndex,
)

def check_file(unit: FileUnit, project: ProjectIndex) -> Iterator[Violation]:
    """Run every flow rule whose file scope covers this unit."""
    yield from _check_d1(unit)
    yield from _check_d2(unit)
    yield from _check_e1(unit, project)


# ---------------------------------------------------------------------------
# shared helpers


def _calls_at(node: Node) -> Iterator[ast.Call]:
    for sub in node_asts(node):
        if isinstance(sub, ast.Call):
            yield sub


def _call_bare_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _load_names(exprs: Sequence[ast.AST]) -> set[str]:
    """Names read (Load context) in the given ASTs, nested defs excluded."""
    out: set[str] = set()
    for expr in exprs:
        for sub in walk_no_nested(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
    return out


def _store_names(target: ast.expr) -> list[str]:
    """Simple names bound by an assignment/loop target."""
    out: list[str] = []
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.append(sub.id)
    return out


def _node_defs(node: Node) -> tuple[list[str], list[ast.AST]]:
    """(names bound at this node, the value expressions they come from)."""
    stmt = node.stmt
    names: list[str] = []
    values: list[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            names.extend(_store_names(t))
        values.append(stmt.value)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        names.extend(_store_names(stmt.target))
        values.append(stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        names.extend(_store_names(stmt.target))
        values.append(stmt.value)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        names.extend(_store_names(stmt.target))
        values.append(stmt.iter)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.extend(_store_names(item.optional_vars))
            values.append(item.context_expr)
    for part in node.parts:
        for sub in walk_no_nested(part):
            if isinstance(sub, ast.NamedExpr):
                names.extend(_store_names(sub.target))
                values.append(sub.value)
    return names, values


def _dominating(cfg: CFG, doms: list[set[int]], target: int,
                candidates: set[int]) -> bool:
    return bool(candidates & doms[target])


# ---------------------------------------------------------------------------
# D1 — log-before-apply


_D1_MUTATORS = frozenset(
    {"insert", "delete", "insert_many", "delete_many", "apply_many"})
_D1_APPLY_PARAMS = frozenset({"apply", "apply_fn"})
#: Receivers of ``apply_across`` calls that reach the wrapper's own
#: (logging) hook rather than an inner index's.
_D1_OWN_HOOK = frozenset({"self", "cls", "DurableIndex"})


def _check_d1(unit: FileUnit) -> Iterator[Violation]:
    if not in_src_scope(unit.relpath):
        return
    if "DurableIndex" not in unit.source:
        return
    for class_name, func in iter_functions(unit.tree):
        if class_name != "DurableIndex":
            continue
        params = {
            a.arg for a in (func.args.args + func.args.kwonlyargs
                            + func.args.posonlyargs)
        }
        apply_params = params & _D1_APPLY_PARAMS
        cfg = build_cfg(func)
        append_nodes: set[int] = set()
        apply_sites: list[tuple[int, int, str]] = []
        for node in cfg.nodes:
            for call in _calls_at(node):
                f = call.func
                if isinstance(f, ast.Attribute) and f.attr == "append":
                    recv = dotted_name(f.value)
                    if recv is not None and "wal" in recv.split(".")[-1].lower():
                        append_nodes.add(node.idx)
                if isinstance(f, ast.Name) and f.id in apply_params:
                    apply_sites.append((node.idx, call.lineno, f"{f.id}()"))
                if isinstance(f, ast.Name) and f.id == "apply_grouped":
                    apply_sites.append((node.idx, call.lineno, f"{f.id}()"))
                if isinstance(f, ast.Attribute) and f.attr == "apply_across":
                    recv = dotted_name(f.value)
                    if recv not in _D1_OWN_HOOK:
                        apply_sites.append(
                            (node.idx, call.lineno,
                             f"{recv or '<expr>'}.apply_across()"))
                if isinstance(f, ast.Attribute) and f.attr in _D1_MUTATORS:
                    recv = dotted_name(f.value)
                    if recv in ("self.inner", "self._inner"):
                        apply_sites.append(
                            (node.idx, call.lineno, f"{recv}.{f.attr}()"))
        if not apply_sites:
            continue
        doms = cfg.dominators()
        for idx, line, desc in apply_sites:
            if not _dominating(cfg, doms, idx, append_nodes):
                yield Violation(
                    "D1", "durability-ordering", unit.relpath, line,
                    f"{desc} applies a mutation on a path with no "
                    "dominating WAL append; a crash here loses an op the "
                    "caller may have observed (log-before-apply)",
                )


# ---------------------------------------------------------------------------
# D2 — commit-point-last


_D2_COMMITS = frozenset(
    {"atomic_write_json", "write_manifest", "write_service_manifest"})
_D2_REMOVALS = frozenset({"unlink", "rmtree", "remove", "rmdir"})


def _check_d2(unit: FileUnit) -> Iterator[Violation]:
    if not in_persist_scope(unit.relpath):
        return
    for _cls, func in iter_functions(unit.tree):
        cfg = build_cfg(func)
        commit_nodes: set[int] = set()
        removal_sites: list[tuple[int, int, str]] = []
        for node in cfg.nodes:
            for call in _calls_at(node):
                name = _call_bare_name(call)
                if name in _D2_COMMITS:
                    commit_nodes.add(node.idx)
                elif name in _D2_REMOVALS:
                    removal_sites.append((node.idx, call.lineno, name))
        if not commit_nodes or not removal_sites:
            # A function that never commits is pure teardown (or pure
            # write): stale-generation ordering does not apply.
            continue
        doms = cfg.dominators()
        for idx, line, name in removal_sites:
            if not _dominating(cfg, doms, idx, commit_nodes):
                yield Violation(
                    "D2", "durability-ordering", unit.relpath, line,
                    f"{name}() removes on-disk state on a path not "
                    "dominated by the atomic manifest commit; a crash "
                    "between them strands recovery without a complete "
                    "generation (commit-point-last)",
                )


# ---------------------------------------------------------------------------
# E1 — epoch discipline (taint: ordinal-derived values across bumps)


_E1_SOURCES = frozenset({"route", "route_key", "ordinal_of"})
# Stable-id accessors launder their arguments: the returned shard *id*
# survives epoch bumps even when the ordinal used to look it up does
# not, so their whole call subtree is epoch-stable.
_E1_STABLE = frozenset({"id_at", "id_of", "shard_id", "shard_by_id"})
_E1_TAINTED = 1
_E1_STALE = 2


def _e1_walk(value: ast.AST) -> Iterator[ast.AST]:
    """``walk_no_nested``, additionally pruning stable-accessor calls."""
    stack: list[ast.AST] = [value]
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.Lambda, ast.FunctionDef,
                            ast.AsyncFunctionDef)):
            continue
        if (isinstance(sub, ast.Call)
                and _call_bare_name(sub) in _E1_STABLE):
            continue
        yield sub
        stack.extend(ast.iter_child_nodes(sub))


def _e1_rhs_sources(values: Sequence[ast.AST]) -> bool:
    for value in values:
        for sub in _e1_walk(value):
            if (isinstance(sub, ast.Call)
                    and _call_bare_name(sub) in _E1_SOURCES):
                return True
            if (isinstance(sub, ast.Attribute) and sub.attr == "shards"
                    and isinstance(sub.ctx, ast.Load)):
                return True
    return False


def _e1_load_names(values: Sequence[ast.AST]) -> set[str]:
    """Loaded names feeding a definition, minus laundered subtrees."""
    out: set[str] = set()
    for value in values:
        for sub in _e1_walk(value):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
    return out


def _check_e1(unit: FileUnit, project: ProjectIndex) -> Iterator[Violation]:
    if not in_topology_scope(unit.relpath):
        return
    bumpers = project.family(EPOCH_BUMP_SEEDS) | EPOCH_BUMP_SEEDS
    for _cls, func in iter_functions(unit.tree):
        cfg = build_cfg(func)
        bump_nodes = {
            node.idx
            for node in cfg.nodes
            for call in _calls_at(node)
            if _call_bare_name(call) in bumpers
        }
        if not bump_nodes:
            continue

        def transfer(node: Node, state: Mapping[str, int],
                     kind: str) -> Mapping[str, int]:
            new = dict(state)
            if node.idx in bump_nodes:
                for var, val in new.items():
                    if val == _E1_TAINTED:
                        new[var] = _E1_STALE
            names, values = _node_defs(node)
            if names:
                loads = _e1_load_names(values)
                derived = _e1_rhs_sources(values) or any(
                    state.get(v, 0) >= _E1_TAINTED for v in loads
                )
                for var in names:
                    if derived:
                        new[var] = _E1_TAINTED
                    else:
                        new.pop(var, None)
            return new

        in_states = forward(cfg, transfer)
        reported: set[tuple[int, str]] = set()
        for node in cfg.nodes:
            state = in_states[node.idx]
            for var in _load_names(list(node.parts)):
                if state.get(var, 0) == _E1_STALE:
                    key = (node.line, var)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Violation(
                        "E1", "epoch-discipline", unit.relpath, node.line,
                        f"'{var}' derives from routing ordinals/.shards "
                        "read before a call that can bump the topology "
                        "epoch (split/merge); re-derive it from the "
                        "current table instead of reusing it",
                    )
