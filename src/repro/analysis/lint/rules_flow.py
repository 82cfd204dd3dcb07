"""CFG/dataflow rules: durability ordering, epoch discipline, lifecycle.

Each rule here encodes the bug class one of PRs 7–9 fixed by hand, as a
property over the per-function CFG (:mod:`.cfg`) plus, where the
property is transitive, the project call graph (:mod:`.symbols`):

``D1`` (durability-ordering)
    In ``DurableIndex`` methods, the WAL ``append`` must **dominate**
    the inner-index mutation (a call to an ``apply``/``apply_fn``
    parameter or a mutator on ``self.inner``/``self._inner``) on every
    path.  Mutations inside ``lambda`` bodies are argument *values*,
    not executions, and are ignored.

``D2`` (durability-ordering)
    In ``src/repro/persist/`` functions that write a commit point
    (``atomic_write_json`` / ``write_manifest`` /
    ``write_service_manifest``), the commit must dominate every
    ``unlink``/``rmtree``/``remove``/``rmdir`` — stale generations may
    only disappear after the manifest stops referencing them.
    Pure-teardown functions (no commit call) are out of scope.

``D3`` (durability-ordering)
    In ``src/repro/service/executor.py``, a batch acknowledgement
    (``*.send(("ok", ...))`` / ``*.send(("bye",))``) must be dominated
    by a call into the fsync family (functions transitively reaching
    ``os.fsync`` or a ``.sync()`` method): an acked batch promises its
    WAL frames are durable.

``E1`` (epoch-discipline)
    Values derived from routing-table ordinals (``route``,
    ``route_key``, ``ordinal_of``) or ``.shards`` views go **stale**
    when any call that can bump the topology epoch (transitively
    reaches ``split_shard``/``merge_shards``) executes; using a stale
    value afterwards is the dataflow generalization of P4.  Stable-id
    accessors (``id_at``/``shard_by_id``/...) launder their arguments:
    shard *ids* survive epoch bumps.  Same file scope as P4 (service
    layer minus the topology owners).

``E2`` (epoch-discipline)
    A replay of journalled batches (``replay_shard``/``apply_record``
    on a value derived from a ``_journal`` attribute) must run inside a
    ``suspended_charges``/``suspended_logging`` scope (or a context
    manager transitively built on one, e.g. ``_quiet_wal``) — the
    journal's charges and WAL frames already happened in the worker.

``R1`` (resource-lifecycle)
    Every ``SharedMemory(create=True)`` segment must reach both
    ``close()`` and ``unlink()`` — or escape to another owner — on
    every path out of the function, exception edges included.  The
    segment's own ``close``/``unlink`` calls are assumed not to raise;
    attaches (no ``create=True``) are owned by the creator and only
    need their local ``close``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping, Sequence

from repro.analysis.lint.base import (
    Violation,
    in_persist_scope,
    in_service_scope,
    in_src_scope,
    in_topology_scope,
    is_executor_module,
)
from repro.analysis.lint.cfg import (
    CFG,
    EXC,
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
    FSYNC_SEEDS,
    SUSPEND_SEEDS,
    FileUnit,
    ProjectIndex,
)

def check_file(unit: FileUnit, project: ProjectIndex) -> Iterator[Violation]:
    """Run every flow rule whose file scope covers this unit."""
    yield from _check_d1(unit)
    yield from _check_d2(unit)
    yield from _check_d3(unit, project)
    yield from _check_e1(unit, project)
    yield from _check_e2(unit, project)
    yield from _check_r1(unit)


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
# D3 — fsync-before-ack


_D3_ACKS = frozenset({"ok", "bye"})


def _ack_payload(call: ast.Call) -> str | None:
    """The ack tag if this is ``*.send(("ok"|"bye", ...))``."""
    f = call.func
    if not (isinstance(f, ast.Attribute) and f.attr == "send"):
        return None
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Tuple) and arg.elts:
        first = arg.elts[0]
        if (isinstance(first, ast.Constant) and isinstance(first.value, str)
                and first.value in _D3_ACKS):
            return first.value
    return None


def _check_d3(unit: FileUnit, project: ProjectIndex) -> Iterator[Violation]:
    if not is_executor_module(unit.relpath):
        return
    fsync_family = project.family(FSYNC_SEEDS) | FSYNC_SEEDS
    for _cls, func in iter_functions(unit.tree):
        cfg = build_cfg(func)
        sync_nodes: set[int] = set()
        ack_sites: list[tuple[int, int, str]] = []
        for node in cfg.nodes:
            for call in _calls_at(node):
                tag = _ack_payload(call)
                if tag is not None:
                    ack_sites.append((node.idx, call.lineno, tag))
                name = _call_bare_name(call)
                if name in fsync_family:
                    sync_nodes.add(node.idx)
        if not ack_sites:
            continue
        doms = cfg.dominators()
        for idx, line, tag in ack_sites:
            if not _dominating(cfg, doms, idx, sync_nodes):
                yield Violation(
                    "D3", "durability-ordering", unit.relpath, line,
                    f'send(("{tag}", ...)) acknowledges a batch on a path '
                    "with no dominating WAL fsync; the parent would treat "
                    "frames as durable that a crash can still lose "
                    "(fsync-before-ack)",
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


# ---------------------------------------------------------------------------
# E2 — suspended-context discipline (journal replay)


_E2_REPLAYS = frozenset({"replay_shard", "apply_record"})
_E2_JOURNALS = frozenset({"_journal", "journal"})
_E2_TAINTED = 1


def _e2_rhs_sources(values: Sequence[ast.AST]) -> bool:
    for value in values:
        for sub in walk_no_nested(value):
            if isinstance(sub, ast.Attribute) and sub.attr in _E2_JOURNALS:
                return True
    return False


def _check_e2(unit: FileUnit, project: ProjectIndex) -> Iterator[Violation]:
    if not in_service_scope(unit.relpath):
        return
    suspenders = project.family(SUSPEND_SEEDS) | SUSPEND_SEEDS
    for _cls, func in iter_functions(unit.tree):
        if not any(
            isinstance(sub, ast.Attribute) and sub.attr in _E2_JOURNALS
            for stmt in func.body
            for sub in walk_no_nested(stmt)
        ):
            continue
        cfg = build_cfg(func)

        def transfer(node: Node, state: Mapping[str, int],
                     kind: str) -> Mapping[str, int]:
            new = dict(state)
            names, values = _node_defs(node)
            if names:
                loads = _load_names(values)
                derived = _e2_rhs_sources(values) or any(
                    state.get(v, 0) >= _E2_TAINTED for v in loads
                )
                for var in names:
                    if derived:
                        new[var] = _E2_TAINTED
                    else:
                        new.pop(var, None)
            return new

        in_states = forward(cfg, transfer)
        for node in cfg.nodes:
            state = in_states[node.idx]
            suspended = any(
                label.split(".")[-1] in suspenders
                for label in node.with_scopes
            )
            if suspended:
                continue
            for call in _calls_at(node):
                if _call_bare_name(call) not in _E2_REPLAYS:
                    continue
                arg_loads = _load_names(list(call.args))
                if any(state.get(v, 0) >= _E2_TAINTED for v in arg_loads):
                    yield Violation(
                        "E2", "epoch-discipline", unit.relpath, call.lineno,
                        "journalled batches replayed outside a "
                        "suspended_charges/suspended_logging scope; the "
                        "worker already took these charges and WAL frames, "
                        "replaying them live double-counts both",
                    )


# ---------------------------------------------------------------------------
# R1 — SharedMemory lifecycle


_R1_MISSING_UNLINK = 1
_R1_MISSING_CLOSE = 2
_R1_MISSING_BOTH = 3

_R1_MISSING_TEXT = {
    _R1_MISSING_UNLINK: "unlink()",
    _R1_MISSING_CLOSE: "close()",
    _R1_MISSING_BOTH: "close() and unlink()",
}


def _shm_creation(node: Node) -> str | None:
    """Target name if this node binds ``v = SharedMemory(create=True)``."""
    stmt = node.stmt
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None
    if not (isinstance(target, ast.Name) and isinstance(value, ast.Call)):
        return None
    if _call_bare_name(value) != "SharedMemory":
        return None
    for kw in value.keywords:
        if (kw.arg == "create" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True):
            return target.id
    return None


def _r1_node_effects(node: Node, tracked: set[str]) -> list[tuple[str, str]]:
    """Effects on tracked vars: (op, var) with op in create/close/unlink/
    escape/kill."""
    effects: list[tuple[str, str]] = []
    created = _shm_creation(node)
    if created is not None:
        effects.append(("create", created))
    guarded: set[int] = set()   # id() of Name nodes in benign positions
    for sub in node_asts(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            guarded.add(id(sub.value))
        if isinstance(sub, ast.Compare):
            operands = [sub.left, *sub.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None
                   for o in operands):
                for o in operands:
                    if isinstance(o, ast.Name):
                        guarded.add(id(o))
    for sub in node_asts(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            recv = sub.func.value
            if isinstance(recv, ast.Name) and recv.id in tracked:
                if sub.func.attr == "close":
                    effects.append(("close", recv.id))
                    continue
                if sub.func.attr == "unlink":
                    effects.append(("unlink", recv.id))
                    continue
    for sub in node_asts(node):
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                and sub.id in tracked and id(sub) not in guarded
                and sub.id != created):
            effects.append(("escape", sub.id))
    names, _values = _node_defs(node)
    for var in names:
        if var in tracked and var != created:
            effects.append(("kill", var))
    return effects


def _check_r1(unit: FileUnit) -> Iterator[Violation]:
    if not in_src_scope(unit.relpath):
        return
    if "SharedMemory" not in unit.source:
        return
    for _cls, func in iter_functions(unit.tree):
        cfg = build_cfg(func)
        tracked: set[str] = set()
        created_at: dict[str, int] = {}
        for node in cfg.nodes:
            var = _shm_creation(node)
            if var is not None:
                tracked.add(var)
                created_at.setdefault(var, node.line)
        if not tracked:
            continue
        effects = {
            node.idx: _r1_node_effects(node, tracked) for node in cfg.nodes
        }

        def transfer(node: Node, state: Mapping[str, int],
                     kind: str) -> Mapping[str, int]:
            new = dict(state)
            for op, var in effects[node.idx]:
                cur = new.get(var, 0)
                if op == "create":
                    # The creating call raised on the exception edge:
                    # nothing was created there.
                    if kind != EXC:
                        new[var] = _R1_MISSING_BOTH
                elif op in ("close", "unlink"):
                    if kind == EXC:
                        # The segment's own close()/unlink() are assumed
                        # not to raise, so this exception edge cannot
                        # actually be taken by the cleanup call itself:
                        # don't report the half-cleaned state along it.
                        new[var] = 0
                    elif op == "close":
                        new[var] = (_R1_MISSING_UNLINK
                                    if cur == _R1_MISSING_BOTH else 0)
                    else:
                        new[var] = (_R1_MISSING_CLOSE
                                    if cur == _R1_MISSING_BOTH else 0)
                else:  # escape / kill: another owner is responsible now
                    new[var] = 0
            return new

        in_states = forward(cfg, transfer)
        for exit_idx in (cfg.exit, cfg.raise_exit):
            state = in_states[exit_idx]
            exit_kind = ("an exception path"
                         if exit_idx == cfg.raise_exit else "a return path")
            for var, val in sorted(state.items()):
                if val > 0 and var in created_at:
                    yield Violation(
                        "R1", "resource-lifecycle", unit.relpath,
                        created_at[var],
                        f"SharedMemory segment '{var}' can leave the "
                        f"function on {exit_kind} without "
                        f"{_R1_MISSING_TEXT[val]}; the segment leaks until "
                        "process exit (and the resource tracker warns)",
                    )
