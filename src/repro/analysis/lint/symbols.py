"""Project-wide symbol table and heuristic call graph.

The flow rules need one *transitive* fact no single file can supply:
which calls can bump the routing-table epoch (the **epoch bumpers**:
transitively reach ``split_shard``/``merge_shards``) — E1.

The call graph is name-based: a call ``x.f(...)`` or ``f(...)`` is an
edge to every project function named ``f``.  That is deliberately
conservative in the direction these rules need — a family can only grow,
so "this call may bump the epoch" over-approximates — and it
needs no type inference, which keeps whole-repo analysis well inside the
CI time budget.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.lint.base import collect_aliases, posix
from repro.analysis.lint.cfg import iter_functions, walk_no_nested


@dataclass
class FunctionInfo:
    """One function definition and the bare names it calls."""

    relpath: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class FileUnit:
    """One parsed source file (the engine's unit of work)."""

    relpath: str
    source: str
    tree: ast.Module
    aliases: dict[str, str]

    @classmethod
    def parse(cls, relpath: str, source: str) -> "FileUnit":
        tree = ast.parse(source)
        return cls(relpath=posix(relpath), source=source, tree=tree,
                   aliases=collect_aliases(tree))


class ProjectIndex:
    """Symbol table + call graph over every file handed to the engine."""

    def __init__(self, units: list[FileUnit]) -> None:
        self.units = units
        self.functions: list[FunctionInfo] = []
        for unit in units:
            for class_name, func in iter_functions(unit.tree):
                info = FunctionInfo(relpath=unit.relpath,
                                    class_name=class_name, node=func)
                for stmt in func.body:
                    for sub in walk_no_nested(stmt):
                        if isinstance(sub, ast.Call):
                            name = _callee_name(sub)
                            if name is not None:
                                info.calls.add(name)
                self.functions.append(info)

    def family(self, seed_call_names: frozenset[str]) -> frozenset[str]:
        """Names of functions that transitively reach a seed call.

        A function joins the family if it *is* named like a seed, calls
        a seed, or calls another family member (by name).  Fixpoint over
        the name-based call graph.
        """
        members: set[str] = set()
        changed = True
        while changed:
            changed = False
            reach = seed_call_names | members
            for info in self.functions:
                if info.name in members:
                    continue
                if info.name in seed_call_names or info.calls & reach:
                    members.add(info.name)
                    changed = True
        return frozenset(members)


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


#: Seed call names for the epoch-bumper family.
EPOCH_BUMP_SEEDS = frozenset({"split_shard", "merge_shards"})
