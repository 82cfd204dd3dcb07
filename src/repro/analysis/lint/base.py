"""Shared lint-engine vocabulary: findings, the rule registry, scoping.

Every rule has a stable short id (``C1`` … ``F2`` ported from the flat
linter, ``D1``/``D2``/``E1`` from the CFG/dataflow engine, ``U1``–``U3``
for suppression hygiene) plus a category string grouping ids that
encode one project invariant.  Suppression comments,
the baseline file and SARIF output all key on the short id.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One lint finding: stable rule id, location, message."""

    rule: str
    category: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule} {self.category}] " \
               f"{self.message}"

    def sort_key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule)


#: rule id -> (category, one-line description).  The single source the
#: suppression parser, SARIF rule table and README catalog draw from.
RULES: dict[str, tuple[str, str]] = {
    "C1": ("charge-discipline",
           "read_page() must pass an explicit sequential= argument"),
    "C2": ("charge-discipline",
           "read_page(sequential=True) literal can never be correct"),
    "C3": ("charge-discipline",
           "a _count() charge under src/ names a literal IOStats field and "
           "counts units, not seconds (no float literal)"),
    "P1": ("protocol-discipline",
           "no hasattr/getattr/setattr against the Index protocol surface"),
    "P2": ("protocol-discipline",
           "an index-like class defining a scalar op must provide its "
           "*_many counterpart"),
    "P3": ("protocol-discipline",
           "every register()-ed backend appears in the conformance suite's "
           "EXPECTED_CAPS"),
    "P4": ("protocol-discipline",
           "service code must not cache .shards state in instance "
           "attributes (epoch-scoped views)"),
    "S1": ("seed-discipline",
           "np.random.default_rng() requires an explicit seed"),
    "S2": ("seed-discipline", "random.Random() requires an explicit seed"),
    "S3": ("seed-discipline",
           "no module-level (hidden global stream) RNG calls"),
    "L1": ("scalar-leak",
           "use repro.api.results.as_scalar, not ad-hoc .item unwrapping "
           "(hasattr/getattr probes anywhere, bare .item() under src/)"),
    "L2": ("scalar-leak",
           "no is/is not test against a True/False literal under src/: a "
           "NumPy predicate returns np.bool_, which is neither"),
    "F1": ("format-discipline",
           "no pickle.load(s) under src/: unchecksummed, code-executing"),
    "F2": ("format-discipline",
           "no binary-write open() outside repro.persist"),
    "D1": ("durability-ordering",
           "in DurableIndex mutators the WAL append must dominate the "
           "inner-index mutation"),
    "D2": ("durability-ordering",
           "in persist/, the atomic manifest commit must dominate any "
           "stale-generation unlink/rmtree"),
    "E1": ("epoch-discipline",
           "values derived from routing ordinals/.shards may not flow "
           "across a call that can bump the topology epoch"),
    "U1": ("suppression", "suppression comment matched no finding"),
    "U2": ("suppression",
           "suppression comment lacks the mandatory '-- reason'"),
    "U3": ("suppression", "suppression names an unknown rule id"),
    "PE": ("parse-error", "file does not parse"),
}

#: The rule ids ported from the flat (pre-CFG) linter — the old engine
#: could express exactly these.  Flow rules are everything else.
PORTED_IDS = frozenset(
    {"C1", "C2", "P1", "P2", "P3", "P4", "S1", "S2", "S3", "L1",
     "F1", "F2"}
)
FLOW_IDS = frozenset({"D1", "D2", "E1"})


# ---------------------------------------------------------------------------
# path scoping (ported verbatim from the flat linter's semantics)


def posix(relpath: str) -> str:
    return relpath.replace("\\", "/")


def in_charge_scope(relpath: str) -> bool:
    """C1/C2 apply to library code outside the storage layer."""
    p = posix(relpath)
    if p.startswith("tests/"):
        return False
    return not p.startswith("src/repro/storage/")


def in_src_scope(relpath: str) -> bool:
    """C3/D1 apply to library code, the storage layer included."""
    return posix(relpath).startswith("src/")


def in_protocol_scope(relpath: str) -> bool:
    """P1/P2/P3 apply outside tests (tests may introspect)."""
    return not posix(relpath).startswith("tests/")


def in_scalar_scope(relpath: str) -> bool:
    """L1 applies everywhere except the helper's home module."""
    return posix(relpath) != "src/repro/api/results.py"


def in_bare_item_scope(relpath: str) -> bool:
    """L1's bare ``.item()`` check covers library code only (tests may
    unwrap NumPy scalars freely)."""
    return posix(relpath).startswith("src/") and in_scalar_scope(relpath)


def in_topology_scope(relpath: str) -> bool:
    """P4/E1 apply to the service layer, minus the topology owners."""
    p = posix(relpath)
    if not p.startswith("src/repro/service/"):
        return False
    return p.rsplit("/", 1)[-1] not in ("sharded.py", "routing.py")


def in_format_scope(relpath: str) -> bool:
    """F1/F2 apply to library code outside the persist package."""
    p = posix(relpath)
    return p.startswith("src/") and not p.startswith("src/repro/persist/")


def in_persist_scope(relpath: str) -> bool:
    """D1/D2's home turf: the durability layer itself."""
    return posix(relpath).startswith("src/repro/persist/")


# ---------------------------------------------------------------------------
# small AST helpers shared by rules


def collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/attribute they refer to."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def dotted_parts(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def qualify(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve a call target to its dotted import-level name, if known."""
    parts = dotted_parts(node)
    if not parts or parts[0] not in aliases:
        return None
    resolved = aliases[parts[0]]
    if resolved == "np":  # pragma: no cover - defensive
        resolved = "numpy"
    return ".".join([resolved, *parts[1:]])


def str_arg(call: ast.Call, idx: int) -> str | None:
    if len(call.args) > idx:
        arg = call.args[idx]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None
