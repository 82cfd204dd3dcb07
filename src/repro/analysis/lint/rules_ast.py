"""Flat AST rules ported from the first-generation linter.

These are the pattern-level rule classes (C, P, S, L, F) that needed
no control-flow reasoning; their semantics are unchanged, each finding
now carries its stable short id (C1, C2, P1–P4, S1–S3, L1, F1, F2) so
suppressions and the baseline can target it precisely.  C3 and L2
are later pattern rules of the same kind.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.lint.base import (
    Violation,
    dotted_parts,
    in_bare_item_scope,
    in_charge_scope,
    in_format_scope,
    in_protocol_scope,
    in_scalar_scope,
    in_src_scope,
    in_topology_scope,
    qualify,
    str_arg,
)
from repro.analysis.lint.symbols import FileUnit, ProjectIndex
from repro.storage.iostats import IOStats

IOSTATS_FIELDS = frozenset(vars(IOStats()))

#: Names making up the Index protocol surface (methods, capability
#: attributes, and sharding hooks).  ``backend_name`` is deliberately
#: absent: it is registry *metadata* stamped by ``register()``, not
#: behaviour, and the registry reads it reflectively by design.
PROTOCOL_SURFACE = frozenset(
    {
        "bind",
        "unbind",
        "capabilities",
        "write_target",
        "search",
        "insert",
        "delete",
        "range_scan",
        "search_many",
        "insert_many",
        "delete_many",
        "range_scan_many",
        "supports_sharding",
        "size_pages",
        "n_leaves",
        "height",
        "shard_leaves",
        "shard_from_leaves",
        "shard_leaf_span",
        "shard_cut_spans",
        "snapshot_state",
        "restore_state",
    }
)

#: Scalar protocol ops and the batch counterpart each one requires.
SCALAR_TO_BATCH = {
    "search": "search_many",
    "insert": "insert_many",
    "delete": "delete_many",
    "range_scan": "range_scan_many",
}

#: Base classes that mark a class as index-like and that are known to
#: provide every ``*_many`` fallback (protocol.py's ``IndexBackend``).
_BATCH_PROVIDERS = frozenset({"IndexBackend"})
_INDEX_MARKERS = _BATCH_PROVIDERS | {"Index"}

#: Module-level RNG entry points that draw from a hidden global stream.
_GLOBAL_RNG = frozenset(
    {"random." + f for f in (
        "random", "randint", "randrange", "getrandbits", "choice",
        "choices", "shuffle", "sample", "uniform", "gauss", "betavariate",
        "expovariate", "seed",
    )}
    | {"numpy.random." + f for f in (
        "rand", "randn", "randint", "random", "random_sample",
        "random_integers", "choice", "permutation", "shuffle", "normal",
        "uniform", "standard_normal", "seed",
    )}
)


def check_file(unit: FileUnit) -> Iterator[Violation]:
    """Run every single-file ported rule over one parsed unit."""
    yield from _check_calls(unit)
    yield from _check_shard_caching(unit)
    yield from _check_bool_identity(unit)


def _check_calls(unit: FileUnit) -> Iterator[Violation]:
    tree, relpath, aliases = unit.tree, unit.relpath, unit.aliases
    charge = in_charge_scope(relpath)
    protocol = in_protocol_scope(relpath)
    scalar = in_scalar_scope(relpath)
    bare_item = in_bare_item_scope(relpath)
    fmt = in_format_scope(relpath)
    src = in_src_scope(relpath)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func

        # -- charge-discipline -----------------------------------------
        if charge and isinstance(func, ast.Attribute) and func.attr == "read_page":
            seq_kw = next(
                (kw for kw in node.keywords if kw.arg == "sequential"), None
            )
            has_star = any(kw.arg is None for kw in node.keywords)
            if seq_kw is None and len(node.args) < 2 and not has_star:
                yield Violation(
                    "C1", "charge-discipline", relpath, node.lineno,
                    "read_page() without an explicit sequential= argument; "
                    "adjacency inference mis-splits Eq. 13's random/"
                    "sequential accounting",
                )
            seq_val = seq_kw.value if seq_kw is not None else (
                node.args[1] if len(node.args) > 1 else None
            )
            if (isinstance(seq_val, ast.Constant)
                    and type(seq_val.value) is bool and seq_val.value):
                yield Violation(
                    "C2", "charge-discipline", relpath, node.lineno,
                    "read_page(sequential=True) literal: the first page of "
                    "a run always pays the random positioning cost; use "
                    "sequential=i > 0 or Device.read_run",
                )

        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if src and name == "_count":
            counter = str_arg(node, 0)
            floats = [n.value for arg in node.args[1:]
                      for n in ast.walk(arg) if isinstance(n, ast.Constant)
                      and isinstance(n.value, float)]
            if counter not in IOSTATS_FIELDS:
                yield Violation(
                    "C3", "charge-discipline", relpath, node.lineno,
                    f"_count() counter {counter!r} is not a literal "
                    "IOStats field; simulated time prices IOStats fields "
                    "only, so a charge must name one",
                )
            elif floats:
                yield Violation(
                    "C3", "charge-discipline", relpath, node.lineno,
                    f"float literal {floats[0]!r} in a _count() charge; "
                    "counts are units, and their prices live in one list "
                    "(repro.storage.config.price_list)",
                )

        # -- protocol-discipline / scalar-leak -------------------------
        if isinstance(func, ast.Name) and func.id in (
            "hasattr", "getattr", "setattr"
        ):
            name = str_arg(node, 1)
            if name == "item" and func.id in ("hasattr", "getattr") and scalar:
                yield Violation(
                    "L1", "scalar-leak", relpath, node.lineno,
                    f'{func.id}(..., "item") numpy-scalar unwrapping; use '
                    "repro.api.results.as_scalar",
                )
            elif name in PROTOCOL_SURFACE and protocol:
                yield Violation(
                    "P1", "protocol-discipline", relpath, node.lineno,
                    f'{func.id}(..., "{name}") duck-types the Index '
                    "protocol surface; backends declare the full surface, "
                    "so access it directly",
                )

        if (bare_item and isinstance(func, ast.Attribute)
                and func.attr == "item" and not node.args
                and not node.keywords):
            yield Violation(
                "L1", "scalar-leak", relpath, node.lineno,
                "bare .item() unwrapping crashes on native Python keys "
                "(str/bytes have no .item); use "
                "repro.api.results.as_scalar",
            )

        # -- format-discipline -----------------------------------------
        if fmt and isinstance(func, ast.Name) and func.id == "open":
            mode_kw = next(
                (kw for kw in node.keywords if kw.arg == "mode"), None
            )
            mode_node = mode_kw.value if mode_kw is not None else (
                node.args[1] if len(node.args) > 1 else None
            )
            if (
                isinstance(mode_node, ast.Constant)
                and isinstance(mode_node.value, str)
                and "b" in mode_node.value
                and any(c in mode_node.value for c in "wax+")
            ):
                yield Violation(
                    "F2", "format-discipline", relpath, node.lineno,
                    f'open(..., "{mode_node.value}") writes binary index '
                    "state outside repro.persist; on-disk formats live "
                    "there, framed and checksummed",
                )

        # -- seed-discipline -------------------------------------------
        qual = qualify(func, aliases)
        if qual is None:
            continue
        if fmt and qual in ("pickle.load", "pickle.loads"):
            yield Violation(
                "F1", "format-discipline", relpath, node.lineno,
                f"{qual}() deserializes unchecksummed, code-executing "
                "state; use the repro.persist snapshot container",
            )
        if qual == "numpy.random.default_rng":
            if not node.args and not any(
                kw.arg == "seed" or kw.arg is None for kw in node.keywords
            ):
                yield Violation(
                    "S1", "seed-discipline", relpath, node.lineno,
                    "np.random.default_rng() without an explicit seed; "
                    "thread one from workloads.seeds.derive_seed",
                )
        elif qual == "random.Random":
            if not node.args and not node.keywords:
                yield Violation(
                    "S2", "seed-discipline", relpath, node.lineno,
                    "random.Random() without an explicit seed; thread one "
                    "from workloads.seeds.derive_seed",
                )
        elif qual in _GLOBAL_RNG:
            yield Violation(
                "S3", "seed-discipline", relpath, node.lineno,
                f"{qual}() draws from the hidden global RNG stream; use a "
                "seeded Generator/Random instance",
            )


def _check_shard_caching(unit: FileUnit) -> Iterator[Violation]:
    """P4: storing ``.shards``/``.shards[...]`` into instance state."""
    if not in_topology_scope(unit.relpath):
        return
    for node in ast.walk(unit.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            caches_self = any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in targets
            )
            if not caches_self or node.value is None:
                continue
            if any(
                isinstance(sub, ast.Attribute) and sub.attr == "shards"
                for sub in ast.walk(node.value)
            ):
                yield Violation(
                    "P4", "protocol-discipline", unit.relpath, node.lineno,
                    "caching .shards state in a self attribute; shard "
                    "ordinals are valid for one routing-table epoch only "
                    "— re-read service.shards on every use",
                )


def _check_bool_identity(unit: FileUnit) -> Iterator[Violation]:
    """L2: an ``is``/``is not`` test against a ``True``/``False`` literal
    under ``src/``.  A NumPy predicate returns ``np.bool_``, which is
    neither object, so such a test silently takes the wrong branch."""
    if not in_src_scope(unit.relpath):
        return
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            literals = [side.value for side in (left, right)
                        if isinstance(side, ast.Constant)
                        and type(side.value) is bool]
            if literals and isinstance(op, (ast.Is, ast.IsNot)):
                word = "is" if isinstance(op, ast.Is) else "is not"
                yield Violation(
                    "L2", "scalar-leak", unit.relpath, node.lineno,
                    f"'{word} {literals[0]}' identity test: a NumPy "
                    "predicate returns np.bool_, which is neither True "
                    "nor False; test truthiness instead",
                )


# ---------------------------------------------------------------------------
# cross-file rules (P2 batch pairing, P3 registry conformance)


def _class_defs(tree: ast.Module) -> dict[str, tuple[list[str], set[str]]]:
    """Map class name -> (base names, locally defined method names)."""
    out: dict[str, tuple[list[str], set[str]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = []
        for b in node.bases:
            parts = dotted_parts(b)
            if parts:
                bases.append(parts[-1])
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        out[node.name] = (bases, methods)
    return out


def check_project(project: ProjectIndex,
                  root: Path | None = None) -> Iterator[Violation]:
    """P2 over every class in the project, P3 against the repo root."""
    all_classes: dict[str, tuple[list[str], set[str]]] = {}
    locations: dict[str, tuple[str, int]] = {}
    for unit in project.units:
        if not in_protocol_scope(unit.relpath):
            continue
        for name, info in _class_defs(unit.tree).items():
            all_classes[name] = info
            for n in ast.walk(unit.tree):
                if isinstance(n, ast.ClassDef) and n.name == name:
                    locations[name] = (unit.relpath, n.lineno)
                    break
    yield from _check_batch_pairing(all_classes, locations)
    if root is not None:
        yield from _check_registry_conformance(root)


def _check_batch_pairing(
    classes: dict[str, tuple[list[str], set[str]]],
    locations: dict[str, tuple[str, int]],
) -> Iterator[Violation]:
    """P2: scalar op without its ``*_many`` counterpart on index-like
    classes."""

    def resolve(cls: str, seen: frozenset[str] = frozenset()) -> set[str]:
        if cls in seen or cls not in classes:
            return set()
        bases, methods = classes[cls]
        merged = set(methods)
        for b in bases:
            if b in _BATCH_PROVIDERS:
                merged.update(SCALAR_TO_BATCH.values())
            merged |= resolve(b, seen | {cls})
        return merged

    def index_like(cls: str, seen: frozenset[str] = frozenset()) -> bool:
        if cls in seen or cls not in classes:
            return False
        bases, methods = classes[cls]
        if "capabilities" in methods:
            return True
        return any(
            b in _INDEX_MARKERS or index_like(b, seen | {cls}) for b in bases
        )

    for cls in classes:
        if not index_like(cls):
            continue
        provided = resolve(cls)
        for scalar_op, batch_op in SCALAR_TO_BATCH.items():
            if scalar_op in provided and batch_op not in provided:
                path, line = locations.get(cls, ("<unknown>", 0))
                yield Violation(
                    "P2", "protocol-discipline", path, line,
                    f"index-like class {cls} defines {scalar_op}() but "
                    f"neither defines nor inherits {batch_op}()",
                )


def _registered_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register"
        ):
            name = str_arg(node, 0)
            if name is not None:
                names.append((name, node.lineno))
    return names


def _expected_caps_keys(tree: ast.Module) -> set[str] | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "EXPECTED_CAPS" in targets and isinstance(node.value, ast.Dict):
                return {
                    k.value
                    for k in node.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
    return None


def _check_registry_conformance(root: Path) -> Iterator[Violation]:
    """P3: every ``register()``-ed backend appears in the conformance
    suite."""
    backends_py = root / "src" / "repro" / "api" / "backends.py"
    conformance_py = root / "tests" / "test_api_conformance.py"
    if not backends_py.is_file():
        return
    registered = _registered_names(
        ast.parse(backends_py.read_text("utf-8")))
    if not registered:
        return
    rel_backends = "src/repro/api/backends.py"
    if not conformance_py.is_file():
        yield Violation(
            "P3", "protocol-discipline", rel_backends, registered[0][1],
            "backends are register()ed but tests/test_api_conformance.py "
            "is missing",
        )
        return
    expected = _expected_caps_keys(
        ast.parse(conformance_py.read_text("utf-8")))
    if expected is None:
        yield Violation(
            "P3", "protocol-discipline", rel_backends, registered[0][1],
            "conformance suite has no literal EXPECTED_CAPS table to "
            "cross-check registered backends against",
        )
        return
    for name, line in registered:
        if name not in expected:
            yield Violation(
                "P3", "protocol-discipline", rel_backends, line,
                f'backend "{name}" is register()ed but missing from the '
                "conformance suite's EXPECTED_CAPS",
            )
