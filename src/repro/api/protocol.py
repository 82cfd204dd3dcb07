"""The unified ``Index`` protocol every backend conforms to.

The paper's headline claim is comparative — BF-Tree versus B+-Tree,
FD-Tree, SILT, hash index and sorted-file search — so the serving stack
must be able to drop *any* of them into the same harness and replay
identical traffic.  This module defines that contract:

* :class:`Index` — the structural protocol (``typing.Protocol``): build
  once, ``bind``/``unbind`` a storage stack, then ``search`` /
  ``insert`` / ``delete`` / ``range_scan`` plus their batch
  counterparts, a :meth:`~Index.capabilities` descriptor and the
  :meth:`~Index.write_target` tuple-id translation hook.
* :class:`Capabilities` — what a backend can do (``ordered``,
  ``mutable``, ``scannable``, ``unique``); harnesses gate on this
  instead of ``hasattr`` duck typing.
* :class:`UnsupportedOperationError` — raised (instead of
  ``AttributeError``) when an operation falls outside a backend's
  capabilities; the message names the missing capability.
* :class:`IndexBackend` — the concrete base class backends inherit:
  the one storage binding (``bind``/``unbind`` and the IOStats every
  backend counts its charges in), capability-gated
  defaults for the mutating and scanning operations, and
  **bit-identical** scalar-loop fallbacks: ``apply_many``, which
  ``search_many`` / ``insert_many`` / ``delete_many`` /
  ``range_scan_many`` call, and ``apply_across``, one ``apply_many`` per
  index of a multi-index request, which marks a raising request on its
  exception (:func:`failed_request`).  :func:`apply_grouped` makes one
  ``apply_across`` call per run of same-class indexes.  Backends with
  vectorized engines override those (the BF-Tree ``apply_across``, one
  engine pass for every op kind, whose one-tree case its
  ``apply_many``, ``search_many``, ``insert_many`` and
  ``range_scan_many`` are; the B+-Tree ``range_scan_many``; the durable
  wrapper's ``apply_across``, one inner pass for every WAL-backed
  index of a request).

Write addressing: the protocol's mutating operations take the backend's
*native write target* — a tuple id for rid-based indexes, a data page id
for the BF-Tree, which indexes pages.  :meth:`Index.write_target` maps a
tuple id to that native target, so backend-agnostic callers (the sharded
service, the Router) write ``index.insert(key, index.write_target(tid))``
and never branch on the backend kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, Sequence, runtime_checkable

from repro.analysis.sanitize import maybe_check
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
    normalize_scan_windows,
)
from repro.storage.config import StorageStack
from repro.storage.device import Device
from repro.storage.iostats import IOStats


#: Op codes of :meth:`Index.apply_many`; mixed workload traces carry
#: the first three.
OP_READ = 0
OP_INSERT = 1
OP_SCAN = 2
OP_DELETE = 3

#: One :meth:`Index.apply_many` op: ``(OP_READ, key, None)``,
#: ``(OP_INSERT, key, write target)``, ``(OP_SCAN, lo, hi)`` or
#: ``(OP_DELETE, key, write target or None)``.
Op = tuple[int, Any, Any]

#: One :meth:`Index.apply_across` request: an index (of the class the
#: hook is called on), its ops and its latency sink.
Request = tuple[Any, Sequence[Op], list[float] | None]


@dataclass(frozen=True)
class Capabilities:
    """What one index backend instance can do.

    * ``ordered`` — keys are kept in (or served from) sorted order; the
      precondition for range partitioning a backend across shards.
    * ``mutable`` — ``insert`` / ``delete`` are supported.
    * ``scannable`` — ``range_scan`` is supported.
    * ``unique`` — the instance was built with primary-key semantics
      (probes stop at the first match).
    * ``durable`` — mutations are write-ahead logged and the instance
      checkpoints/recovers through :mod:`repro.persist` (only the
      ``DurableIndex`` wrapper reports this).
    """

    ordered: bool
    mutable: bool
    scannable: bool
    unique: bool
    durable: bool = False

    def summary(self) -> str:
        """Human-readable capability list for error messages."""
        names = [
            name
            for name in ("ordered", "mutable", "scannable", "unique",
                         "durable")
            if getattr(self, name)
        ]
        return ", ".join(names) if names else "none"


class UnsupportedOperationError(NotImplementedError):
    """An operation outside the backend's capabilities was requested.

    Subclasses :class:`NotImplementedError` so legacy callers that
    guarded on it keep working, but carries a structured message naming
    the backend, the operation and the capability it lacks.
    """

    def __init__(self, backend: str, op: str, capability: str,
                 capabilities: Capabilities | None = None) -> None:
        self.backend = backend
        self.op = op
        self.capability = capability
        self.capabilities = capabilities
        message = (
            f"{backend} does not support {op}(): backend is not "
            f"{capability}"
        )
        if capabilities is not None:
            message += f" (capabilities: {capabilities.summary()})"
        super().__init__(message)


@runtime_checkable
class Index(Protocol):
    """Structural protocol of a servable index backend.

    Every registered backend satisfies this at runtime (see
    :mod:`repro.api.registry`); ``isinstance(obj, Index)`` checks method
    presence.  The semantic contract — result types, bit-identity of
    batch and scalar paths, capability-gated errors — is enforced by
    ``tests/test_api_conformance.py`` across all backends.
    """

    def bind(self, stack: Any, warm: bool = False) -> None: ...
    def unbind(self) -> None: ...
    def capabilities(self) -> Capabilities: ...
    def write_target(self, tid: int) -> int: ...
    def search(self, key: Any) -> SearchResult: ...
    def insert(self, key: Any, target: int) -> None: ...
    def delete(self, key: Any,
               target: int | None = None) -> DeleteOutcome: ...
    def range_scan(self, lo: Any, hi: Any) -> RangeScanResult: ...
    def search_many(self, keys: Sequence[Any],
                    latency_sink: list[float] | None = None
                    ) -> list[SearchResult]: ...
    def insert_many(self, keys: Sequence[Any], targets: Sequence[int],
                    latency_sink: list[float] | None = None) -> None: ...
    def delete_many(self, keys: Sequence[Any],
                    targets: Sequence[int | None] | None = None,
                    latency_sink: list[float] | None = None
                    ) -> list[DeleteOutcome]: ...
    def range_scan_many(self, windows: Sequence[tuple[Any, Any]],
                        latency_sink: list[float] | None = None
                        ) -> list[RangeScanResult]: ...
    def apply_many(self, ops: Sequence[Op],
                   latency_sink: list[float] | None = None
                   ) -> list[Any]: ...
    @classmethod
    def apply_across(cls, requests: Sequence[Request]
                     ) -> list[list[Any]]: ...
    def snapshot_state(self) -> dict[str, Any]: ...
    def restore_state(self, state: dict[str, Any]) -> None: ...

    # Declared surface, not duck-typed: callers read these directly
    # (reprolint's protocol-discipline rule forbids getattr probes).
    supports_sharding: bool

    @property
    def height(self) -> int: ...

    @property
    def n_leaves(self) -> int: ...

    @property
    def size_pages(self) -> int: ...


def check_op_codes(ops: Sequence[Op]) -> None:
    """Raise ``ValueError`` on any op code other than read, insert, scan
    or delete (before anything is applied)."""
    unknown = {op[0] for op in ops}.difference(
        (OP_READ, OP_INSERT, OP_SCAN, OP_DELETE))
    if unknown:
        raise ValueError(f"unknown op code {min(unknown)}")


def mark_failed_request(exc: BaseException, index: int) -> None:
    """Record on ``exc`` that request ``index`` of an
    :meth:`Index.apply_across` call raised it (see
    :meth:`IndexBackend.apply_across`)."""
    setattr(exc, "failed_request", index)


def failed_request(exc: BaseException) -> int:
    """The request of an :meth:`Index.apply_across` call that raised
    ``exc``: every request before it applied in full, every request
    after it is untouched.  0 when the hook raised before applying
    anything."""
    return int(getattr(exc, "failed_request", 0))


def apply_grouped(requests: Sequence[Request]) -> list[list[Any]]:
    """:meth:`Index.apply_across` over requests of mixed index classes:
    one hook call per run of consecutive requests whose indexes share a
    class, in order, so the results are one list per request.  An
    exception is marked with the failing request's place in
    ``requests`` (:func:`failed_request`)."""
    results: list[list[Any]] = []
    a = 0
    while a < len(requests):
        kind = type(requests[a][0])
        b = a + 1
        while b < len(requests) and type(requests[b][0]) is kind:
            b += 1
        try:
            results.extend(kind.apply_across(requests[a:b]))
        except BaseException as exc:
            mark_failed_request(exc, a + failed_request(exc))
            raise
        a = b
    return results


def check_targets(keys: Sequence[Any], targets: Sequence[Any]) -> None:
    """Reject a batch whose targets do not pair one to one with its keys,
    before any item applies (as the vectorized engines do)."""
    if len(keys) != len(targets):
        raise ValueError("keys and targets must have the same length")


class IndexBackend:
    """Concrete base every backend inherits.

    **Storage binding.**  :meth:`bind` records the stack and its two
    devices as plain attributes, so hot paths read them with no call;
    :meth:`unbind` clears all three, after which every access is free
    (the charge-free mode every backend supports).  ``_stats`` and
    ``_count`` reach the stack's one IOStats, the only record of what
    was charged; the stack prices it into simulated time.  Paged trees
    extend :meth:`bind` with their directory
    (:meth:`repro.core.node.InnerTree.bind`); wrappers delegate it.

    **Batch fallbacks.**  :meth:`apply_many` is the one per-op loop:
    ``search_many``, ``insert_many``, ``delete_many`` and
    ``range_scan_many`` build op triples and call it.  It is
    bit-identical to calling the scalar operation once per item on the
    same bound stack — same results, same IOStats counters — because
    the loop body *is* the scalar call.
    ``latency_sink`` receives one simulated per-op latency per item
    (zeros when unbound), matching the vectorized engines' accounting,
    so Router percentile reports work on every backend.
    :meth:`apply_across` runs ``apply_many`` for several indexes of one
    class at once; the Router's executor calls it once per replay
    chunk per run of same-class shards (:func:`apply_grouped`).

    **Capability-gated defaults.**  A backend that never defines
    ``insert``/``delete`` is immutable, one that never defines
    ``range_scan`` is unscannable — callers get an
    :class:`UnsupportedOperationError` naming the missing capability
    instead of an ``AttributeError``.  ``backend_name`` is the registry
    name, filled in at registration time.
    """

    #: Registry name of this backend (set by repro.api.registry.register).
    backend_name: str = ""

    #: True when the backend can donate its leaf chain to ShardedIndex
    #: (see the shard_* hooks on BFTree / BPlusTree).  Backends without
    #: sliceable leaves serve as a single-shard degenerate case.
    supports_sharding: bool = False

    #: The bound storage stack and its devices; ``None`` while unbound.
    stack: StorageStack | None = None
    _index_device: Device | None = None
    _data_device: Device | None = None

    def capabilities(self) -> Capabilities:  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{type(self).__name__} must implement capabilities()"
        )

    def _backend_label(self) -> str:
        return self.backend_name or type(self).__name__

    def _unsupported(self, op: str, capability: str) -> UnsupportedOperationError:
        return UnsupportedOperationError(
            self._backend_label(), op, capability, self.capabilities()
        )

    # ------------------------------------------------------------------
    # storage binding
    # ------------------------------------------------------------------
    def bind(self, stack: StorageStack, warm: bool = False) -> None:
        """Attach to a storage stack before measuring.

        ``warm=True`` is the paper's warm-cache mode; only backends with
        an index-resident directory act on it.
        """
        self.stack = stack
        self._index_device = stack.index_device
        self._data_device = stack.data_device

    def unbind(self) -> None:
        """Detach from any storage stack (accesses become free)."""
        self.stack = None
        self._index_device = None
        self._data_device = None

    def _stats(self) -> IOStats | None:
        """The bound stack's IOStats, or None when unbound."""
        stack = self.stack
        return None if stack is None else stack.stats

    def _count(self, counter: str, n: float = 1) -> None:
        """Add ``n`` to IOStats field ``counter`` of the bound stack (a CPU
        charge; the stack prices it)."""
        stack = self.stack
        if stack is not None:
            stats = stack.stats
            setattr(stats, counter, getattr(stats, counter) + n)

    # ------------------------------------------------------------------
    # batch fallbacks: the per-item scalar loop
    # ------------------------------------------------------------------
    if TYPE_CHECKING:
        # Every concrete backend defines ``search``; typed stub only, so
        # the scalar-loop fallbacks type-check under mypy strict.
        def search(self, key: Any) -> SearchResult: ...

    def search_many(self, keys: Sequence[Any],
                    latency_sink: list[float] | None = None
                    ) -> list[SearchResult]:
        return self.apply_many([(OP_READ, k, None) for k in keys], latency_sink)

    def insert_many(self, keys: Sequence[Any], targets: Sequence[int],
                    latency_sink: list[float] | None = None) -> None:
        check_targets(keys, targets)
        self.apply_many([(OP_INSERT, k, t) for k, t in zip(keys, targets)],
                        latency_sink)

    def delete_many(self, keys: Sequence[Any],
                    targets: Sequence[int | None] | None = None,
                    latency_sink: list[float] | None = None
                    ) -> list[DeleteOutcome]:
        targets = [None] * len(keys) if targets is None else list(targets)
        check_targets(keys, targets)
        return self.apply_many(
            [(OP_DELETE, k, t) for k, t in zip(keys, targets)], latency_sink)

    def range_scan_many(self, windows: Sequence[tuple[Any, Any]],
                        latency_sink: list[float] | None = None
                        ) -> list[RangeScanResult]:
        return self.apply_many([(OP_SCAN, lo, hi) for lo, hi in windows],
                               latency_sink)

    @classmethod
    def apply_across(cls, requests: Sequence[Request]) -> list[list[Any]]:
        """:meth:`apply_many` of several indexes of this class in one
        call: one result list per ``(index, ops, latency_sink)`` request.

        The default is one ``apply_many`` call per request, in order.  A
        backend whose engine has a fixed cost per call overrides it to
        pay that cost once for all requests (the BF-Tree, and the
        durable wrapper, which frames every request into its own WAL
        and makes one inner pass); an override must leave what this loop
        leaves — results, every index's state, IOStats and latencies —
        including when a request raises.  An override may check every
        request's op codes and scan windows before applying any.

        When request ``i`` raises, the requests before it have applied
        in full, request ``i`` is left as its own ``apply_many`` leaves
        it and the later ones are untouched.  The hook marks the
        exception with ``i`` (:func:`mark_failed_request`), so a caller
        that must undo work of its own for the unapplied requests (the
        durable wrapper's WAL records) reads it back with
        :func:`failed_request`.
        """
        results: list[list[Any]] = []
        for i, (index, ops, latency_sink) in enumerate(requests):
            try:
                results.append(index.apply_many(ops, latency_sink))
            except BaseException as exc:
                mark_failed_request(exc, i)
                raise
        return results

    def apply_many(self, ops: Sequence[Op],
                   latency_sink: list[float] | None = None) -> list[Any]:
        """Point reads, scans, inserts and deletes in one ordered call:
        the per-op loop over :meth:`search`, :meth:`insert`,
        :meth:`range_scan` and :meth:`delete`.

        Unknown op codes, inverted scan windows (one
        :func:`normalize_scan_windows` pass over the scans) and ops
        outside the backend's capabilities raise before any op applies.
        """
        check_op_codes(ops)
        codes = [op[0] for op in ops]
        windows = iter(normalize_scan_windows(
            [(op[1], op[2]) for op in ops if op[0] == OP_SCAN]))
        caps = self.capabilities()
        if not caps.mutable:
            if OP_INSERT in codes:
                raise self._unsupported("insert", "mutable")
            if OP_DELETE in codes:
                raise self._unsupported("delete", "mutable")
        if OP_SCAN in codes and not caps.scannable:
            raise self._unsupported("range_scan", "scannable")
        stack = self.stack if latency_sink is not None else None
        results: list[Any] = []
        for code, key, arg in ops:
            start = stack.stats.mark() if stack is not None else ()
            if code == OP_READ:
                results.append(self.search(as_scalar(key)))
            elif code == OP_INSERT:
                self.insert(as_scalar(key), int(arg))
                results.append(None)
            elif code == OP_DELETE:
                results.append(self.delete(
                    as_scalar(key), None if arg is None else int(arg)))
            else:
                results.append(self.range_scan(*next(windows)))
            if stack is not None and latency_sink is not None:
                latency_sink.append(stack.since(start))
        if latency_sink is not None and stack is None:
            latency_sink.extend(0.0 for _ in ops)
        if OP_INSERT in codes or OP_DELETE in codes:
            maybe_check(self)
        return results

    # ------------------------------------------------------------------
    # write addressing
    # ------------------------------------------------------------------
    def write_target(self, tid: int) -> int:
        """Native write address of tuple ``tid`` (rid by default;
        page-granular backends like the BF-Tree override this)."""
        return int(tid)

    # ------------------------------------------------------------------
    # capability-gated defaults
    # ------------------------------------------------------------------
    def insert(self, key: Any, target: int) -> None:
        raise self._unsupported("insert", "mutable")

    def delete(self, key: Any, target: int | None = None) -> DeleteOutcome:
        raise self._unsupported("delete", "mutable")

    def range_scan(self, lo: Any, hi: Any) -> RangeScanResult:
        raise self._unsupported("range_scan", "scannable")

    # ------------------------------------------------------------------
    # size / shape introspection defaults (trees override)
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Probe depth; flat backends (hash, sorted store) count as 1."""
        return 1

    @property
    def n_leaves(self) -> int:
        return 0

    @property
    def size_pages(self) -> int:
        """Index pages occupied (0 for backends with no on-device index)."""
        return 0

    # ------------------------------------------------------------------
    # sharding hooks (leaf-sliceable trees override all four)
    # ------------------------------------------------------------------
    def shard_leaves(self) -> list[Any]:
        """Leaf objects in key order, ready to slice into shard runs."""
        raise self._unsupported("shard_leaves", "shardable")

    def shard_from_leaves(self, run: list[Any]) -> "IndexBackend":
        """Rebuild an independent index over a contiguous leaf run."""
        raise self._unsupported("shard_from_leaves", "shardable")

    @staticmethod
    def shard_leaf_span(leaf: Any) -> tuple[Any, Any]:
        """(smallest, largest) key a leaf covers."""
        raise NotImplementedError

    @staticmethod
    def shard_cut_spans(left: Any, right: Any) -> bool:
        """True when cutting between two adjacent leaves would split a key."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpoint hooks (repro.persist serializes through these)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, Any]:
        """Structural state for a checkpoint (see ``repro.persist``).

        Immutable backends carry no state beyond their build inputs, so
        the default emits a ``rebuild`` marker: recovery reconstructs
        them from the relation recorded in the manifest.  Mutable
        backends must override with a real structural dump — otherwise
        a checkpoint would silently drop their post-build mutations.
        """
        if not self.capabilities().mutable:
            return {"format": "rebuild", "backend": self._backend_label()}
        raise self._unsupported("snapshot_state", "checkpointable")

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore the structural state captured by ``snapshot_state``."""
        if state.get("format") != "rebuild":
            raise ValueError(
                f"{self._backend_label()} cannot restore snapshot format "
                f"{state.get('format')!r}"
            )
        maybe_check(self)
