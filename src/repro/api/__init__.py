"""repro.api — the unified Index protocol and backend registry.

The backend-agnostic contract of the serving stack: every index backend
(the BF-Tree and all baselines) conforms to :class:`Index`, returns the
canonical result types, advertises :class:`Capabilities`, and is built
through :func:`make_index` from the :func:`register`-driven registry.

Extension point::

    from repro.api import register, make_index

    register("lsm", build_my_lsm)               # one call ...
    index = make_index("lsm", relation, "pk")   # ... and every harness,
    # the sharded service and the CLI (probe/sweep/serve-bench) can use it.
"""

from repro.api.protocol import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    Capabilities,
    Index,
    IndexBackend,
    Op,
    UnsupportedOperationError,
)
from repro.api.registry import (
    BackendSpec,
    backend_spec,
    make_index,
    register,
    registered_backends,
)
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
    as_scalars,
    normalize_scan_windows,
)

__all__ = [
    "OP_DELETE",
    "OP_INSERT",
    "OP_READ",
    "OP_SCAN",
    "Op",
    "Capabilities",
    "Index",
    "IndexBackend",
    "UnsupportedOperationError",
    "BackendSpec",
    "backend_spec",
    "make_index",
    "register",
    "registered_backends",
    "DeleteOutcome",
    "RangeScanResult",
    "SearchResult",
    "as_scalar",
    "as_scalars",
    "normalize_scan_windows",
]
