"""``repro.serve`` — in-process geometry query service.

The serving core over the batched query engine: a slab of kNN / range /
allnn / view requests against a registered ``KDTree`` / ``BDLTree`` /
``ShardedIndex`` is answered in one synchronous
:meth:`GeometryService.execute` call — deduplicated, run as one
vectorized batch, and cached under a version-keyed LRU key.  Queueing,
fair ordering, admission and timeouts live in the asyncio front end
(:mod:`repro.frontend`).  See :mod:`repro.serve.service` for the full
design notes.

Quickstart::

    from repro import KDTree, dataset
    from repro.serve import GeometryService

    svc = GeometryService(max_batch=256)
    svc.register("pts", KDTree(dataset("2D-U-10K").coords))
    d, ids = svc.knn("pts", [50.0, 50.0], k=8)     # single request
    hits = svc.range_ball("pts", [50.0, 50.0], 5.0)
    print(svc.snapshot()["hit_rate"])
"""

from .cache import ResultCache, make_key, query_digest
from .errors import (
    Overloaded,
    RequestTimeout,
    ServeError,
    ServiceClosed,
    UnknownDataset,
)
from .metrics import RequestMetrics, ServiceStats
from .service import KINDS, GeometryService, Outcome, Request
from .trace import (
    ReplayReport,
    TraceMismatch,
    load_trace,
    open_loop_arrivals,
    replay,
    run_unbatched,
    save_trace,
    synthetic_trace,
    validate_trace,
    zipf_trace,
)

__all__ = [
    "GeometryService",
    "KINDS",
    "Overloaded",
    "Outcome",
    "ReplayReport",
    "Request",
    "RequestMetrics",
    "RequestTimeout",
    "ResultCache",
    "ServeError",
    "ServiceClosed",
    "ServiceStats",
    "UnknownDataset",
    "load_trace",
    "make_key",
    "query_digest",
    "TraceMismatch",
    "open_loop_arrivals",
    "replay",
    "run_unbatched",
    "save_trace",
    "synthetic_trace",
    "validate_trace",
    "zipf_trace",
]
