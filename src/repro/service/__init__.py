"""Query-serving subsystem: build-once / query-many over persisted indexes.

The batch layers (PRs 1-4) answer one join per invocation and rebuild
their index every time.  This package is the serving layer on top of the
same bit-exact machinery: :class:`QueryEngine` (re-exported from
:mod:`repro.index.query`, below the mutable store) answers batched
range and kNN queries in FP64 against a persisted or in-memory index
(:mod:`repro.index.persist`), :class:`IndexCache` keeps loaded indexes
hot behind an LRU, and :class:`QueryService` coalesces concurrent small
queries that queue behind a running engine call into single executor
batches.  A keep-alive ``ThreadingHTTPServer`` exposes it over JSON
(``python -m repro serve``).  See the "Query serving" and "HTTP
serving" sections of docs/ARCHITECTURE.md.
"""

from repro.index.query import (
    KnnResult,
    QueryEngine,
    brute_range_query,
    sample_queries,
)
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.metrics import (
    LogHistogram,
    MetricsRegistry,
    log_buckets,
    parse_prometheus_text,
)
from repro.service.server import (
    DeadlineExceeded,
    IndexCache,
    QueryService,
    ServiceError,
    ServiceOverloaded,
    ServiceShuttingDown,
    make_server,
    run_self_test,
)

__all__ = [
    "QueryEngine",
    "KnnResult",
    "brute_range_query",
    "sample_queries",
    "IndexCache",
    "QueryService",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceShuttingDown",
    "DeadlineExceeded",
    "ServiceClient",
    "ServiceUnavailable",
    "make_server",
    "run_self_test",
    "MetricsRegistry",
    "LogHistogram",
    "log_buckets",
    "parse_prometheus_text",
]
