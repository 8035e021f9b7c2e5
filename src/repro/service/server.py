"""Concurrent request layer: index cache, micro-batching, JSON-over-HTTP.

Every request takes one path through three pieces:

* :class:`IndexCache` -- a thread-safe LRU of loaded engines, one per
  resolved directory: a persisted index's
  :class:`~repro.service.query.QueryEngine` or a mutable store's
  :class:`~repro.index.delta.MutableIndex`, each entry with its own
  currency check.  A hit costs one ``stat`` of the index's header (or
  the store's manifest); a miss -- a rewritten index has a new
  signature -- goes through one single-flight load per directory, so
  concurrent cold requests share one engine.  Loading is the expensive
  part a serving layer must amortize (the ``query_service`` benchmark
  entry measures exactly this against rebuild-per-query).

* :class:`QueryService` -- the **micro-batching queue**.  Concurrent
  small queries against the same ``(engine, eps, kind, k)`` that queued
  while the engine was busy are drained from one queue together,
  concatenated into a single query matrix, answered by **one** engine
  call, and split back per request.  Batching changes only how many
  engine calls run -- at FP64 the split results are bit-identical to
  per-request serial calls (same contract the join executors carry;
  tests/test_service.py hammers one cached index from N threads and
  compares against serial).  No timer holds a batch open: the
  dispatcher blocks for the first request, takes whatever else is
  already queued, and dispatches at once, so an idle service adds no
  latency and a loaded one coalesces exactly the requests that arrived
  during the previous engine call.  Dispatch runs on one background
  thread, which makes each engine call serially.

* :func:`make_server` -- stdlib-only JSON-over-HTTP on
  ``http.server.ThreadingHTTPServer`` (one thread per connection,
  speaking keep-alive HTTP/1.1).  ``POST /range`` and ``POST /knn``
  submit through the service, ``GET /healthz`` reports liveness, and
  ``GET /stats`` / ``GET /metrics`` are the JSON and Prometheus-text
  views of the same :class:`~repro.service.metrics.MetricsRegistry`
  (cache/batch/queue counters plus per-endpoint HTTP totals and latency
  histograms).  Only **registered** index names are served -- requests
  cannot make the process open arbitrary filesystem paths.  The stdlib
  handler writes headers and body as separate sends, so it disables
  Nagle (``TCP_NODELAY``) to keep the body off the client's 40-ms
  delayed-ACK timer.

Fault tolerance (see docs/ARCHITECTURE.md "Fault tolerance"):

* **Admission control** -- the submission queue is bounded
  (``max_queue_depth``); a full queue rejects *fast* with
  :class:`ServiceOverloaded` in-process and ``429 Too Many Requests`` +
  ``Retry-After`` over HTTP, so overload produces immediate backpressure
  instead of unbounded memory growth and timeout storms.
* **One deadline** -- every request carries one absolute deadline: the
  caller's ``deadline_s``, else the service's ``default_deadline_s``
  (:data:`DEFAULT_DEADLINE_S`, 30 s).  A request still queued at its
  deadline is failed with :class:`DeadlineExceeded` (HTTP 504) and never
  executed: the waiter gives up at that instant, and the dispatcher
  skips it.  A request that reached its engine call in time is answered.
* **Graceful shutdown** -- :meth:`QueryService.stop` fails everything
  still queued immediately with :class:`ServiceShuttingDown` instead of
  leaving waiters to their deadlines.  While stopping, ``/healthz``
  reports ``draining`` (503) and new submissions are refused.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro import faults
from repro import log as _log
from repro import trace as trace_mod
from repro.core.results import JoinResult
from repro.index.delta import (
    MANIFEST_NAME,
    CompactionInProgress,
    MutableIndex,
    is_mutable_index,
    read_manifest,
)
from repro.index.persist import (
    CorruptIndexError,
    FileGeneration,
    HEADER_NAME,
    read_header,
)
from repro.service.metrics import (
    BATCH_FILL_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.service.query import KnnResult, QueryEngine

_logger = _log.get_logger("repro.service.server")


class ServiceError(RuntimeError):
    """Base class for the service's typed request-rejection errors."""


class ServiceOverloaded(ServiceError):
    """The bounded submission queue is full; retry after backing off.

    ``retry_after`` is the suggested wait in seconds (the HTTP layer
    forwards it as a ``Retry-After`` header on the 429 it returns).
    """

    def __init__(self, message: str, *, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServiceShuttingDown(ServiceError):
    """The service is draining; queued/new requests are refused."""


class DeadlineExceeded(ServiceError, TimeoutError):
    """A request's deadline passed before dispatch; it was not executed."""


class IndexCache:
    """Thread-safe LRU cache of loaded indexes and mutable stores.

    One entry per resolved directory, each with its own currency check
    of the file under the path *as the caller spelled it*: an immutable
    index's ``header.json`` against the
    :class:`~repro.index.persist.FileGeneration` taken before its load,
    a mutable store's ``state.json`` through
    :meth:`~repro.index.delta.MutableIndex.manifest_is_current`.  A hit
    costs that one ``os.stat``.  Every writer commits by renaming a
    fresh file into place, so a rebuilt or rewritten index changes the
    signature, and a spelling that now leads elsewhere (a retargeted
    symlink, a relative path after a ``chdir``) finds another file;
    either way the path is resolved and looked up again.  While a
    signature is racily clean -- written within
    :data:`~repro.index.persist.RACY_NS` of when it was taken -- a hit
    also reads the file and compares its digest.

    A miss loads through one single-flight load per resolved path, for
    both kinds: concurrent cold lookups wait for one load and share its
    engine (so no append lands in a store's buffer that a second load is
    about to replace).  A store stays current through its own seals,
    deletes and compactions -- the live writer keeps serving, and its
    unsealed buffer is never dropped by a reload.  An index or store
    rewritten by someone else is swapped out: requests already holding
    the old engine finish on it, new lookups load the new generation.

    Parameters
    ----------
    capacity:
        Maximum simultaneously loaded engines; the least recently used is
        evicted past that (its mmap-backed arrays simply lose their last
        reference).
    mmap, precision, verify:
        Forwarded to every engine the cache constructs (``verify`` is
        the :func:`~repro.index.persist.load_index` integrity level
        applied on each cache miss).
    metrics:
        The :class:`~repro.service.metrics.MetricsRegistry` the hit /
        miss / eviction counters live in (one is created when absent).
        ``hits`` / ``misses`` / ``evictions`` remain readable as
        properties; they are views of the registry counters.
    """

    def __init__(
        self,
        capacity: int = 4,
        *,
        mmap: bool = True,
        precision: str = "fp64",
        verify: str = "header",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._mmap = mmap
        self._precision = precision
        self._verify = verify
        # Resolved path -> (resolved path, engine, is_current(spelled)),
        # LRU order.
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        # Path as the caller spelled it -> resolved path.
        self._aliases: dict[str, str] = {}
        self._lock = threading.Lock()
        # Per-path load locks: one load in flight per resolved path.
        self._loading: dict[str, threading.Lock] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_hits = self.metrics.counter(
            "repro_cache_hits_total",
            "Index-cache lookups served from an already-loaded engine",
        )
        self._c_misses = self.metrics.counter(
            "repro_cache_misses_total",
            "Index-cache lookups that had to load an engine",
        )
        self._c_evictions = self.metrics.counter(
            "repro_cache_evictions_total",
            "Engines evicted past the LRU capacity",
        )
        # len() of a dict is GIL-atomic, so the callback can read it
        # without taking the cache lock (no lock-order coupling between
        # the registry and the cache).
        self.metrics.gauge(
            "repro_cache_loaded",
            "Engines currently resident in the LRU",
            fn=lambda: float(len(self._entries)),
        )
        self.metrics.gauge(
            "repro_cache_capacity", "Index-cache LRU capacity"
        ).set(float(self.capacity))

    @property
    def hits(self) -> int:
        return int(self._c_hits.value())

    @property
    def misses(self) -> int:
        return int(self._c_misses.value())

    @property
    def evictions(self) -> int:
        return int(self._c_evictions.value())

    def get(self, path: str | Path) -> "QueryEngine | MutableIndex":
        """Return the cached engine for a persisted index or store,
        loading on miss.

        The hit path is one ``stat`` (see the class docstring).  Anything
        else -- an unknown spelling, an evicted entry, a changed
        signature -- resolves the path and takes its load lock; the
        first holder loads, and the others find its entry current.
        """
        spelled = str(path)
        with self._lock:
            entry = self._entries.get(self._aliases.get(spelled))
        engine = self._hit(entry, spelled)
        if engine is not None:
            return engine
        key = str(Path(path).resolve())
        with self._lock:
            flight = self._loading.setdefault(key, threading.Lock())
        with flight:
            with self._lock:
                entry = self._entries.get(key)
            engine = self._hit(entry, key)
            if engine is None:
                engine = self._load(Path(key))
        with self._lock:
            if len(self._aliases) > 64 * self.capacity:
                self._aliases.clear()  # spellings of evicted entries
            self._aliases[spelled] = key
        return engine

    def _hit(self, entry, spelled: str):
        """``entry``'s engine if it is current under ``spelled`` (counted
        as a hit), else None."""
        if entry is None:
            return None
        key, engine, is_current = entry
        if not is_current(spelled):
            return None
        with self._lock:
            if self._entries.get(key) is entry:
                self._entries.move_to_end(key)
            self._c_hits.inc()
        return engine

    def _load(self, resolved: Path):
        """Load ``resolved`` (under its load lock) and insert it."""
        key = str(resolved)
        options = dict(
            precision=self._precision, mmap=self._mmap, verify=self._verify
        )
        if (resolved / MANIFEST_NAME).is_file():
            self._c_misses.inc()
            t0 = time.perf_counter()
            engine = MutableIndex(resolved, **options)
            is_current = engine.manifest_is_current
        else:
            # Taken before the load: a rewrite racing it can only cause
            # one extra reload, never a stale hit.
            try:
                generation = FileGeneration(resolved / HEADER_NAME)
            except OSError as exc:
                raise ValueError(
                    f"{resolved} is not a persisted index (no {HEADER_NAME})"
                ) from exc
            self._c_misses.inc()
            t0 = time.perf_counter()
            engine = QueryEngine(key, **options)

            def is_current(spelled: str) -> bool:
                return generation.matches(Path(spelled) / HEADER_NAME)

        # A cache miss on the request path shows up in the trace: the
        # load+verify time is usually the whole cold-start story.
        trace_mod.record_ambient_span(
            "cache.load", time.perf_counter() - t0,
            attrs={"path": key, "verify": self._verify},
        )
        with self._lock:
            self._entries[key] = (key, engine, is_current)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._c_evictions.inc()
        return engine

    def engines(self) -> list:
        """The loaded engines, least recently used first."""
        return [engine for _, engine, _ in list(self._entries.values())]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _stats_from(self, snap: dict) -> dict:
        """Build the stats dict from a registry snapshot (shared-registry
        callers reuse one snapshot for service + cache consistency)."""
        return {
            "capacity": self.capacity,
            "loaded": int(snap["repro_cache_loaded"]),
            "hits": int(snap["repro_cache_hits_total"]),
            "misses": int(snap["repro_cache_misses_total"]),
            "evictions": int(snap["repro_cache_evictions_total"]),
        }

    def stats(self) -> dict:
        return self._stats_from(self.metrics.snapshot())


#: Seconds a request may wait for its engine call when neither the
#: caller (``deadline_s``) nor the service (``default_deadline_s``)
#: names another deadline.
DEFAULT_DEADLINE_S = 30.0


class _Pending:
    """One in-flight request: an event the dispatcher fulfills.

    ``deadline`` is the absolute :func:`time.monotonic` instant by which
    the request must reach its engine call (None only for handles built
    by hand).  It drives both checks: the dispatcher fails, rather than
    executes, a request it takes past the deadline, and :meth:`result`
    stops waiting at it for a request still queued.  Whichever side
    gets there first claims the request under one lock, so a
    :class:`DeadlineExceeded` request never ran, and a request that ran
    is answered.  ``expired`` is the counter the claiming side bumps.
    """

    __slots__ = (
        "engine", "queries", "eps", "kind", "k", "deadline", "expired",
        "span", "submit_t",
        "_lock", "_taken", "_event", "_result", "_error",
    )

    def __init__(
        self, engine, queries, eps, kind, k, deadline=None, expired=None
    ) -> None:
        self.engine = engine
        self.queries = queries
        self.eps = eps
        self.kind = kind  # "range" | "knn" | "append" | "delete"
        self.k = k
        self.deadline = deadline
        self.expired = expired
        # Trace attribution: the submitting thread's ambient span
        # (the HTTP root, or None for direct library use) rides along so
        # the dispatcher thread can attach queue-wait / dispatch / split
        # child spans to the originating request.
        self.span = trace_mod.current_span()
        self.submit_t = time.perf_counter()
        self._lock = threading.Lock()
        self._taken = False
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    def _fulfill(self, result) -> None:
        self._result = result
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def _expire(self) -> None:
        if self.expired is not None:
            self.expired.inc()
        self._fail(DeadlineExceeded("request deadline passed before dispatch"))

    def _take(self) -> bool:
        """Claim the request for its engine call (the dispatcher's side).

        False if its waiter already gave up on it, or if its deadline has
        passed -- then it is failed here, never executed.
        """
        with self._lock:
            if self._taken:
                return False
            self._taken = True
            live = self.deadline is None or time.monotonic() <= self.deadline
        if not live:
            self._expire()
        return live

    def result(self, timeout: float | None = None):
        """Block until the dispatcher answers; re-raises its exception.

        Waits until the deadline, or for ``timeout`` seconds if that is
        sooner (an upper bound for tests).  A request still queued then
        is withdrawn -- it will never run -- and raises
        :class:`DeadlineExceeded` (a :class:`TimeoutError`), which the
        HTTP layer answers with the typed 504.  A request already in its
        engine call is waited for; only ``timeout`` cuts that wait short.
        """
        give_up = None if timeout is None else time.monotonic() + timeout
        ends = [t for t in (self.deadline, give_up) if t is not None]
        wait = max(0.0, min(ends) - time.monotonic()) if ends else None
        if not self._event.wait(wait):
            with self._lock:
                queued = not self._taken
                self._taken = True
            if queued:
                self._expire()
            elif not self._event.wait(
                None if give_up is None
                else max(0.0, give_up - time.monotonic())
            ):
                raise DeadlineExceeded("query not answered within the timeout")
        if self._error is not None:
            raise self._error
        return self._result


class QueryService:
    """Micro-batching dispatcher over cached query engines.

    ``submit`` enqueues a request and returns a handle; a single
    background thread drains the queue, coalesces compatible requests
    (same engine, eps, query kind and k) into **one** engine call, and
    splits the answer back per request.  A batch is the first request
    plus whatever is already queued behind it (up to
    ``max_batch_points`` query rows): nothing waits on a timer, so the
    requests that coalesce are the ones that arrived while the previous
    engine call ran.  Use as a context manager, or call :meth:`start` /
    :meth:`stop`.

    ``submit``, ``submit_append`` and ``submit_delete`` share one
    admission: refused while draining, the dispatcher started, the
    engine looked up, and one deadline fixed -- ``deadline_s``, else
    ``default_deadline_s`` (:data:`DEFAULT_DEADLINE_S`).  The handle's
    ``result()`` waits until that deadline, and the dispatcher fails a
    request it takes later, so a request either reaches its engine call
    by its deadline or raises :class:`DeadlineExceeded` without running.
    The submission queue is bounded at ``max_queue_depth`` requests: a
    full queue raises :class:`ServiceOverloaded` immediately (admission
    control -- reject fast, never buffer without bound).
    """

    def __init__(
        self,
        cache: IndexCache | None = None,
        *,
        max_batch_points: int = 4096,
        precision: str = "fp64",
        mmap: bool = True,
        max_queue_depth: int = 256,
        default_deadline_s: float = DEFAULT_DEADLINE_S,
        verify: str = "header",
        metrics: "MetricsRegistry | None" = None,
        tracer: "trace_mod.Tracer | None" = None,
    ) -> None:
        # One registry backs service + cache, so /stats and /metrics
        # always read the same counters: a supplied cache brings its own,
        # else the service builds its cache over ``metrics`` (or a fresh
        # registry).
        self.cache = cache if cache is not None else IndexCache(
            precision=precision, mmap=mmap, verify=verify, metrics=metrics,
        )
        self.metrics = self.cache.metrics
        # The tracer is always present: request ids are echoed and stage
        # timings aggregated unconditionally; ``sample`` only decides
        # which completed traces are *retained* for /trace endpoints.
        # The default keeps errored traces (on_error=True) and nothing
        # else -- pass an explicit Tracer to turn retention up.
        self.tracer = (
            tracer if tracer is not None else trace_mod.Tracer(sample=0.0)
        )
        self.max_batch_points = int(max_batch_points)
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_queue_depth = int(max_queue_depth)
        self.default_deadline_s = float(default_deadline_s)
        self._queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=self.max_queue_depth
        )
        self._stop = threading.Event()
        self._draining = False
        self._thread: threading.Thread | None = None
        self._lifecycle_lock = threading.Lock()
        # All mutable counters live in the registry (atomic under its
        # lock) -- stats() takes one consistent snapshot instead of the
        # old bare-int reads that could be torn mid-dispatch.
        m = self.metrics
        self._c_batches = m.counter(
            "repro_service_batches_dispatched_total",
            "Engine batches dispatched by the micro-batcher",
        )
        self._c_served = m.counter(
            "repro_service_requests_served_total",
            "Requests answered by a dispatched batch",
        )
        self._c_coalesced = m.counter(
            "repro_service_requests_coalesced_total",
            "Requests served in a batch with >= 2 requests",
        )
        self._c_rejected = m.counter(
            "repro_service_requests_rejected_total",
            "Requests refused at admission (bounded queue full)",
        )
        self._c_expired = m.counter(
            "repro_service_requests_expired_total",
            "Requests failed at dispatch because their deadline passed",
        )
        m.gauge(
            "repro_service_queue_depth",
            "Requests currently waiting in the submission queue",
            fn=lambda: float(self._queue.qsize()),
        )
        m.gauge(
            "repro_service_queue_capacity",
            "Admission-control bound on queued requests",
        ).set(float(self.max_queue_depth))
        m.gauge(
            "repro_service_draining",
            "1 while stop() is refusing new submissions",
            fn=lambda: float(self._draining),
        )
        self._h_fill = m.histogram(
            "repro_service_batch_fill",
            "Requests coalesced per dispatched batch",
            buckets=BATCH_FILL_BUCKETS,
        )
        self._h_dispatch = m.histogram(
            "repro_service_dispatch_seconds",
            "Wall time of one dispatched engine batch",
        )
        # Mutable-index traffic (see repro.index.delta).  The counters
        # are bumped in the same grouped metrics.lock section as the
        # dispatch counters, so a snapshot never tears a mutation apart
        # from its request accounting; the gauges read the live shape of
        # every cached mutable engine.
        self._c_appends = m.counter(
            "repro_mutable_appends_total",
            "Append requests executed against mutable indexes",
        )
        self._c_rows_appended = m.counter(
            "repro_mutable_rows_appended_total",
            "Rows appended to mutable indexes",
        )
        self._c_deletes = m.counter(
            "repro_mutable_deletes_total",
            "Delete requests executed against mutable indexes",
        )
        self._c_tombstones_written = m.counter(
            "repro_mutable_tombstones_written_total",
            "Rows tombstoned by delete requests",
        )
        self._c_compactions = m.counter(
            "repro_mutable_compactions_total",
            "Compactions completed through the service",
        )
        self._h_compaction = m.histogram(
            "repro_mutable_compaction_seconds",
            "Wall time of one compaction (seal + rebuild + commit)",
        )
        for name, attr, help_text in (
            ("repro_mutable_delta_depth", "delta_depth",
             "Delta layers (sealed segments + live buffer) summed over "
             "cached mutable indexes"),
            ("repro_mutable_delta_rows", "delta_rows",
             "Delta-block rows (every non-base row a read multiplies its "
             "queries against) summed over cached mutable indexes"),
            ("repro_mutable_tombstones", "n_tombstones",
             "Live tombstones summed over cached mutable indexes"),
        ):
            m.gauge(name, help_text, fn=lambda attr=attr: float(sum(
                getattr(e, attr) for e in self.cache.engines()
                if isinstance(e, MutableIndex)
            )))
        # Per-stage engine time aggregated across every dispatched batch
        # (fed from TraceHooks regardless of trace retention).
        self._h_stage = m.histogram(
            "repro_stage_seconds",
            "Engine pipeline stage wall time per dispatched batch",
            labels=("stage",),
        )
        # Tracer retention counters (ints under the tracer lock; reads
        # here are GIL-atomic snapshots).
        m.gauge(
            "repro_traces_started",
            "Root spans opened since process start",
            fn=lambda: float(self.tracer.traces_started),
        )
        m.gauge(
            "repro_traces_retained",
            "Completed traces kept by the retention policy",
            fn=lambda: float(self.tracer.traces_retained),
        )
        m.gauge(
            "repro_traces_dropped",
            "Completed traces discarded by the retention policy",
            fn=lambda: float(self.tracer.traces_dropped),
        )
        m.gauge(
            "repro_faults_armed",
            "Fault-injection specs currently armed",
            fn=lambda: float(len(faults.active())),
        )
        m.gauge(
            "repro_faults_fired",
            "Total injected-fault firings across armed specs",
            fn=lambda: float(
                sum(s.fired for s in faults.active().values())
            ),
        )

    @property
    def batches_dispatched(self) -> int:
        return int(self._c_batches.value())

    @property
    def requests_served(self) -> int:
        return int(self._c_served.value())

    @property
    def requests_coalesced(self) -> int:
        """Requests served in a batch with >= 2 requests."""
        return int(self._c_coalesced.value())

    @property
    def requests_rejected(self) -> int:
        """Requests refused at admission (queue full)."""
        return int(self._c_rejected.value())

    @property
    def requests_expired(self) -> int:
        """Requests failed at dispatch (deadline passed)."""
        return int(self._c_expired.value())

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "QueryService":
        # Locked: concurrent first submits must not each spawn a
        # dispatcher (two loops would split batches that should coalesce).
        with self._lifecycle_lock:
            if self._thread is not None and self._thread.is_alive():
                # A dispatcher that outlived stop()'s join (still inside
                # a batch) carries on rather than gaining a twin --
                # mutations stay serialized on one thread.  Checked
                # first so a running service's submits take no extra lock.
                if self._stop.is_set() and not self._draining:
                    self._stop.clear()
            else:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._loop, name="repro-query-service", daemon=True
                )
                self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        """True while :meth:`stop` is refusing new submissions."""
        return self._draining

    def stop(self) -> None:
        """Stop the dispatcher; never abandon a queued request.

        Everything still queued fails immediately with
        :class:`ServiceShuttingDown` -- waiters get a typed error now
        instead of sitting out their deadlines.  New submissions are
        refused (``ServiceShuttingDown``) until the stop completes;
        afterwards a submit revives the service.
        """
        self._draining = True
        try:
            self._stop.set()
            # The loop drops its own reference when it exits; one that
            # is still inside a batch when the join times out stays the
            # service's dispatcher, so a later start() revives it.
            thread = self._thread
            if thread is not None:
                thread.join(timeout=5.0)
            # Fail anything still queued rather than leaving its waiters
            # blocked until their deadlines.
            while True:
                try:
                    pending = self._queue.get_nowait()
                except queue.Empty:
                    break
                pending._fail(
                    ServiceShuttingDown("query service stopped while draining")
                )
        finally:
            self._draining = False

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- submission -----------------------------------------------------

    def engine_for(self, index: "QueryEngine | str | Path") -> QueryEngine:
        if isinstance(index, (QueryEngine, MutableIndex)):
            return index
        return self.cache.get(index)

    def _mutable_engine_for(self, index) -> MutableIndex:
        engine = self.engine_for(index)
        if not isinstance(engine, MutableIndex):
            raise TypeError(
                "index is immutable: append/delete/compact need a store "
                "built with --mutable (see repro.index.delta)"
            )
        return engine

    def _admit(self, index, deadline_s, lookup) -> tuple:
        """The admission every submission shares: ``(engine, deadline)``.

        Refused with :class:`ServiceShuttingDown` while a :meth:`stop` is
        in progress.  Starts the dispatcher if it is not running, so the
        service works without an explicit :meth:`start` and a stopped
        service revives on the next submission instead of queueing
        forever.  The deadline is absolute: ``deadline_s`` (else
        ``default_deadline_s``) seconds from now.
        """
        if self._draining:
            raise ServiceShuttingDown("query service is draining")
        self.start()
        engine = lookup(index)
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        return engine, time.monotonic() + float(deadline_s)

    def _enqueue(self, engine, payload, kind, deadline, eps=None, k=None):
        pending = _Pending(
            engine, payload, eps, kind, k, deadline, self._c_expired
        )
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self._c_rejected.inc()
            raise ServiceOverloaded(
                f"submission queue is full ({self.max_queue_depth} requests "
                "queued); back off and retry",
            ) from None
        return pending

    def submit(
        self,
        index: "QueryEngine | str | Path",
        queries,
        *,
        eps: float | None = None,
        k: int | None = None,
        deadline_s: float | None = None,
    ) -> _Pending:
        """Enqueue one range (``k=None``) or kNN query batch.

        Raises :class:`ServiceOverloaded` -- immediately, without
        blocking -- when the bounded queue is full.  A request that has
        not reached its engine call by its deadline (see :meth:`_admit`)
        fails with :class:`DeadlineExceeded` instead of running.
        """
        engine, deadline = self._admit(index, deadline_s, self.engine_for)
        q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
        if q.ndim == 1:
            q = q[None, :]
        # Validate here, synchronously: a malformed request must fail its
        # own submit, never poison the micro-batch it would coalesce into
        # (the dispatcher concatenates group members blindly).
        if q.ndim != 2 or q.shape[1] != engine.dim:
            raise ValueError(
                f"queries must be (q, {engine.dim}); got shape {q.shape}"
            )
        if k is not None and int(k) < 1:
            raise ValueError("k must be positive")
        return self._enqueue(
            engine, q, "knn" if k is not None else "range", deadline,
            eps=float(eps) if eps is not None else None,
            k=int(k) if k is not None else None,
        )

    def query(self, index, queries, *, eps=None, k=None, deadline_s=None):
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(
            index, queries, eps=eps, k=k, deadline_s=deadline_s
        ).result()

    # -- mutations ------------------------------------------------------

    def submit_append(self, index, rows, *, deadline_s=None) -> _Pending:
        """Enqueue an append of ``rows`` to a mutable index.

        Mutations ride the same bounded admission queue as queries (so
        overload produces the same 429 back-pressure) but are never
        coalesced: each executes as its own serialized engine call on the
        dispatcher thread.  The result is the ``int64`` array of ids
        minted for the rows.
        """
        engine, deadline = self._admit(
            index, deadline_s, self._mutable_engine_for
        )
        r = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
        if r.ndim == 1:
            r = r[None, :]
        if r.ndim != 2 or r.shape[0] == 0 or r.shape[1] != engine.dim:
            raise ValueError(
                f"rows must be (n >= 1, {engine.dim}); got shape {r.shape}"
            )
        return self._enqueue(engine, r, "append", deadline)

    def submit_delete(self, index, ids, *, deadline_s=None) -> _Pending:
        """Enqueue a tombstone-delete of ``ids`` from a mutable index.

        The result is the number of rows deleted; unknown or already
        dead ids fail the request with :class:`ValueError` (mapped to
        400 over HTTP) without touching the store.
        """
        engine, deadline = self._admit(
            index, deadline_s, self._mutable_engine_for
        )
        arr = np.asarray(ids, dtype=np.int64).ravel()
        if arr.size == 0:
            raise ValueError("ids must name at least one row")
        return self._enqueue(engine, arr, "delete", deadline)

    def append(self, index, rows, *, deadline_s=None):
        """Blocking convenience: ``submit_append(...).result()``."""
        return self.submit_append(index, rows, deadline_s=deadline_s).result()

    def delete(self, index, ids, *, deadline_s=None):
        """Blocking convenience: ``submit_delete(...).result()``."""
        return self.submit_delete(index, ids, deadline_s=deadline_s).result()

    def compact(self, index) -> dict:
        """Fold sealed segments + tombstones into a new base generation.

        Runs inline on the caller's thread (compaction is minutes-scale
        next to the micro-batch loop; queueing it would head-of-line
        block every query).  A compaction already in flight surfaces as
        :class:`ServiceOverloaded` -- the HTTP layer turns that into a
        429 with ``Retry-After``, matching admission-control semantics.
        """
        engine = self._mutable_engine_for(index)
        try:
            out = engine.compact(wait=False)
        except CompactionInProgress as exc:
            raise ServiceOverloaded(str(exc), retry_after=1.0) from exc
        with self.metrics.lock:
            self._c_compactions.inc()
            self._h_compaction.observe(float(out["duration_s"]))
        return out

    def stats(self) -> dict:
        """JSON view of the metrics registry (one atomic snapshot).

        The keys are unchanged from the bare-counter era; the values now
        come from a single :meth:`MetricsRegistry.snapshot`, so the dict
        is internally consistent and always agrees with ``/metrics``.
        """
        snap = self.metrics.snapshot()
        return {
            "cache": self.cache._stats_from(snap),
            "batches_dispatched": int(
                snap["repro_service_batches_dispatched_total"]
            ),
            "requests_served": int(
                snap["repro_service_requests_served_total"]
            ),
            "requests_coalesced": int(
                snap["repro_service_requests_coalesced_total"]
            ),
            "requests_rejected": int(
                snap["repro_service_requests_rejected_total"]
            ),
            "requests_expired": int(
                snap["repro_service_requests_expired_total"]
            ),
            "queue_depth": int(snap["repro_service_queue_depth"]),
            "max_queue_depth": self.max_queue_depth,
            "draining": bool(snap["repro_service_draining"]),
        }

    # -- dispatch loop --------------------------------------------------

    def _loop(self) -> None:
        while not self._exiting():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            points = first.queries.shape[0]
            # No timer: the batch is whatever queued while the previous
            # one ran, so an idle service dispatches a lone request at
            # once and a busy one coalesces what its engine call held up.
            while points < self.max_batch_points:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                batch.append(nxt)
                points += nxt.queries.shape[0]
            self._dispatch(batch)

    def _exiting(self) -> bool:
        """True once this loop should return (it then forgets itself).

        Decided under the lifecycle lock, so a :meth:`start` racing the
        exit either revives this loop or finds no dispatcher and spawns
        one -- never neither, and never a second loop beside this one.
        """
        if not self._stop.is_set():
            return False
        with self._lifecycle_lock:
            if not self._stop.is_set():
                return False
            if self._thread is threading.current_thread():
                self._thread = None
            return True

    def _dispatch(self, batch: list[_Pending]) -> None:
        groups: "OrderedDict[tuple, list[_Pending]]" = OrderedDict()
        for req in batch:
            # A request past its deadline is failed, not executed -- its
            # waiter has given up; spending an engine call on it only
            # delays the still-live requests batched behind it.
            if not req._take():
                continue
            if req.kind in ("append", "delete"):
                # Mutations never coalesce: each is its own serialized
                # engine call, so the op log order equals dispatch order.
                key = (id(req),)
            else:
                key = (id(req.engine), req.eps, req.kind, req.k)
            groups.setdefault(key, []).append(req)
        for reqs in groups.values():
            # Grouped under the registry lock (reentrant) so a snapshot
            # never sees the batch counted but its requests not.
            with self.metrics.lock:
                self._c_batches.inc()
                self._c_served.inc(len(reqs))
                if len(reqs) > 1:
                    self._c_coalesced.inc(len(reqs))
                self._h_fill.observe(float(len(reqs)))
            t0 = time.perf_counter()
            # The time between submit and dispatch is the queue wait
            # (the engine calls ahead of it), attributed to each request
            # before the engine runs.
            for req in reqs:
                if req.span is not None:
                    self.tracer.record_span(
                        "queue.wait", t0 - req.submit_t, parent=req.span,
                        attrs={"batch_size": len(reqs)},
                    )
            # A read runs with its first traced request's engine.dispatch
            # span ambient, so spans the engine records itself (a mutable
            # store's per-layer passes) nest under that request.
            lead = None
            if reqs[0].kind in ("range", "knn"):
                lead = next((r for r in reqs if r.span is not None), None)
            dispatch = (
                self.tracer.start_span(
                    "engine.dispatch", parent=lead.span,
                    attrs={"batch_size": len(reqs)},
                )
                if lead is not None
                else None
            )
            try:
                with trace_mod.activate(dispatch):
                    self._run_group(reqs, dispatch)
            except BaseException as exc:  # propagate to every waiter
                dt = time.perf_counter() - t0
                for req in reqs:
                    if req.span is not None:
                        # An explicit error span: the message names the
                        # exception (injected faults carry their fault
                        # tag), and it flips on-error retention even if
                        # the front end never records the failure.
                        sp = (
                            dispatch
                            if req is lead and dispatch.duration_s is None
                            else self.tracer.start_span(
                                "engine.dispatch", parent=req.span,
                                attrs={"batch_size": len(reqs)},
                            )
                        )
                        sp.record_error(exc)
                        sp.duration_s = dt
                        sp.finish()
                    req._fail(exc)
                _logger.warning(
                    "batch dispatch failed",
                    extra={
                        "kind": reqs[0].kind,
                        "batch_size": len(reqs),
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            self._h_dispatch.observe(time.perf_counter() - t0)

    def _trace_exec(
        self, reqs: list[_Pending], cat_rows: int, exec_s: float,
        stages: dict[str, float], dispatch: "trace_mod.Span | None",
    ) -> None:
        """Attribute one engine dispatch to every traced request in it.

        Stage seconds are batch-wide (one engine call served the whole
        group), so coalesced requests share the same numbers -- the
        ``batch_size`` attribute says so.  ``dispatch`` is the span opened
        for the first traced request (the one engine-internal spans hang
        under); the others get a recorded copy.
        """
        for req in reqs:
            if req.span is None:
                continue
            attrs: dict = {
                "batch_size": len(reqs), "n_queries": cat_rows,
            }
            for stage, seconds in sorted(stages.items()):
                attrs[f"stage.{stage}_s"] = seconds
            if dispatch is not None:
                for key, value in attrs.items():
                    dispatch.set_attr(key, value)
                dispatch.duration_s = exec_s
                dispatch.finish()
                dispatch = None
                continue
            self.tracer.record_span(
                "engine.dispatch", exec_s, parent=req.span, attrs=attrs
            )

    def _observe_stages(self, stages: dict[str, float]) -> None:
        if not stages:
            return
        with self.metrics.lock:
            for stage, seconds in stages.items():
                self._h_stage.observe(seconds, stage=stage)

    def _run_group(
        self, reqs: list[_Pending], dispatch: "trace_mod.Span | None" = None
    ) -> None:
        if faults.ARMED:
            faults.check("service.dispatch")
        engine = reqs[0].engine
        kind = reqs[0].kind
        if kind in ("append", "delete"):
            req = reqs[0]
            t0 = time.perf_counter()
            if kind == "append":
                out = engine.append(req.queries)
                n, attr = int(out.size), "rows"
                ops, rows = self._c_appends, self._c_rows_appended
            else:
                out = n = int(engine.delete(req.queries))
                attr = "deleted"
                ops, rows = self._c_deletes, self._c_tombstones_written
            if req.span is not None:
                self.tracer.record_span(
                    f"engine.{kind}", time.perf_counter() - t0,
                    parent=req.span, attrs={attr: n},
                )
            with self.metrics.lock:
                ops.inc()
                rows.inc(n)
            req._fulfill(out)
            return
        t_asm = time.perf_counter()
        cat = (
            np.concatenate([r.queries for r in reqs])
            if len(reqs) > 1
            else reqs[0].queries
        )
        asm_s = time.perf_counter() - t_asm
        for req in reqs:
            if req.span is not None:
                self.tracer.record_span(
                    "batch.assemble", asm_s, parent=req.span,
                    attrs={"batch_size": len(reqs)},
                )
        # One TraceHooks per dispatch: the executors accumulate stage
        # seconds into it on this thread.  Installed unconditionally --
        # the repro_stage_seconds aggregates are a metrics feature, not a
        # sampling-gated one.
        hooks = trace_mod.TraceHooks()
        t_exec = time.perf_counter()
        with trace_mod.use_hooks(hooks):
            if kind == "knn":
                res = engine.knn_query(cat, reqs[0].k)
            else:
                res = engine.range_query(cat, reqs[0].eps)
        exec_s = time.perf_counter() - t_exec
        stages = hooks.snapshot()
        self._observe_stages(stages)
        self._trace_exec(reqs, int(cat.shape[0]), exec_s, stages, dispatch)
        split = _knn_rows if kind == "knn" else _range_rows
        off = 0
        for req in reqs:
            m = req.queries.shape[0]
            t_split = time.perf_counter()
            out = split(res, off, m)
            if req.span is not None:
                # Recorded before _fulfill: once the waiter holds the
                # answer it may finish the root and seal the trace.
                self.tracer.record_span(
                    "batch.split", time.perf_counter() - t_split,
                    parent=req.span,
                )
            req._fulfill(out)
            off += m


def _knn_rows(res: KnnResult, off: int, m: int) -> KnnResult:
    """Rows ``off:off+m`` of a batch's kNN answer."""
    return KnnResult(
        k=res.k,
        n_points=res.n_points,
        indices=res.indices[off : off + m],
        sq_dists=res.sq_dists[off : off + m],
    )


def _range_rows(res: JoinResult, off: int, m: int) -> JoinResult:
    """The pairs of query rows ``off:off+m`` of a batch's range answer,
    renumbered from 0."""
    sel = (res.pairs_i >= off) & (res.pairs_i < off + m)
    return JoinResult(
        n_left=m,
        n_right=res.n_right,
        eps=res.eps,
        pairs_i=res.pairs_i[sel] - off,
        pairs_j=res.pairs_j[sel],
        sq_dists=res.sq_dists[sel] if res.sq_dists.size else res.sq_dists,
    )


# ----------------------------------------------------------------------
# JSON-over-HTTP front end (stdlib http.server)
# ----------------------------------------------------------------------


def _range_payload(res: JoinResult) -> dict:
    """Group a range answer per query: neighbor lists + distances."""
    order = np.lexsort((res.pairs_j, res.pairs_i))
    pi = res.pairs_i[order]
    pj = res.pairs_j[order]
    counts = np.bincount(pi, minlength=res.n_left)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    neighbors = [
        pj[bounds[i] : bounds[i + 1]].tolist() for i in range(res.n_left)
    ]
    out = {"n_queries": int(res.n_left), "eps": res.eps, "neighbors": neighbors}
    # Emit the key whenever distances are tracked -- including the
    # zero-pair case (size 0 == 0 pairs), so the response shape does not
    # flip on clients when a request happens to match nothing.
    if res.sq_dists.size == res.pairs_i.size:
        sd = res.sq_dists[order]
        out["sq_dists"] = [
            sd[bounds[i] : bounds[i + 1]].astype(float).tolist()
            for i in range(res.n_left)
        ]
    return out


def _knn_payload(res: KnnResult) -> dict:
    """JSON view of a kNN answer (strict-parser-safe distances)."""
    return {
        "k": res.k,
        "indices": res.indices.tolist(),
        # Padding slots (k > n) carry +inf, which is not valid JSON --
        # strict parsers reject "Infinity"; send null there instead.
        "sq_dists": [
            [float(x) if np.isfinite(x) else None for x in row]
            for row in res.sq_dists
        ],
    }


#: Every route either front end serves.  Unknown paths share one
#: metrics label ("other") so a scanner cannot grow the registry.
KNOWN_ENDPOINTS = (
    "/range", "/knn", "/append", "/delete", "/compact",
    "/healthz", "/stats", "/metrics",
)

_POST_ENDPOINTS = ("/range", "/knn", "/append", "/delete", "/compact")


def _endpoint_label(path: str) -> str:
    """Bounded metrics label for a request path.

    Known routes map to themselves; the whole ``/trace/*`` family shares
    one label (trace ids must not grow the registry); everything else is
    ``"other"`` so a scanner cannot either.
    """
    if path in KNOWN_ENDPOINTS:
        return path.lstrip("/")
    if path == "/trace/recent" or path.startswith("/trace/"):
        return "trace"
    return "other"


def _get_route(svc: QueryService, registry: dict, path: str):
    """GET routing: ``(status, payload)`` for the JSON endpoints.

    ``/metrics`` is not handled here: its body is Prometheus text,
    rendered strictly before the request is counted so scrapes stay
    monotonic.
    """
    if path == "/healthz":
        if svc.draining:
            return 503, {"status": "draining", "indexes": sorted(registry)}
        return 200, {"status": "ok", "indexes": sorted(registry)}
    if path == "/stats":
        return 200, svc.stats()
    if path == "/trace/recent":
        return 200, {
            "traces": svc.tracer.recent(), **svc.tracer.counters()
        }
    if path.startswith("/trace/"):
        trace_id = path[len("/trace/"):]
        trace = svc.tracer.get_trace(trace_id)
        if trace is None:
            return 404, {
                "error": f"no retained trace {trace_id!r} (it may have "
                         "been dropped by sampling or rotated out of "
                         "the ring)"
            }
        return 200, trace
    return 404, {"error": f"unknown path {path}"}


def _post_route(svc: QueryService, registry: dict, path: str, raw: bytes):
    """POST routing: ``(status, payload, headers)`` for one request body.

    Validates ``raw``, runs the service call -- blocking in
    ``pending.result`` (until the request's deadline) for queries and
    writes, or in the compaction itself -- and formats the 200 payload.  Service-typed errors
    (overload, draining, malformed input) raise to the caller, which
    maps them through :func:`_error_response`.
    """
    req = json.loads(raw or b"{}")
    if not isinstance(req, dict):
        return 400, {"error": "request body must be a JSON object"}, None
    name = req.get("index", "default")
    if name not in registry:
        return (404, {"error": f"unknown index {name!r}",
                      "indexes": sorted(registry)}, None)
    index = registry[name]
    if path == "/compact":
        return 200, {"compacted": True, **svc.compact(index)}, None
    if path == "/append":
        pending = svc.submit_append(
            index, np.asarray(req["rows"], dtype=np.float64)
        )
        to_payload = lambda ids: {"ids": ids.tolist()}
    elif path == "/delete":
        pending = svc.submit_delete(index, req["ids"])
        to_payload = lambda deleted: {"deleted": int(deleted)}
    else:
        queries = np.asarray(req["queries"], dtype=np.float64)
        if path == "/knn":
            pending = svc.submit(index, queries, k=int(req.get("k", 1)))
            to_payload = _knn_payload
        else:
            pending = svc.submit(index, queries, eps=req.get("eps"))
            to_payload = _range_payload
    return 200, to_payload(pending.result()), None


def _error_response(exc: BaseException):
    """Map an exception to the shared JSON error contract.

    The same chain the HTTP layer has always applied: admission
    rejection -> 429 + Retry-After, draining -> 503, deadline -> 504, a
    registered index that fails verification -> 500 (the server's data,
    not the client's request, is at fault; checked before its
    :class:`ValueError` base), malformed input -> 400, anything else ->
    a JSON 500 (a stack trace never crosses the wire).  Returns
    ``(status, payload, headers)``.
    """
    if isinstance(exc, ServiceOverloaded):
        return (429, {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": f"{exc.retry_after:.3f}"})
    if isinstance(exc, ServiceShuttingDown):
        return 503, {"error": str(exc)}, None
    if isinstance(exc, DeadlineExceeded):
        return 504, {"error": str(exc)}, None
    if isinstance(exc, CorruptIndexError):
        return 500, {"error": f"{type(exc).__name__}: {exc}"}, None
    if isinstance(exc, (KeyError, TypeError, ValueError)):
        return 400, {"error": str(exc)}, None
    return 500, {"error": f"{type(exc).__name__}: {exc}"}, None


def make_server(
    indexes: "dict[str, str | Path]",
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    service: QueryService | None = None,
    precision: str = "fp64",
    max_queue_depth: int = 256,
    verify: str = "header",
    max_body_bytes: int = 8 << 20,
    trace_sample: float = 0.0,
    trace_log: "str | Path | None" = None,
    slow_ms: float | None = None,
):
    """Build (but do not run) the JSON-over-HTTP query server.

    ``indexes`` maps request-visible names to persisted index paths; the
    paths are validated (header magic/version) eagerly so a bad registry
    fails at startup, not on the first request.  Call
    ``serve_forever()`` on the result (and ``shutdown()`` to stop); the
    attached :class:`QueryService` is started with the server and
    stopped when the server closes.

    The server is a keep-alive ``ThreadingHTTPServer`` -- one thread
    per connection, bounded by the service's own admission queue.

    Every failure mode answers with well-formed JSON, never a stack
    trace: 400 (malformed request or ``Content-Length``), 404 (unknown
    path/index), 413 (body over ``max_body_bytes``), 429 +
    ``Retry-After`` (admission queue full), 503 (draining), 504 (the
    request's deadline passed before it ran), 500 (anything
    unexpected, as ``{"error": ...}``).

    Tracing: every request opens a root span and every response --
    errors included -- echoes its trace id as ``X-Request-Id``.
    ``trace_sample`` is the probability a completed trace is *retained*
    for ``GET /trace/recent`` / ``/trace/<id>`` (errored traces are
    always kept); ``trace_log`` appends retained spans to a JSONL file
    (``python -m repro trace report`` renders it); ``slow_ms`` always
    retains traces whose root ran at least that long (the slow-query
    log).  These knobs are ignored when an explicit ``service`` (with
    its own tracer) is passed.
    """
    registry = {name: Path(p) for name, p in indexes.items()}
    if not registry:
        raise ValueError("at least one index must be registered")
    for name, path in registry.items():
        # Fail fast on bad registrations: mutable stores validate their
        # manifest, immutable ones their header magic/version.
        if is_mutable_index(path):
            read_manifest(path)
        else:
            read_header(path)
    svc = service or QueryService(
        precision=precision,
        max_queue_depth=max_queue_depth,
        verify=verify,
        tracer=trace_mod.Tracer(
            sample=trace_sample,
            jsonl_path=trace_log,
            slow_threshold_s=(
                float(slow_ms) / 1e3 if slow_ms is not None else None
            ),
        ),
    )
    http_requests = svc.metrics.counter(
        "repro_http_requests_total",
        "HTTP requests answered, by endpoint and status code",
        labels=("endpoint", "status"),
    )
    http_latency = svc.metrics.histogram(
        "repro_http_request_seconds",
        "HTTP request handling latency, by endpoint",
        labels=("endpoint",),
    )
    class Handler(BaseHTTPRequestHandler):
        # Keep-alive: clients reuse one TCP connection across requests.
        # Content-Length is always sent, so response framing is explicit
        # (HTTP/1.0 would close the socket after every response).
        protocol_version = "HTTP/1.1"
        # The stdlib handler writes headers and body as separate sends;
        # with Nagle on, the body waits for the client's delayed ACK of
        # the headers (up to 40 ms).  StreamRequestHandler.setup() sets
        # TCP_NODELAY on every accepted socket when this is true.
        disable_nagle_algorithm = True

        # Serving diagnostics go through the return payloads; the default
        # per-request stderr line would swamp concurrent smoke runs.
        def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
            pass

        def _begin(self) -> None:
            self._t0 = time.perf_counter()
            # Unknown paths share one label so a scanner cannot grow the
            # registry without bound.
            self._endpoint = _endpoint_label(self.path)
            # Root span per request; its trace id doubles as the
            # X-Request-Id echoed on every response.
            self._span = svc.tracer.start_trace(
                f"{self.command} {self._endpoint}",
                request_id=self.headers.get("X-Request-Id"),
                traceparent=self.headers.get("traceparent"),
                attrs={"method": self.command, "path": self.path},
            )

        def _send(
            self, code: int, body: bytes,
            content_type: str = "application/json",
            headers: "dict[str, str] | None" = None,
        ) -> None:
            # Counted before the body is written: a client holding the
            # response is guaranteed to find the request in /metrics.
            http_requests.inc(endpoint=self._endpoint, status=str(code))
            http_latency.observe(
                time.perf_counter() - self._t0, endpoint=self._endpoint
            )
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", self._span.trace_id)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
            self._span.set_attr("http.status", code)
            self._span.finish()

        def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
            self._begin()
            with trace_mod.activate(self._span):
                if self.path == "/metrics":
                    # Rendered before _send counts this request: the
                    # text is a snapshot taken strictly before the
                    # response completes, so counters stay monotonic
                    # across scrapes.
                    body = svc.metrics.render().encode()
                    self._send(200, body, PROMETHEUS_CONTENT_TYPE)
                    return
                code, payload = _get_route(svc, registry, self.path)
                self._send(code, json.dumps(payload).encode())

        def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
            self._begin()
            # The root span is ambient for the whole handling block, so
            # submit() (via _post_route) attributes the request's
            # queue/dispatch/split child spans to it.
            with trace_mod.activate(self._span):
                declared = self.headers.get("Content-Length", "0")
                try:
                    length = int(declared)
                except ValueError:
                    length = -1
                if not 0 <= length <= max_body_bytes:
                    # The body is deliberately left unread (a negative
                    # length would read to EOF), so the connection cannot
                    # be re-framed: close it rather than desync keep-alive
                    # parsing on the leftovers.
                    self.close_connection = True
                    if length < 0:
                        code = 400
                        error = f"invalid Content-Length {declared!r}"
                    else:
                        code = 413
                        error = (
                            f"request body of {length} bytes exceeds the "
                            f"{max_body_bytes} byte limit"
                        )
                    self._send(
                        code, json.dumps({"error": error}).encode(),
                        headers={"Connection": "close"},
                    )
                    return
                try:
                    raw = self.rfile.read(length)
                    # Body drained first: under keep-alive, even a 404
                    # must leave the stream positioned at the next
                    # request line.
                    if self.path not in _POST_ENDPOINTS:
                        code, payload, headers = (
                            404, {"error": f"unknown path {self.path}"}, None
                        )
                    else:
                        code, payload, headers = _post_route(
                            svc, registry, self.path, raw
                        )
                except Exception as exc:  # noqa: BLE001 -- a JSON error
                    # beats a dropped connection.
                    self._span.record_error(exc)
                    code, payload, headers = _error_response(exc)
                self._send(
                    code, json.dumps(payload).encode(), headers=headers
                )

    server = ThreadingHTTPServer((host, port), Handler)
    server.service = svc  # type: ignore[attr-defined]
    svc.start()
    _logger.info(
        "server built",
        extra={
            "indexes": ",".join(sorted(registry)),
            "host": server.server_address[0],
            "port": int(server.server_address[1]),
            "trace_sample": svc.tracer.sample,
        },
    )
    _orig_close = server.server_close

    def _close() -> None:
        svc.stop()
        svc.tracer.close()  # flush the JSONL exporter, if any
        _orig_close()

    server.server_close = _close  # type: ignore[method-assign]
    return server


def _health_check(host: str, port: int, trace_sample: float) -> dict:
    """Scrape a live server's observability surface after a smoke.

    Returns ``metrics_series`` (samples parsed from ``/metrics``),
    ``http_5xx`` (5xx answers counted in ``repro_http_requests_total``),
    ``traces_retained`` (``POST`` query traces in the ``/trace/recent``
    ring; the scrapes' own GETs do not count) and ``problems``:
    ``/metrics`` that does not parse, any 5xx, or -- with tracing armed
    -- no retained query trace.
    """
    from repro.service.client import ServiceClient

    problems: list[str] = []
    out = {"metrics_series": 0, "http_5xx": 0, "traces_retained": 0}
    with ServiceClient(host, port, timeout=30.0) as sc:
        try:
            samples = parse_prometheus_text(sc.metrics_text())
        except (ValueError, RuntimeError) as exc:
            problems.append(f"/metrics failed to parse: {exc}")
        else:
            out["metrics_series"] = len(samples)
            out["http_5xx"] = int(sum(
                v for key, v in samples.get(
                    "repro_http_requests_total", {}
                ).items()
                if dict(key).get("status", "").startswith("5")
            ))
            if out["http_5xx"]:
                problems.append(f"server answered {out['http_5xx']} 5xx")
        status, body, _ = sc.request_once("GET", "/trace/recent")
        if status == 200 and isinstance(body, dict):
            out["traces_retained"] = sum(
                1 for t in body.get("traces", [])
                if str(t.get("root", "")).startswith("POST ")
            )
        else:
            problems.append(f"/trace/recent returned HTTP {status}")
    if trace_sample > 0 and not out["traces_retained"]:
        problems.append("tracing armed but no traces retained")
    out["problems"] = problems
    return out


def run_self_test(
    index_path: str | Path,
    *,
    n_clients: int = 4,
    queries_per_client: int = 8,
    max_queue_depth: int = 256,
    verify: str = "header",
    trace_sample: float = 0.0,
    trace_log: "str | Path | None" = None,
    slow_ms: "float | None" = None,
) -> dict:
    """One-shot serve smoke: spin up, hammer, verify, check, shut down.

    Starts the HTTP server on an ephemeral port, fires ``n_clients``
    concurrent :class:`~repro.service.client.ServiceClient` threads at
    ``/range`` and ``/knn`` for one cached index, and verifies every
    HTTP answer against a direct serial :class:`QueryEngine` call on the
    same points.  The retrying client absorbs any 429s the admission
    queue emits (CI runs this with ``service.dispatch`` delay faults
    armed and a small ``max_queue_depth`` to force exactly that).
    Before shutting down it scrapes the server's own health surface:
    ``/metrics`` must parse, no request may have been answered 5xx, and
    with ``trace_sample > 0`` the ``/trace/recent`` ring must hold at
    least one query trace.  The smoke passes iff every request lands bit-exact
    and the health check is clean; otherwise it raises
    :class:`AssertionError`.  The server is shut down on every path,
    setup failures included.  Returns a summary dict -- the CI
    ``serve --self-test`` path.
    """
    from repro.service.client import ServiceClient
    from repro.service.query import sample_queries

    index_path = Path(index_path)
    server = make_server(
        {"default": index_path}, port=0,
        max_queue_depth=max_queue_depth, verify=verify,
        trace_sample=trace_sample, trace_log=trace_log, slow_ms=slow_ms,
    )
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        engine = server.service.cache.get(index_path)  # type: ignore[attr-defined]
        all_queries = sample_queries(
            engine, engine.eps, n_clients * queries_per_client, seed=0
        )
        errors: list[str] = []
        retries = [0] * n_clients

        def client(ci: int) -> None:
            rows = all_queries[
                ci * queries_per_client : (ci + 1) * queries_per_client
            ]
            try:
                sc = ServiceClient(host, port, timeout=30.0, max_attempts=8)
                got = sc.range_query(rows.tolist(), index="default")
                want = engine.range_query(rows)
                want_sets = [set() for _ in range(rows.shape[0])]
                for i, j in zip(want.pairs_i.tolist(), want.pairs_j.tolist()):
                    want_sets[i].add(j)
                for i, neigh in enumerate(got["neighbors"]):
                    if set(neigh) != want_sets[i]:
                        errors.append(
                            f"client {ci}: range mismatch on query {i}"
                        )
                got_knn = sc.knn_query(rows.tolist(), k=3, index="default")
                want_knn = engine.knn_query(rows, 3)
                if got_knn["indices"] != want_knn.indices.tolist():
                    errors.append(f"client {ci}: knn mismatch")
                retries[ci] = sc.retries
                sc.close()
            except Exception as exc:  # noqa: BLE001 -- surfaced in the summary
                errors.append(f"client {ci}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(ci,))
            for ci in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.service.stats()  # type: ignore[attr-defined]
        health = _health_check(host, port, trace_sample)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    errors.extend(health.pop("problems"))
    if errors:
        raise AssertionError("; ".join(errors))
    return {
        "clients": n_clients,
        "queries_per_client": queries_per_client,
        "client_retries": sum(retries),
        **health,
        "stats": stats,
    }


__all__ = [
    "IndexCache",
    "QueryService",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceShuttingDown",
    "DeadlineExceeded",
    "make_server",
    "run_self_test",
]
