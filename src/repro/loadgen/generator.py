"""Open- and closed-loop load generation against the query service.

Two loop disciplines (the distinction matters -- they measure different
things):

* **Closed loop** (``mode="closed"``): ``concurrency`` workers each
  issue one request, wait for its answer, and immediately issue the
  next.  Offered load adapts to service speed, so a slow service simply
  sees fewer requests -- the right discipline for "how fast can N
  clients go" and for deterministic tests (with one worker, a seeded
  RNG, and an injected clock the request sequence is a pure function of
  the config).
* **Open loop** (``mode="open"``): arrivals follow a fixed schedule
  (``target_rps``), independent of completions.  Latency is measured
  from the *scheduled* arrival instant, so queueing delay under
  saturation is charged to the request (no coordinated omission).  The
  right discipline for "what happens at X RPS" and for finding the
  saturation knee of an RPS sweep (:func:`saturation_knee`).

The query mix (range/kNN ratio, batch size, eps/k) and the key-skew
come from :class:`QuerySampler`: with ``zipf_s > 0`` on a grid-backed
index, query points are drawn Zipf-skewed over grid-*cell* popularity
ranks, so a skewed run hammers a few hot cells -- exactly the access
pattern the engine's hot-cell candidate LRU and the service's admission
control exist for.  Per-request outcomes stream into a
:class:`~repro.service.metrics.LogHistogram` (HDR-style log buckets;
p50/p95/p99 from bucket counts) plus a status breakdown
(``ok``/``429``/``503``/``504``/``error``/``dropped``) -- no unbounded
per-request retention unless records are requested.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro import trace as trace_mod
from repro.service.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    LogHistogram,
    parse_prometheus_text,
)
from repro.service.server import (
    DeadlineExceeded,
    QueryService,
    ServiceOverloaded,
    ServiceShuttingDown,
)

#: Status labels a request can resolve to.  ``dropped`` is generator-side
#: shedding: an open-loop arrival so far behind schedule that issuing it
#: would only measure the generator's own backlog.
STATUSES = ("ok", "429", "503", "504", "error", "dropped")


@dataclass
class WorkloadConfig:
    """One load bout: loop discipline, stop condition, and query mix."""

    mode: str = "closed"  # "closed" | "open"
    duration_s: float = 5.0
    target_rps: float = 100.0  # open-loop arrival rate
    concurrency: int = 4  # closed-loop workers / open-loop in-flight cap
    max_requests: int | None = None  # optional request budget
    range_fraction: float = 1.0  # share of *read* requests going to /range
    append_fraction: float = 0.0  # share of requests appending rows (mutable)
    delete_fraction: float = 0.0  # share of requests deleting rows (mutable)
    batch_size: int = 8  # query rows per request
    k: int = 5  # kNN neighbor count
    eps_scale: float = 1.0  # range radius = eps_scale * index eps
    zipf_s: float = 0.0  # cell-popularity skew exponent (0 = uniform)
    deadline_s: float | None = None  # per-request deadline (in-process)
    think_time_s: float = 0.0  # closed-loop pause between requests
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.target_rps <= 0:
            raise ValueError("target_rps must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError("max_requests must be >= 1 when given")
        if not 0.0 <= self.range_fraction <= 1.0:
            raise ValueError("range_fraction must be in [0, 1]")
        if not 0.0 <= self.append_fraction <= 1.0:
            raise ValueError("append_fraction must be in [0, 1]")
        if not 0.0 <= self.delete_fraction <= 1.0:
            raise ValueError("delete_fraction must be in [0, 1]")
        if self.append_fraction + self.delete_fraction > 1.0:
            raise ValueError(
                "append_fraction + delete_fraction must not exceed 1"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.eps_scale <= 1.0:
            raise ValueError(
                "eps_scale must be in (0, 1] -- a range query radius must "
                "not exceed the index eps"
            )
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if self.think_time_s < 0:
            raise ValueError("think_time_s must be >= 0")


#: Field names a config file may set (runner validation).
WORKLOAD_KEYS = frozenset(f.name for f in fields(WorkloadConfig))


class QuerySampler:
    """Deterministic query-mix sampler over an engine's indexed dataset.

    A pool of ``pool_size`` query points is drawn up front: dataset rows
    -- uniform, or Zipf-skewed over grid-cell popularity ranks
    (``zipf_s > 0`` on a grid index: cell of rank ``r`` drawn with
    probability proportional to ``r**-zipf_s``, then a uniform member of
    that cell) -- jittered by ``eps/4`` like
    :func:`~repro.service.query.sample_queries`.  Each request then
    draws ``batch_size`` pool rows and a kind from ``range_fraction``.
    Everything downstream of the constructor uses only the caller's RNG,
    so per-worker seeded streams reproduce exactly.
    """

    def __init__(self, engine, config: WorkloadConfig, *,
                 pool_size: int = 512) -> None:
        self.config = config
        self.eps = float(engine.eps) * config.eps_scale
        self.k = int(config.k)
        self.batch_size = int(config.batch_size)
        self.range_fraction = float(config.range_fraction)
        self.append_fraction = float(config.append_fraction)
        self.delete_fraction = float(config.delete_fraction)
        rng = np.random.default_rng(config.seed)
        # A MutableIndex samples from its *base* generation -- that is
        # where the dataset and (for zipf) the grid occupancy live.
        eng = getattr(engine, "base_engine", engine)
        rows = self._draw_rows(eng, config, rng, pool_size)
        base = eng.source.take(np.asarray(rows, dtype=np.int64))
        jitter = rng.uniform(-engine.eps / 4.0, engine.eps / 4.0, base.shape)
        self.pool = np.ascontiguousarray(base + jitter)

    @staticmethod
    def _draw_rows(engine, config, rng, pool_size: int) -> np.ndarray:
        n = int(engine.n_points)
        if config.zipf_s > 0 and getattr(engine, "kind", None) == "grid":
            grid = engine.index
            starts, ends, sort = grid._starts, grid._ends, grid._sort
            counts = ends - starts
            if counts.size:
                order = np.argsort(counts)[::-1]  # cells by popularity
                ranks = np.arange(1, order.size + 1, dtype=np.float64)
                probs = ranks ** -config.zipf_s
                probs /= probs.sum()
                cells = rng.choice(order, size=pool_size, p=probs)
                return np.array(
                    [
                        int(sort[int(rng.integers(starts[c], ends[c]))])
                        for c in cells
                    ],
                    dtype=np.int64,
                )
        # Uniform fallback: tree indexes, no skew requested, or an
        # (impossible in practice) empty grid.
        return rng.integers(0, n, size=pool_size)

    def make_request(self, rng) -> tuple:
        """``(kind, queries, eps, k)`` for one request, from ``rng`` only.

        With a nonzero append/delete mix the mutation kind is drawn
        first; ``queries`` then carries the rows to append (deletes also
        get rows, so a target with nothing of its own to delete yet can
        fall back to an append instead of wasting the slot).
        """
        idx = rng.integers(0, self.pool.shape[0], size=self.batch_size)
        queries = self.pool[idx]
        if self.append_fraction > 0.0 or self.delete_fraction > 0.0:
            r = rng.random()
            if r < self.append_fraction:
                return "append", queries, None, None
            if r < self.append_fraction + self.delete_fraction:
                return "delete", queries, None, None
        if self.range_fraction >= 1.0 or rng.random() < self.range_fraction:
            return "range", queries, self.eps, None
        return "knn", queries, None, self.k


# ----------------------------------------------------------------------
# Targets: where a generated request goes
# ----------------------------------------------------------------------


class InProcessTarget:
    """Submit through a live :class:`QueryService` in this process."""

    def __init__(self, service: QueryService, index, *,
                 timeout_s: float = 30.0) -> None:
        self.service = service
        self.engine = service.engine_for(index)
        self.timeout_s = float(timeout_s)
        # Ids this target appended and has not yet deleted.  Each worker
        # deletes only rows it owns, so a mixed workload never races two
        # workers onto the same id (which would 400 under
        # ``missing="error"``).
        self._ids: list[int] = []

    def issue(self, kind, queries, eps, k, deadline_s) -> str:
        try:
            if kind in ("append", "delete"):
                if kind == "delete" and self._ids:
                    ids = [
                        self._ids.pop()
                        for _ in range(min(len(self._ids), queries.shape[0]))
                    ]
                    self.service.submit_delete(
                        self.engine, ids, deadline_s=deadline_s
                    ).result(self.timeout_s)
                else:  # append, or a delete with nothing owned yet
                    minted = self.service.submit_append(
                        self.engine, queries, deadline_s=deadline_s
                    ).result(self.timeout_s)
                    self._ids.extend(int(i) for i in minted)
                return "ok"
            pending = self.service.submit(
                self.engine,
                queries,
                eps=eps if kind == "range" else None,
                k=k if kind == "knn" else None,
                deadline_s=deadline_s,
            )
            pending.result(self.timeout_s)
            return "ok"
        except ServiceOverloaded:
            return "429"
        except DeadlineExceeded:  # before TimeoutError: it subclasses it
            return "504"
        except ServiceShuttingDown:
            return "503"
        except Exception:  # noqa: BLE001 -- any other failure is "error"
            return "error"

    def close(self) -> None:
        pass


class HttpTarget:
    """Drive a running ``serve`` endpoint over HTTP.

    Uses :meth:`~repro.service.client.ServiceClient.request_once` -- one
    attempt, **no** retries -- so every 429/503 the admission layer
    emits is *counted*, not absorbed; a load generator that silently
    retried would report the post-backoff world and hide the knee.
    One instance per worker thread (one underlying connection).
    """

    def __init__(self, host: str, port: int, *, index: str = "default",
                 timeout_s: float = 30.0) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(host, port, timeout=timeout_s,
                                    max_attempts=1)
        self.index = index
        self._ids: list[int] = []  # appended-and-not-deleted (this worker)
        #: Server-echoed ``X-Request-Id`` of the last attempt (None after
        #: a connection-level failure) -- the generator loops copy it
        #: into each :class:`RequestRecord`.
        self.last_request_id: "str | None" = None

    def issue(self, kind, queries, eps, k, deadline_s) -> str:
        if kind in ("append", "delete"):
            return self._issue_mutation(kind, queries)
        payload: dict = {"index": self.index, "queries": queries.tolist()}
        if kind == "knn":
            payload["k"] = int(k)
            path = "/knn"
        else:
            if eps is not None:
                payload["eps"] = float(eps)
            path = "/range"
        try:
            status, _parsed, _retry_after = self.client.request_once(
                "POST", path, payload
            )
        except Exception:  # noqa: BLE001 -- connection-level failure
            self.last_request_id = None
            return "error"
        self.last_request_id = self.client.last_request_id
        if status == 200:
            return "ok"
        if status in (429, 503, 504):
            return str(status)
        return "error"

    def _issue_mutation(self, kind, queries) -> str:
        if kind == "delete" and self._ids:
            ids = [
                self._ids.pop()
                for _ in range(min(len(self._ids), queries.shape[0]))
            ]
            path, payload = "/delete", {"index": self.index, "ids": ids}
        else:  # append, or a delete with nothing owned yet
            path = "/append"
            payload = {"index": self.index, "rows": queries.tolist()}
        try:
            status, parsed, _retry_after = self.client.request_once(
                "POST", path, payload
            )
        except Exception:  # noqa: BLE001 -- connection-level failure
            self.last_request_id = None
            return "error"
        self.last_request_id = self.client.last_request_id
        if status == 200:
            if path == "/append":
                self._ids.extend(int(i) for i in parsed.get("ids", ()))
            return "ok"
        if status in (429, 503, 504):
            return str(status)
        return "error"

    def close(self) -> None:
        self.client.close()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class RequestRecord:
    """One issued request (kept only up to the generator's record cap)."""

    t_offset_s: float  # issue (closed) / scheduled-arrival (open) offset
    latency_s: float
    status: str
    kind: str
    n_queries: int
    #: The server-echoed ``X-Request-Id`` (== its trace id); ``None`` for
    #: in-process targets and failed connections.  Quote it to
    #: ``GET /trace/<id>`` to pull the request's span tree.
    request_id: "str | None" = None


@dataclass
class LoadResult:
    """Outcome of one load bout: breakdowns + streaming latency histogram."""

    config: WorkloadConfig
    duration_s: float
    offered: int  # requests issued (every status, including dropped)
    statuses: dict
    latency: LogHistogram  # ok-request latency only
    records: list = field(default_factory=list)
    #: Engine pipeline seconds per stage accumulated *during this bout*
    #: (the ``repro_stage_seconds`` delta), attached by the convenience
    #: drivers when the metrics are reachable; ``None`` otherwise.  When
    #: set, :meth:`summary` grows one ``stage_<name>_seconds`` column
    #: per stage in :data:`repro.trace.STAGES` order.
    stages: "dict | None" = None

    @property
    def ok(self) -> int:
        return int(self.statuses.get("ok", 0))

    @property
    def throughput_rps(self) -> float:
        return self.ok / max(self.duration_s, 1e-9)

    @property
    def error_rate(self) -> float:
        return 1.0 - self.ok / max(self.offered, 1)

    def summary(self) -> dict:
        """One flat run-table row (JSON/CSV-safe: NaN becomes None)."""

        def _ms(q: float) -> "float | None":
            v = self.latency.quantile(q) * 1e3
            return None if math.isnan(v) else v

        snap = self.latency.snapshot()
        row = {
            "mode": self.config.mode,
            "offered_rps": (
                self.config.target_rps if self.config.mode == "open"
                else self.offered / max(self.duration_s, 1e-9)
            ),
            "concurrency": self.config.concurrency,
            "batch_size": self.config.batch_size,
            "range_fraction": self.config.range_fraction,
            "zipf_s": self.config.zipf_s,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "ok": self.ok,
            "err_429": int(self.statuses.get("429", 0)),
            "err_503": int(self.statuses.get("503", 0)),
            "err_504": int(self.statuses.get("504", 0)),
            "err_other": int(self.statuses.get("error", 0)),
            "dropped": int(self.statuses.get("dropped", 0)),
            "error_rate": self.error_rate,
            "throughput_rps": self.throughput_rps,
            "p50_ms": _ms(0.50),
            "p95_ms": _ms(0.95),
            "p99_ms": _ms(0.99),
            "max_ms": (None if snap["count"] == 0 else snap["max"] * 1e3),
            "mean_ms": (
                None if snap["count"] == 0
                else snap["sum"] / snap["count"] * 1e3
            ),
        }
        if self.stages is not None:
            # Fixed column set in STAGES order (not just observed stages)
            # so every row in a sweep CSV has identical headers.
            for stage in trace_mod.STAGES:
                row[f"stage_{stage}_seconds"] = float(
                    self.stages.get(stage, 0.0)
                )
        return row


# ----------------------------------------------------------------------
# The generator loops
# ----------------------------------------------------------------------


def run_load(
    config: WorkloadConfig,
    target_factory,
    sampler: QuerySampler,
    *,
    clock=time.monotonic,
    sleep=time.sleep,
    record_limit: int = 10_000,
) -> LoadResult:
    """Run one load bout and aggregate its outcome.

    ``target_factory()`` is called once per worker thread (targets hold
    per-thread state such as an HTTP connection).  ``clock`` and
    ``sleep`` are injectable so tests can drive the generator on a fake
    clock; request *content* is deterministic regardless of timing --
    closed-loop worker ``w`` draws from ``default_rng((seed, w))``, and
    open-loop request ``i`` draws from ``default_rng((seed, 1 << 32, i))``,
    so neither thread interleaving nor wall time changes what is asked.
    """
    if config.mode == "closed":
        return _run_closed(config, target_factory, sampler,
                           clock=clock, sleep=sleep, record_limit=record_limit)
    return _run_open(config, target_factory, sampler,
                     clock=clock, sleep=sleep, record_limit=record_limit)


class _Collector:
    """Thread-safe status counts + bounded records + shared histogram."""

    def __init__(self, record_limit: int) -> None:
        self.lock = threading.Lock()
        self.statuses: dict[str, int] = {}
        self.records: list[RequestRecord] = []
        self.latency = LogHistogram(DEFAULT_LATENCY_BUCKETS)
        self.record_limit = record_limit
        self.offered = 0
        self.crash: "BaseException | None" = None

    def crashed(self, exc: BaseException) -> None:
        """Record a worker *infrastructure* failure (factory/sampler).

        Request-level failures become status counts; an exception that
        escapes the worker loop means the harness itself is broken, and
        silently reporting zero offered load would mask it -- the first
        such exception re-raises from :func:`run_load` after join.
        """
        with self.lock:
            if self.crash is None:
                self.crash = exc

    def add(self, record: RequestRecord) -> None:
        with self.lock:
            self.offered += 1
            self.statuses[record.status] = (
                self.statuses.get(record.status, 0) + 1
            )
            if len(self.records) < self.record_limit:
                self.records.append(record)
        if record.status == "ok":
            self.latency.observe(record.latency_s)


def _split_quota(total: "int | None", workers: int) -> list:
    """Pre-split a request budget across workers (deterministic shares)."""
    if total is None:
        return [None] * workers
    base, extra = divmod(int(total), workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _run_closed(config, target_factory, sampler, *, clock, sleep,
                record_limit) -> LoadResult:
    col = _Collector(record_limit)
    start = clock()
    t_end = start + config.duration_s
    quotas = _split_quota(config.max_requests, config.concurrency)

    def worker(wi: int) -> None:
        try:
            rng = np.random.default_rng((config.seed, wi))
            target = target_factory()
            issued = 0
            try:
                while quotas[wi] is None or issued < quotas[wi]:
                    now = clock()
                    if now >= t_end:
                        break
                    kind, queries, eps, k = sampler.make_request(rng)
                    t0 = clock()
                    status = target.issue(kind, queries, eps, k,
                                          config.deadline_s)
                    t1 = clock()
                    col.add(RequestRecord(
                        t0 - start, t1 - t0, status, kind, queries.shape[0],
                        request_id=getattr(target, "last_request_id", None),
                    ))
                    issued += 1
                    if config.think_time_s > 0:
                        sleep(config.think_time_s)
            finally:
                target.close()
        except BaseException as exc:  # harness failure, not a request
            col.crashed(exc)

    threads = [
        threading.Thread(target=worker, args=(wi,), daemon=True)
        for wi in range(config.concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if col.crash is not None:
        raise col.crash
    return LoadResult(
        config=config,
        duration_s=max(clock() - start, 1e-9),
        offered=col.offered,
        statuses=col.statuses,
        latency=col.latency,
        records=col.records,
    )


def _run_open(config, target_factory, sampler, *, clock, sleep,
              record_limit) -> LoadResult:
    n_sched = (
        int(config.max_requests)
        if config.max_requests is not None
        else max(1, int(config.duration_s * config.target_rps))
    )
    interval = 1.0 / config.target_rps
    col = _Collector(record_limit)
    next_i = [0]
    ilock = threading.Lock()
    start = clock()
    # Arrivals more than one nominal duration behind schedule are shed
    # (status "dropped"): past that point the generator would only be
    # measuring its own backlog, and an unbounded drain could stall CI.
    late_cancel_s = config.duration_s

    def worker() -> None:
        try:
            target = target_factory()
            try:
                while True:
                    with ilock:
                        i = next_i[0]
                        if i >= n_sched:
                            return
                        next_i[0] += 1
                    t_sched = start + i * interval
                    now = clock()
                    if now < t_sched:
                        sleep(t_sched - now)
                    elif now - t_sched > late_cancel_s:
                        col.add(RequestRecord(i * interval, 0.0, "dropped",
                                              "range", 0))
                        continue
                    rng = np.random.default_rng((config.seed, 1 << 32, i))
                    kind, queries, eps, k = sampler.make_request(rng)
                    status = target.issue(kind, queries, eps, k,
                                          config.deadline_s)
                    done = clock()
                    # Open-loop latency runs from the *scheduled* arrival:
                    # time spent waiting for a free worker is queueing
                    # delay the service caused; it is charged to the
                    # request.
                    col.add(RequestRecord(
                        i * interval, done - t_sched, status, kind,
                        queries.shape[0],
                        request_id=getattr(target, "last_request_id", None),
                    ))
            finally:
                target.close()
        except BaseException as exc:  # harness failure, not a request
            col.crashed(exc)

    n_workers = min(max(config.concurrency, 1), n_sched)
    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(n_workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if col.crash is not None:
        raise col.crash
    return LoadResult(
        config=config,
        duration_s=max(clock() - start, 1e-9),
        offered=col.offered,
        statuses=col.statuses,
        latency=col.latency,
        records=col.records,
    )


# ----------------------------------------------------------------------
# Convenience drivers + sweep analysis
# ----------------------------------------------------------------------


def stage_seconds_from_snapshot(metrics_snapshot: dict) -> dict:
    """Per-stage engine seconds from a ``MetricsRegistry.snapshot()``.

    Reads the ``repro_stage_seconds`` labeled histogram (keys are
    ``"stage=<name>"`` strings mapping to per-child snapshots) and
    returns ``{stage: total_seconds}``; empty when the metric is absent
    or has observed nothing yet.
    """
    hist = metrics_snapshot.get("repro_stage_seconds")
    out: dict[str, float] = {}
    if isinstance(hist, dict):
        for key, child in hist.items():
            if key.startswith("stage=") and isinstance(child, dict):
                out[key[len("stage="):]] = float(child.get("sum", 0.0))
    return out


def stage_seconds_from_text(metrics_text: str) -> dict:
    """Per-stage engine seconds from a ``/metrics`` scrape.

    Same shape as :func:`stage_seconds_from_snapshot`, sourced from the
    ``repro_stage_seconds_sum{stage="..."}`` series in the Prometheus
    text exposition.
    """
    parsed = parse_prometheus_text(metrics_text)
    out: dict[str, float] = {}
    for labels, value in parsed.get("repro_stage_seconds_sum", {}).items():
        stage = dict(labels).get("stage")
        if stage:
            out[stage] = float(value)
    return out


def _stage_delta(before: dict, after: dict) -> "dict | None":
    """Seconds accrued between two stage snapshots (None when empty)."""
    delta = {
        stage: max(0.0, after[stage] - before.get(stage, 0.0))
        for stage in after
    }
    return delta if delta else None


def run_against_service(
    index_path,
    config: WorkloadConfig,
    *,
    service: "QueryService | None" = None,
    record_limit: int = 10_000,
    **service_kwargs,
) -> LoadResult:
    """Load-test an in-process :class:`QueryService` over one index.

    A service is created (and stopped afterwards) unless one is passed
    in; extra keyword arguments feed the created service's constructor.
    """
    own = service is None
    svc = service if service is not None else QueryService(**service_kwargs)
    try:
        engine = svc.engine_for(index_path)
        sampler = QuerySampler(engine, config)
        svc.start()
        before = stage_seconds_from_snapshot(svc.metrics.snapshot())
        result = run_load(
            config,
            lambda: InProcessTarget(svc, engine),
            sampler,
            record_limit=record_limit,
        )
        after = stage_seconds_from_snapshot(svc.metrics.snapshot())
        result.stages = _stage_delta(before, after)
        return result
    finally:
        if own:
            svc.stop()


def run_against_server(
    index_path,
    host: str,
    port: int,
    config: WorkloadConfig,
    *,
    index_name: str = "default",
    record_limit: int = 10_000,
) -> LoadResult:
    """Load-test a live ``serve`` endpoint over HTTP.

    The sampler still needs the dataset, so ``index_path`` is opened
    locally (read-only) to build the query pool; requests themselves go
    over the wire through one non-retrying connection per worker.
    """
    from repro.index.delta import MutableIndex, is_mutable_index
    from repro.service.query import QueryEngine

    engine = (
        MutableIndex(index_path)
        if is_mutable_index(index_path)
        else QueryEngine(index_path)
    )
    sampler = QuerySampler(engine, config)

    def _scrape() -> dict:
        """Stage totals off ``/metrics``; empty when the scrape fails
        (a missing scrape must not fail the bout itself)."""
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(host, port, timeout=5.0,
                               max_attempts=1) as sc:
                return stage_seconds_from_text(sc.metrics_text())
        except Exception:  # noqa: BLE001 -- metrics are best-effort
            return {}

    before = _scrape()
    result = run_load(
        config,
        lambda: HttpTarget(host, port, index=index_name),
        sampler,
        record_limit=record_limit,
    )
    result.stages = _stage_delta(before, _scrape())
    return result


def saturation_knee(
    rows,
    *,
    offered_key: str = "offered_rps",
    achieved_key: str = "throughput_rps",
    tolerance: float = 0.85,
) -> "float | None":
    """Highest offered rate whose achieved throughput kept pace.

    Walking the sweep rows in ascending offered order, the knee is the
    last rate with ``achieved >= tolerance * offered``; ``None`` when
    even the lowest rate saturated.  Pure bucket math over the run
    table, so it works on rows from JSON as well as live results.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError("tolerance must be in (0, 1]")
    knee = None
    for row in sorted(rows, key=lambda r: float(r[offered_key])):
        if float(row[achieved_key]) >= tolerance * float(row[offered_key]):
            knee = float(row[offered_key])
    return knee


__all__ = [
    "STATUSES",
    "WORKLOAD_KEYS",
    "WorkloadConfig",
    "QuerySampler",
    "InProcessTarget",
    "HttpTarget",
    "RequestRecord",
    "LoadResult",
    "run_load",
    "run_against_service",
    "run_against_server",
    "stage_seconds_from_snapshot",
    "stage_seconds_from_text",
    "saturation_knee",
]
