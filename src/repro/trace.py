"""Zero-dependency request tracing: spans, context propagation, sampling.

The serving stack's metrics (:mod:`repro.service.metrics`) say *that*
p99 moved; this module says *where*.  A **trace** is the tree of timed
**spans** one request produces on its way through the stack -- HTTP
front end, admission queue, micro-batch assembly, engine dispatch,
per-stage kernel work -- identified by a ``trace_id`` that doubles as
the request id echoed in every ``X-Request-Id`` response header.

Design points, all stdlib:

* **Spans** carry ids, parent links, a wall-clock start, a monotonic
  duration, typed attributes, and a *bounded* event list -- a span can
  never grow without limit no matter how chatty an instrumentation
  site is.
* **Context propagation** rides :mod:`contextvars`, so the "current
  span" follows both threads (each handler thread sees its own) and
  asyncio tasks (each task inherits its creator's context) without any
  explicit plumbing.  Crossing an *explicit* boundary -- the dispatcher
  thread picking a queued request back up -- uses :func:`activate`.
* **Sampling decides retention, not creation.**  Spans are always
  cheap to create (the per-stage histograms in ``/metrics`` need their
  timings regardless); when a root span finishes, the policy decides
  whether the completed trace is *kept*: probabilistically
  (``sample``), always on error (``on_error``), and always when the
  root ran longer than ``slow_threshold_s`` (the slow-query log).
* **Storage** is a lock-protected ring buffer of completed traces
  (``GET /trace/recent``, ``/trace/<id>``) plus an optional JSONL
  exporter -- one span per line, rendered offline by
  ``python -m repro trace report``.

The engine side of the contract is :class:`TraceHooks`: executors in
:mod:`repro.core.engine` fetch the ambient hooks object once per call
and accumulate per-stage seconds into it (no-op when absent).
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "STAGES",
    "Span",
    "TraceHooks",
    "Tracer",
    "activate",
    "record_ambient_span",
    "current_hooks",
    "current_request_id",
    "current_span",
    "new_id",
    "parse_traceparent",
    "read_jsonl",
    "render_report",
    "sanitize_request_id",
    "use_hooks",
]

#: The engine pipeline stages executors attribute time to.  A fixed
#: vocabulary: these become ``repro_stage_seconds{stage=...}`` label
#: values and per-stage load-report columns, so the set must stay
#: bounded and stable.
STAGES = ("adjacency", "gather", "gemm", "rz", "commit")

#: Inbound request ids are echoed into headers, logs, and metrics;
#: anything not matching this conservative shape is replaced with a
#: fresh id rather than propagated.
_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")

#: Hard caps: a span keeps at most this many events/attributes, a trace
#: at most this many spans.  Over-limit additions are counted, not kept.
MAX_EVENTS_PER_SPAN = 32
MAX_ATTRS_PER_SPAN = 32
MAX_SPANS_PER_TRACE = 512


def new_id() -> str:
    """A fresh 64-bit hex id (trace and span ids share the format)."""
    return os.urandom(8).hex()


def sanitize_request_id(raw: str | None) -> str | None:
    """Return ``raw`` if it is safe to propagate as a trace id.

    Callers pass the inbound ``X-Request-Id`` header; a header that is
    absent, too long, or carries characters that would need escaping in
    logs/headers yields ``None`` (mint a fresh id instead).
    """
    if raw is None:
        return None
    raw = raw.strip()
    return raw if _ID_RE.match(raw) else None


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """Parse a W3C ``traceparent`` header into ``(trace_id, parent_id)``.

    Only the ``00-<32 hex>-<16 hex>-<2 hex>`` shape is accepted; any
    other version or malformation returns ``None`` and the request gets
    a fresh trace (the spec's "restart the trace" fallback).
    """
    if header is None:
        return None
    parts = header.strip().split("-")
    if len(parts) != 4 or parts[0] != "00":
        return None
    trace_id, parent_id = parts[1].lower(), parts[2].lower()
    if not re.fullmatch(r"[0-9a-f]{32}", trace_id):
        return None
    if not re.fullmatch(r"[0-9a-f]{16}", parent_id):
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, parent_id


# ----------------------------------------------------------------------
# Context propagation
# ----------------------------------------------------------------------

_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None
)
_current_hooks: contextvars.ContextVar["TraceHooks | None"] = (
    contextvars.ContextVar("repro_trace_hooks", default=None)
)


def current_span() -> "Span | None":
    """The ambient span of this thread/task, or ``None``."""
    return _current_span.get()


def current_request_id() -> str | None:
    """The ambient trace id (== request id), or ``None``.

    This is what the structured-log formatter injects into every log
    record emitted while a request is in flight.
    """
    span = _current_span.get()
    return span.trace_id if span is not None else None


@contextmanager
def activate(span: "Span | None") -> Iterator["Span | None"]:
    """Make ``span`` the ambient span for the duration of the block.

    The explicit hand-off for crossing execution contexts the implicit
    :mod:`contextvars` inheritance cannot follow -- e.g. the dispatcher
    thread resuming work on a request that was queued by a handler
    thread.
    """
    token = _current_span.set(span)
    try:
        yield span
    finally:
        _current_span.reset(token)


def record_ambient_span(
    name: str,
    duration_s: float,
    attrs: "dict[str, Any] | None" = None,
) -> "Span | None":
    """Attach an already-measured interval to the ambient span, if any.

    The convenience for instrumentation sites that have no tracer
    reference of their own (e.g. the index cache timing a load): the
    parent span carries its tracer, so a child can be recorded through
    it.  No ambient span means no trace in flight -- returns ``None``.
    """
    parent = _current_span.get()
    if parent is None:
        return None
    return parent._tracer.record_span(
        name, duration_s, parent=parent, attrs=attrs
    )


def current_hooks() -> "TraceHooks | None":
    """The ambient engine profiling hooks, or ``None`` (the default)."""
    return _current_hooks.get()


@contextmanager
def use_hooks(hooks: "TraceHooks | None") -> Iterator["TraceHooks | None"]:
    """Install engine profiling hooks for the duration of the block."""
    token = _current_hooks.set(hooks)
    try:
        yield hooks
    finally:
        _current_hooks.reset(token)


class TraceHooks:
    """Per-stage time accumulator the engine executors feed.

    The seam between the service and the engine: the service creates
    one per engine dispatch, installs it with :func:`use_hooks`, and
    afterwards reads ``hooks.stages`` -- a ``{stage: seconds}`` dict over
    :data:`STAGES` -- into span attributes and the
    ``repro_stage_seconds`` histograms.
    Executors call :meth:`record` with whatever granularity is natural;
    repeated records for one stage accumulate.
    """

    __slots__ = ("stages", "_lock")

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}
        # Executors record on the thread that installed the hooks, but
        # one instance may be shared by several threads (a caller timing
        # concurrent work); a lock keeps the accumulation lossless.
        self._lock = threading.Lock()

    def record(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.stages[stage] = self.stages.get(stage, 0.0) + float(seconds)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.stages)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Span:
    """One timed operation inside a trace.

    Create via :meth:`Tracer.start_trace` / :meth:`Tracer.start_span` /
    the :meth:`Tracer.span` context manager -- never directly.  Spans
    time with :func:`time.perf_counter` (monotonic; wall-clock only
    stamps the start) and must be finished exactly once; finishing the
    *root* span completes the trace and runs the retention policy.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_s",
        "duration_s",
        "attrs",
        "events",
        "status",
        "error",
        "_tracer",
        "_t0",
        "_finished",
        "_dropped",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        name: str,
        *,
        parent_id: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = new_id()
        self.parent_id = parent_id
        self.name = str(name)
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        self.duration_s: float | None = None
        self.attrs: dict[str, Any] = {}
        self.events: list[dict[str, Any]] = []
        self.status = "ok"
        self.error: str | None = None
        self._finished = False
        self._dropped = 0
        if attrs:
            for key, value in attrs.items():
                self.set_attr(key, value)

    def set_attr(self, key: str, value: Any) -> None:
        """Attach a typed attribute (str/int/float/bool; else ``str()``)."""
        if len(self.attrs) >= MAX_ATTRS_PER_SPAN and key not in self.attrs:
            self._dropped += 1
            return
        if not isinstance(value, (str, int, float, bool)) and value is not None:
            value = str(value)
        self.attrs[str(key)] = value

    def add_event(self, name: str, **attrs: Any) -> None:
        """Append a bounded, timestamped event to the span."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self._dropped += 1
            return
        event: dict[str, Any] = {
            "name": str(name),
            "t_offset_s": time.perf_counter() - self._t0,
        }
        if attrs:
            event.update(
                {
                    str(k): (
                        v
                        if isinstance(v, (str, int, float, bool)) or v is None
                        else str(v)
                    )
                    for k, v in attrs.items()
                }
            )
        self.events.append(event)

    def record_error(self, exc: BaseException) -> None:
        """Mark the span failed; the message names the exception type
        (fault-injection errors therefore carry the injected fault)."""
        self.status = "error"
        self.error = f"{type(exc).__name__}: {exc}"

    def finish(self) -> None:
        """Close the span (idempotent) and hand it to the tracer."""
        if self._finished:
            return
        self._finished = True
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
        self._tracer._on_span_end(self)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = list(self.events)
        if self._dropped:
            out["dropped"] = self._dropped
        return out


class _TraceState:
    """Book-keeping for one in-flight trace (guarded by the tracer lock)."""

    __slots__ = ("root", "spans", "sampled", "error", "n_spans")

    def __init__(self, root: Span, sampled: bool) -> None:
        self.root = root
        self.spans: list[dict[str, Any]] = []
        self.sampled = sampled
        self.error = False
        self.n_spans = 0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class Tracer:
    """Span factory + retention policy + completed-trace ring buffer.

    Parameters
    ----------
    sample:
        Probability a trace is retained absent any other reason
        (``0.0`` = only errors/slow traces survive, ``1.0`` = all).
    slow_threshold_s:
        Root spans at least this long are always retained (the slow
        query log); ``None`` disables the rule.
    on_error:
        Retain every trace whose spans recorded an error.
    ring_size:
        Completed traces kept in memory for ``/trace/recent``.
    jsonl_path:
        When set, every *retained* span is appended to this file as one
        JSON line (the ``trace report`` input format).
    seed:
        Seeds the sampling RNG (tests); ``None`` = entropy.
    """

    def __init__(
        self,
        *,
        sample: float = 1.0,
        slow_threshold_s: float | None = None,
        on_error: bool = True,
        ring_size: int = 256,
        jsonl_path: str | os.PathLike | None = None,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1]; got {sample}")
        if slow_threshold_s is not None and slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be >= 0")
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.sample = float(sample)
        self.slow_threshold_s = (
            None if slow_threshold_s is None else float(slow_threshold_s)
        )
        self.on_error = bool(on_error)
        self.jsonl_path = (
            None if jsonl_path is None else os.fspath(jsonl_path)
        )
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Guards the JSONL file handle only; exports are written off
        #: the main lock so file I/O never stalls span recording.
        self._io_lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=int(ring_size))
        self._active: dict[str, _TraceState] = {}
        self._jsonl_file = None
        if self.jsonl_path is not None:
            self._jsonl_file = open(self.jsonl_path, "a", encoding="utf-8")
        #: Retention counters (exposed as service gauges).
        self.traces_started = 0
        self.traces_retained = 0
        self.traces_dropped = 0

    # -- span factories -------------------------------------------------

    def start_trace(
        self,
        name: str,
        *,
        request_id: str | None = None,
        traceparent: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a root span, honoring inbound correlation headers.

        ``request_id`` (the ``X-Request-Id`` header) wins when it is
        propagation-safe; otherwise a ``traceparent`` header supplies
        the trace id and remote parent; otherwise a fresh id is minted.
        The sampling coin is flipped here so child spans of an
        unsampled trace can stay maximally cheap later if needed.
        """
        parent_id = None
        trace_id = sanitize_request_id(request_id)
        if trace_id is None:
            parsed = parse_traceparent(traceparent)
            if parsed is not None:
                trace_id, parent_id = parsed
            else:
                trace_id = new_id()
        span = Span(self, trace_id, name, parent_id=parent_id, attrs=attrs)
        sampled = self.sample > 0.0 and (
            self.sample >= 1.0 or self._rng.random() < self.sample
        )
        with self._lock:
            self.traces_started += 1
            # A colliding in-flight trace id (client reused a request
            # id) keeps the *first* registration; the later root still
            # times and reports, it just cannot own the ring entry.
            self._active.setdefault(trace_id, _TraceState(span, sampled))
        return span

    def start_span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a child of ``parent`` (default: the ambient span).

        Without any parent there is no trace to attach to; a detached
        root-less span is created under a fresh trace id but will only
        be retained if a matching root registers -- callers on the
        request path always have a parent.
        """
        if parent is None:
            parent = _current_span.get()
        if parent is None:
            return Span(self, new_id(), name, attrs=attrs)
        return Span(
            self,
            parent.trace_id,
            name,
            parent_id=parent.span_id,
            attrs=attrs,
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        """Context manager: open a child span, activate it, finish it.

        Exceptions mark the span failed and propagate.
        """
        sp = self.start_span(name, parent=parent, attrs=attrs)
        token = _current_span.set(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.record_error(exc)
            raise
        finally:
            _current_span.reset(token)
            sp.finish()

    def record_span(
        self,
        name: str,
        duration_s: float,
        *,
        parent: Span | None = None,
        start_s: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span | None:
        """Report an already-measured interval as a completed span.

        For phases whose boundaries were observed with plain
        timestamps (queue wait measured between two threads, engine
        stage totals read off :class:`TraceHooks`) rather than wrapped
        in a context manager.  Returns ``None`` without a parent.
        """
        if parent is None:
            parent = _current_span.get()
        if parent is None:
            return None
        sp = Span(
            self,
            parent.trace_id,
            name,
            parent_id=parent.span_id,
            attrs=attrs,
        )
        if start_s is not None:
            sp.start_s = start_s
        sp.duration_s = max(0.0, float(duration_s))
        sp.finish()
        return sp

    # -- completion + retention -----------------------------------------

    def _on_span_end(self, span: Span) -> None:
        record = span.to_dict()  # serialize outside the lock
        export = None
        with self._lock:
            state = self._active.get(span.trace_id)
            if state is None:
                return  # detached span with no registered root
            if span.status == "error":
                state.error = True
            state.n_spans += 1
            if len(state.spans) < MAX_SPANS_PER_TRACE:
                state.spans.append(record)
            if span is not state.root:
                return
            del self._active[span.trace_id]
            retain = state.sampled
            reason = "sampled" if retain else ""
            if not retain and self.on_error and state.error:
                retain, reason = True, "error"
            if (
                not retain
                and self.slow_threshold_s is not None
                and (span.duration_s or 0.0) >= self.slow_threshold_s
            ):
                retain, reason = True, "slow"
            if not retain:
                self.traces_dropped += 1
                return
            self.traces_retained += 1
            trace = {
                "trace_id": span.trace_id,
                "root": span.name,
                "start_s": state.root.start_s,
                "duration_s": span.duration_s,
                "status": "error" if state.error else "ok",
                "retained": reason,
                "n_spans": state.n_spans,
                "spans": state.spans,
            }
            self._ring.append(trace)
            if self._jsonl_file is not None:
                export = state.spans
        if export is not None:
            # JSON encoding and the file write happen *off* the tracer
            # lock: a flush must never stall record_span callers (the
            # dispatcher records spans for whole batches -- blocking it
            # behind file I/O would tax every in-flight request).
            payload = "".join(
                json.dumps(rec, separators=(",", ":")) + "\n"
                for rec in export
            )
            with self._io_lock:
                if self._jsonl_file is not None:
                    self._jsonl_file.write(payload)
                    self._jsonl_file.flush()

    # -- queries ---------------------------------------------------------

    def get_trace(self, trace_id: str) -> dict[str, Any] | None:
        """The completed trace for ``trace_id``, or ``None``."""
        with self._lock:
            for trace in reversed(self._ring):
                if trace["trace_id"] == trace_id:
                    return trace
        return None

    def recent(self, limit: int = 50) -> list[dict[str, Any]]:
        """Summaries of the most recently retained traces, newest first."""
        limit = max(1, int(limit))
        with self._lock:
            traces = list(self._ring)[-limit:]
        return [
            {key: t[key] for key in t if key != "spans"}
            for t in reversed(traces)
        ]

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "traces_started": self.traces_started,
                "traces_retained": self.traces_retained,
                "traces_dropped": self.traces_dropped,
                "traces_active": len(self._active),
            }

    def close(self) -> None:
        """Flush and close the JSONL exporter (idempotent)."""
        with self._io_lock:
            if self._jsonl_file is not None:
                self._jsonl_file.close()
                self._jsonl_file = None


# ----------------------------------------------------------------------
# JSONL report rendering (the `trace report` CLI backend)
# ----------------------------------------------------------------------

_SPAN_REQUIRED_KEYS = ("trace_id", "span_id", "name", "duration_s", "status")


def read_jsonl(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Load and *validate* an exported span file.

    Every non-blank line must parse as a JSON object carrying the span
    schema's required keys with sane types; the first violation raises
    ``ValueError`` naming the line (so CI's schema check fails loudly,
    not by rendering garbage).
    """
    spans: list[dict[str, Any]] = []
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: span line is not an object")
            for key in _SPAN_REQUIRED_KEYS:
                if key not in record:
                    raise ValueError(
                        f"{path}:{lineno}: span is missing {key!r}"
                    )
            if not isinstance(record["duration_s"], (int, float)):
                raise ValueError(
                    f"{path}:{lineno}: duration_s must be a number"
                )
            if record["status"] not in ("ok", "error"):
                raise ValueError(
                    f"{path}:{lineno}: status must be 'ok' or 'error'"
                )
            spans.append(record)
    return spans


def render_report(
    spans: list[dict[str, Any]],
    *,
    limit: int | None = None,
    slow_ms: float | None = None,
) -> str:
    """Render exported spans as per-trace trees with self-times.

    Traces are grouped by id and ordered by start time; each span line
    shows total duration, **self time** (duration minus direct
    children), attributes, and error status.  ``slow_ms`` filters to
    traces whose root ran at least that long; ``limit`` keeps only the
    last N traces.
    """
    by_trace: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)

    def root_start(records: list[dict[str, Any]]) -> float:
        return min(float(r.get("start_s", 0.0)) for r in records)

    ordered = sorted(by_trace.values(), key=root_start)
    if slow_ms is not None:
        ordered = [
            records
            for records in ordered
            if any(
                r.get("parent_id") is None
                and float(r["duration_s"]) * 1e3 >= slow_ms
                for r in records
            )
        ]
    if limit is not None:
        ordered = ordered[-int(limit):]

    lines: list[str] = []
    for records in ordered:
        by_id = {r["span_id"]: r for r in records}
        children: dict[str | None, list[dict[str, Any]]] = {}
        for r in records:
            parent = r.get("parent_id")
            if parent not in by_id:
                parent = None  # orphan or remote parent: treat as root
            children.setdefault(parent, []).append(r)
        roots = children.get(None, [])
        trace_id = records[0]["trace_id"]
        status = (
            "error"
            if any(r["status"] == "error" for r in records)
            else "ok"
        )
        lines.append(
            f"trace {trace_id}  spans={len(records)}  status={status}"
        )

        def emit(record: dict[str, Any], depth: int) -> None:
            kids = sorted(
                children.get(record["span_id"], []),
                key=lambda r: float(r.get("start_s", 0.0)),
            )
            total = float(record["duration_s"])
            self_s = total - sum(float(k["duration_s"]) for k in kids)
            label = record["name"]
            extra = ""
            if record.get("attrs"):
                pairs = ", ".join(
                    f"{k}={v}" for k, v in sorted(record["attrs"].items())
                )
                extra = f"  [{pairs}]"
            err = ""
            if record["status"] == "error":
                err = f"  ERROR: {record.get('error', '?')}"
            lines.append(
                f"  {'  ' * depth}{label:<24} "
                f"total={total * 1e3:9.3f}ms  "
                f"self={max(0.0, self_s) * 1e3:9.3f}ms{extra}{err}"
            )
            for kid in kids:
                emit(kid, depth + 1)

        for root in sorted(roots, key=lambda r: float(r.get("start_s", 0.0))):
            emit(root, 0)
        lines.append("")
    if not ordered:
        lines.append("no traces")
    return "\n".join(lines).rstrip() + "\n"
