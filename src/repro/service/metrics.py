"""Thread-safe metrics registry + Prometheus text exposition.

One registry is the single source of truth for every serving-side
counter: :class:`~repro.service.server.QueryService` and
:class:`~repro.service.server.IndexCache` register their counters here
instead of keeping bare ``int`` attributes, the HTTP layer's ``GET
/metrics`` renders the registry in Prometheus text exposition format,
and ``GET /stats`` is a JSON view of the *same* registry snapshot -- the
two endpoints cannot disagree because neither holds its own state.

Design constraints:

* **Atomic snapshots.**  Every mutation and every read happens under one
  registry :class:`threading.RLock`, so :meth:`MetricsRegistry.snapshot`
  returns a *consistent* view: a counter pair like ``requests_served`` /
  ``requests_coalesced`` can never be observed torn (served incremented,
  coalesced not) the way the former bare-attribute
  ``QueryService.stats()`` could.  The lock is reentrant so an
  instrumented code path can group several increments into one atomic
  unit with ``with registry.lock: ...``.
* **Streaming histograms.**  :class:`LogHistogram` keeps HDR-style
  logarithmic buckets (fixed multiplicative growth), so latency
  quantiles come from O(buckets) integer counts -- no per-request record
  retention.  Quantiles resolve to the containing bucket's upper bound
  (the overflow bucket reports the max observed value), which makes the
  bucket math exactly testable.
* **Stdlib only.**  Rendering follows the Prometheus text format
  (``text/plain; version=0.0.4``); :func:`parse_prometheus_text` is the
  matching reader used by tests and by the serve self-test's health
  check.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import OrderedDict

__all__ = [
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "LogHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "PROMETHEUS_CONTENT_TYPE",
]

#: Content type the /metrics endpoint answers with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def log_buckets(
    start: float = 1e-4, factor: float = 2.0 ** 0.5, count: int = 40
) -> tuple[float, ...]:
    """Multiplicative bucket upper bounds: ``start * factor**i``.

    The defaults span 100 us .. ~100 s at sqrt(2) growth (two buckets
    per octave, ~19% worst-case quantile error) -- the HDR-histogram
    trade: fixed relative precision, O(1) memory, no per-sample storage.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


DEFAULT_LATENCY_BUCKETS = log_buckets()

#: Batch-fill buckets: requests coalesced per dispatch (powers of two).
BATCH_FILL_BUCKETS = tuple(float(1 << i) for i in range(12))


class LogHistogram:
    """Streaming histogram over fixed bucket upper bounds.

    Standalone-usable with its own lock; inside a
    :class:`MetricsRegistry` the registry's lock is shared instead so
    histogram observations participate in atomic snapshots.
    """

    __slots__ = ("bounds", "counts", "overflow", "total", "sum", "max", "_lock")

    def __init__(
        self,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        *,
        lock: "threading.RLock | None" = None,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("bounds must be a non-empty increasing sequence")
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0  # observations above the last bound (+Inf bucket)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            i = bisect_left(self.bounds, value)
            if i < len(self.bounds):
                self.counts[i] += 1
            else:
                self.overflow += 1
            self.total += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Linearly interpolated value at the ``q``-quantile.

        The rank ``q * total`` is located in its containing bucket and
        the value interpolated between that bucket's bounds assuming a
        uniform in-bucket distribution (the Prometheus
        ``histogram_quantile`` convention); returning the containing
        bucket's *upper* bound -- the previous behavior -- overstated
        mid-bucket quantiles by up to a full bucket width (p50 of a
        single 3 ms sample in a (2, 4] ms bucket read as 4 ms).
        Results are clamped to the max observed value, the overflow
        bucket resolves to that max (finite), and an empty histogram
        returns ``nan``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self.total == 0:
                return math.nan
            rank = q * self.total
            seen = 0
            lo = 0.0
            for bound, count in zip(self.bounds, self.counts):
                if count and seen + count >= rank:
                    frac = max(0.0, rank - seen) / count
                    return min(lo + (bound - lo) * frac, self.max)
                seen += count
                lo = bound
            return self.max

    def snapshot(self) -> dict:
        """Consistent summary: count/sum/max plus p50/p95/p99."""
        with self._lock:
            return {
                "count": self.total,
                "sum": self.sum,
                "max": self.max,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            }


def _check_labels(
    label_names: tuple[str, ...], labels: dict
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[k]) for k in label_names)


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(label_names: tuple[str, ...], key: tuple[str, ...],
                extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = list(zip(label_names, key)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared bookkeeping: name, help text, declared label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: tuple[str, ...], lock: threading.RLock) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = lock


class Counter(_Metric):
    """Monotonically non-decreasing counter (optionally labeled)."""

    kind = "counter"

    def __init__(self, name, help_text, label_names, lock) -> None:
        super().__init__(name, help_text, label_names, lock)
        self._values: "dict[tuple[str, ...], float]" = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _check_labels(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _check_labels(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot(self):
        if not self.label_names:
            return self._values.get((), 0.0)
        return {
            ",".join(f"{k}={v}" for k, v in zip(self.label_names, key)): val
            for key, val in sorted(self._values.items())
        }

    def _render(self, out: list) -> None:
        values = sorted(self._values.items()) or ([((), 0.0)] if not self.label_names else [])
        for key, val in values:
            out.append(
                f"{self.name}{_fmt_labels(self.label_names, key)} "
                f"{_fmt_value(val)}"
            )


class Gauge(_Metric):
    """Settable instantaneous value, or a callback evaluated at read time.

    Callback gauges (``fn=...``) mirror live state -- queue depth, cache
    residency, tracer retention counts -- without the
    owner having to push updates through the registry.
    """

    kind = "gauge"

    def __init__(self, name, help_text, label_names, lock, fn=None) -> None:
        super().__init__(name, help_text, label_names, lock)
        if fn is not None and label_names:
            raise ValueError("callback gauges cannot be labeled")
        self._fn = fn
        self._values: "dict[tuple[str, ...], float]" = {}

    def set(self, value: float, **labels) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        key = _check_labels(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = _check_labels(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot(self):
        if self._fn is not None:
            return float(self._fn())
        if not self.label_names:
            return self._values.get((), 0.0)
        return {
            ",".join(f"{k}={v}" for k, v in zip(self.label_names, key)): val
            for key, val in sorted(self._values.items())
        }

    def _render(self, out: list) -> None:
        if self._fn is not None:
            out.append(f"{self.name} {_fmt_value(float(self._fn()))}")
            return
        values = sorted(self._values.items()) or ([((), 0.0)] if not self.label_names else [])
        for key, val in values:
            out.append(
                f"{self.name}{_fmt_labels(self.label_names, key)} "
                f"{_fmt_value(val)}"
            )


class Histogram(_Metric):
    """Registry-resident histogram; one :class:`LogHistogram` per label set."""

    kind = "histogram"

    def __init__(self, name, help_text, label_names, lock,
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text, label_names, lock)
        self.buckets = tuple(float(b) for b in buckets)
        self._children: "dict[tuple[str, ...], LogHistogram]" = {}

    def _child(self, labels: dict) -> LogHistogram:
        key = _check_labels(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = LogHistogram(self.buckets, lock=self._lock)
                self._children[key] = child
            return child

    def observe(self, value: float, **labels) -> None:
        self._child(labels).observe(value)

    def quantile(self, q: float, **labels) -> float:
        key = _check_labels(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            return child.quantile(q) if child is not None else math.nan

    def _snapshot(self):
        if not self.label_names:
            child = self._children.get(())
            return child.snapshot() if child is not None else (
                LogHistogram(self.buckets).snapshot()
            )
        return {
            ",".join(f"{k}={v}" for k, v in zip(self.label_names, key)): (
                child.snapshot()
            )
            for key, child in sorted(self._children.items())
        }

    def _render(self, out: list) -> None:
        children = sorted(self._children.items()) or (
            [((), LogHistogram(self.buckets))] if not self.label_names else []
        )
        for key, child in children:
            cumulative = 0
            for bound, count in zip(child.bounds, child.counts):
                cumulative += count
                out.append(
                    f"{self.name}_bucket"
                    f"{_fmt_labels(self.label_names, key, (('le', _fmt_value(bound)),))}"
                    f" {cumulative}"
                )
            cumulative += child.overflow
            out.append(
                f"{self.name}_bucket"
                f"{_fmt_labels(self.label_names, key, (('le', '+Inf'),))}"
                f" {cumulative}"
            )
            out.append(
                f"{self.name}_sum{_fmt_labels(self.label_names, key)} "
                f"{_fmt_value(child.sum)}"
            )
            out.append(
                f"{self.name}_count{_fmt_labels(self.label_names, key)} "
                f"{cumulative}"
            )


class MetricsRegistry:
    """Named metrics behind one reentrant lock.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (re-asking
    for an existing name returns the same object; a kind or label
    mismatch raises), so independent components can share a registry
    without coordinating registration order.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()

    def _get_or_create(self, cls, name, help_text, label_names, **kw):
        label_names = tuple(label_names)
        with self.lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.label_names != label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            metric = cls(name, help_text, label_names, self.lock, **kw)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = (), fn=None) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels, fn=fn)

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labels, buckets=buckets
        )

    def snapshot(self) -> dict:
        """One consistent JSON-friendly view of every metric.

        Taken under the registry lock, so cross-counter invariants hold
        (``/stats`` is built from this -- the torn-read fix).
        """
        with self.lock:
            return {
                name: metric._snapshot()
                for name, metric in self._metrics.items()
            }

    def render(self) -> str:
        """Prometheus text exposition of the whole registry."""
        out: list[str] = []
        with self.lock:
            for name, metric in self._metrics.items():
                if metric.help:
                    out.append(f"# HELP {name} {metric.help}")
                out.append(f"# TYPE {name} {metric.kind}")
                metric._render(out)
        return "\n".join(out) + "\n"


def parse_prometheus_text(text: str) -> dict:
    """Parse Prometheus text exposition into ``{name: {labels: value}}``.

    ``labels`` is a tuple of sorted ``(key, value)`` pairs (``()`` for
    unlabeled samples).  Raises :class:`ValueError` on malformed sample
    lines -- tests use this as the format check itself.
    """
    samples: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            labels_raw, _, value_raw = rest.rpartition("}")
            value_raw = value_raw.strip()
            pairs = []
            for item in _split_labels(labels_raw):
                if "=" not in item:
                    raise ValueError(f"malformed label in line: {line!r}")
                k, v = item.split("=", 1)
                if not (v.startswith('"') and v.endswith('"')):
                    raise ValueError(f"unquoted label value in: {line!r}")
                pairs.append(
                    (k, v[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
                )
            key = tuple(sorted(pairs))
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed sample line: {line!r}")
            name, value_raw = parts
            key = ()
        name = name.strip()
        if not name or not all(
            c.isalnum() or c in "_:" for c in name
        ) or name[0].isdigit():
            raise ValueError(f"invalid metric name in line: {line!r}")
        try:
            value = float(value_raw)
        except ValueError as exc:
            raise ValueError(f"invalid sample value in: {line!r}") from exc
        samples.setdefault(name, {})[key] = value
    return samples


def _split_labels(raw: str) -> list[str]:
    """Split ``k1="v1",k2="v2"`` at commas outside quoted values."""
    items, buf, quoted, escaped = [], [], False, False
    for ch in raw:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == '"':
            buf.append(ch)
            quoted = not quoted
        elif ch == "," and not quoted:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        items.append("".join(buf))
    return [i for i in (s.strip() for s in items) if i]
