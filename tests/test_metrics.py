"""Metrics registry + /metrics endpoint: the observability contracts.

* **Bucket math, exactly** -- :class:`LogHistogram` quantiles
  interpolate linearly within the containing bucket (clamped to the max
  observed value), the overflow bucket resolves to the max, an empty
  histogram to ``nan``; all pinned on hand-computable bucket layouts.
* **Atomic snapshots** -- every serving counter lives in one registry
  behind one lock; multi-counter invariants can never be observed torn
  (the regression test hammers ``QueryService.stats()`` from a reader
  thread during live dispatch).
* **Prometheus exposition** -- ``render()`` output must round-trip
  through :func:`parse_prometheus_text`, counters must be monotone
  across concurrent scrapes, and ``/stats`` must agree with ``/metrics``
  because both are views of the same registry.
"""

import json
import math
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.api import build_index
from repro.core.selectivity import epsilon_for_selectivity
from repro.service import (
    IndexCache,
    LogHistogram,
    QueryService,
    log_buckets,
    make_server,
    parse_prometheus_text,
)
from repro.service.metrics import (
    BATCH_FILL_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
)


def _dataset(n=400, d=8, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    return data, float(epsilon_for_selectivity(data, 16))


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    data, eps = _dataset()
    path = tmp_path_factory.mktemp("metrics-idx") / "index"
    build_index(data, eps, path)
    return path, data, eps


# ----------------------------------------------------------------------
# LogHistogram bucket math
# ----------------------------------------------------------------------


class TestLogHistogram:
    def test_exact_quantiles_small_layout(self):
        h = LogHistogram((1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 3.0, 7.0):
            h.observe(v)
        # Ranks 1..4 land in buckets 1, 2, 4, 8; each rank sits exactly
        # at the top of its bucket, so interpolation resolves to the
        # upper bound -- except p100, which clamps to the max observed.
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.50) == 2.0
        assert h.quantile(0.75) == 4.0
        assert h.quantile(1.00) == 7.0

    def test_mid_bucket_quantiles_interpolate(self):
        # A lone 3.0 in the (2, 4] bucket: p50 must NOT read as the 4.0
        # upper bound (the pre-interpolation overstatement).
        h = LogHistogram((1.0, 2.0, 4.0, 8.0))
        h.observe(3.0)
        assert h.quantile(0.5) == 3.0  # rank 0.5 -> 2 + 2*0.5 = 3, <= max
        # Two samples in one bucket: ranks interpolate across the width.
        h2 = LogHistogram((4.0,))
        h2.observe(1.0)
        h2.observe(3.9)
        assert h2.quantile(0.25) == pytest.approx(1.0)  # 0 + 4 * 0.5/2
        assert h2.quantile(0.50) == pytest.approx(2.0)  # 0 + 4 * 1.0/2
        assert h2.quantile(1.00) == pytest.approx(3.9)  # clamped to max

    def test_interpolation_clamps_to_observed_max(self):
        h = LogHistogram((1.0, 8.0))
        h.observe(1.5)
        assert h.quantile(0.99) == 1.5  # not the 8.0 bucket bound

    def test_boundary_value_counts_in_its_bucket(self):
        # bisect_left: an observation equal to a bound belongs to that
        # bound's bucket (le semantics).
        h = LogHistogram((1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0]
        assert h.quantile(1.0) == 1.0

    def test_empty_is_nan(self):
        h = LogHistogram((1.0, 2.0))
        assert math.isnan(h.quantile(0.5))
        snap = h.snapshot()
        assert snap["count"] == 0
        assert math.isnan(snap["p99"])

    def test_overflow_resolves_to_max_observed(self):
        h = LogHistogram((1.0, 2.0))
        h.observe(100.0)
        h.observe(37.5)
        assert h.overflow == 2
        assert h.quantile(0.99) == 100.0  # finite, not +Inf
        assert h.quantile(0.5) == 100.0

    def test_low_quantile_clamps_to_first_sample(self):
        h = LogHistogram((1.0, 2.0, 4.0))
        h.observe(3.0)
        # rank 0 resolves to the lower bound of the only occupied bucket.
        assert h.quantile(0.0) == 2.0

    def test_sum_count_max_tracked(self):
        h = LogHistogram((1.0, 10.0))
        for v in (0.5, 2.0, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(7.5)
        assert snap["max"] == 5.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(())
        with pytest.raises(ValueError):
            LogHistogram((1.0, 1.0))
        with pytest.raises(ValueError):
            LogHistogram((2.0, 1.0))

    def test_invalid_quantile_rejected(self):
        h = LogHistogram((1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_concurrent_observes_all_counted(self):
        h = LogHistogram(DEFAULT_LATENCY_BUCKETS)

        def worker(wi):
            for i in range(500):
                h.observe(1e-4 * (1 + (wi * 500 + i) % 100))

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.total == 8 * 500
        assert sum(h.counts) + h.overflow == h.total


class TestLogBuckets:
    def test_geometric_growth(self):
        b = log_buckets(start=1.0, factor=2.0, count=5)
        assert b == (1.0, 2.0, 4.0, 8.0, 16.0)

    def test_defaults_span_latency_range(self):
        b = DEFAULT_LATENCY_BUCKETS
        assert b[0] == pytest.approx(1e-4)
        assert b[-1] > 50.0  # spans past 50 s
        assert len(b) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            log_buckets(start=0.0)
        with pytest.raises(ValueError):
            log_buckets(factor=1.0)
        with pytest.raises(ValueError):
            log_buckets(count=0)

    def test_batch_fill_buckets_are_powers_of_two(self):
        assert BATCH_FILL_BUCKETS[0] == 1.0
        assert all(
            b2 == 2 * b1
            for b1, b2 in zip(BATCH_FILL_BUCKETS, BATCH_FILL_BUCKETS[1:])
        )


# ----------------------------------------------------------------------
# Registry: counters, gauges, get-or-create, rendering
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("t_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_labeled_counter(self):
        c = MetricsRegistry().counter("t_total", labels=("endpoint",))
        c.inc(endpoint="/range")
        c.inc(endpoint="/range")
        c.inc(endpoint="/knn")
        assert c.value(endpoint="/range") == 2.0
        assert c.value(endpoint="/knn") == 1.0
        with pytest.raises(ValueError, match="expected labels"):
            c.inc()  # missing the declared label

    def test_gauge_set_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge")
        g.set(7.0)
        assert g.value() == 7.0
        state = {"v": 3.0}
        cb = reg.gauge("t_cb", fn=lambda: state["v"])
        assert cb.value() == 3.0
        state["v"] = 9.0
        assert cb.value() == 9.0  # evaluated at read time
        with pytest.raises(ValueError, match="callback-backed"):
            cb.set(1.0)

    def test_callback_gauge_cannot_be_labeled(self):
        with pytest.raises(ValueError, match="cannot be labeled"):
            MetricsRegistry().gauge(
                "t_cb", labels=("x",), fn=lambda: 0.0
            )

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_and_label_mismatch_raise(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("a_total", labels=("x",))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c_total"] == 2.0
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1

    def test_render_parse_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter").inc(3)
        reg.counter("lc_total", labels=("ep",)).inc(2, ep="/range")
        reg.gauge("g", "a gauge").set(0.25)
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        fams = parse_prometheus_text(reg.render())
        assert fams["c_total"][()] == 3.0
        assert fams["lc_total"][(("ep", "/range"),)] == 2.0
        assert fams["g"][()] == 0.25
        # Cumulative buckets: le=1 holds 1, le=2 still 1, +Inf all 2.
        assert fams["h_bucket"][(("le", "1"),)] == 1.0
        assert fams["h_bucket"][(("le", "2"),)] == 1.0
        assert fams["h_bucket"][(("le", "+Inf"),)] == 2.0
        assert fams["h_count"][()] == 2.0
        assert fams["h_sum"][()] == 5.5

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("e_total", labels=("p",)).inc(p='a"b\\c')
        fams = parse_prometheus_text(reg.render())
        assert fams["e_total"][(("p", 'a"b\\c'),)] == 1.0

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="unquoted"):
            parse_prometheus_text('m{le=1} 2')
        with pytest.raises(ValueError, match="invalid sample value"):
            parse_prometheus_text("m notanumber")
        with pytest.raises(ValueError, match="invalid metric name"):
            parse_prometheus_text("0bad 1")
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("m 1 2 3")

    def test_atomic_multi_counter_group(self):
        """Grouped increments under registry.lock are never seen torn."""
        reg = MetricsRegistry()
        a = reg.counter("a_total")
        b = reg.counter("b_total")
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                with reg.lock:
                    a.inc()
                    b.inc()

        def reader():
            for _ in range(2000):
                snap = reg.snapshot()
                if snap["a_total"] != snap["b_total"]:
                    torn.append(snap)

        w = threading.Thread(target=writer, daemon=True)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        r.join()
        stop.set()
        w.join()
        assert torn == []


# ----------------------------------------------------------------------
# Service integration: /stats and /metrics as views of one registry
# ----------------------------------------------------------------------


class TestServiceMetrics:
    def test_cache_counters_live_in_registry(self, index_path, tmp_path):
        path, _, _ = index_path
        cache = IndexCache()
        cache.get(path)
        cache.get(path)
        snap = cache.metrics.snapshot()
        assert snap["repro_cache_misses_total"] == 1.0
        assert snap["repro_cache_hits_total"] == 1.0
        assert cache.hits == 1 and cache.misses == 1  # legacy properties
        assert snap["repro_cache_loaded"] == 1.0  # callback gauge

    def test_service_adopts_cache_registry(self, index_path):
        path, _, _ = index_path
        cache = IndexCache()
        svc = QueryService(cache)
        try:
            assert svc.metrics is cache.metrics
        finally:
            svc.stop()

    def test_stats_torn_read_regression(self, index_path):
        """stats() snapshots must satisfy cross-counter invariants while
        dispatch is live: served/coalesced/batches move together under
        the registry lock, so no interleaving may expose served without
        its batch or coalesced > served."""
        path, data, eps = index_path
        svc = QueryService()
        bad = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                s = svc.stats()
                if s["requests_coalesced"] > s["requests_served"]:
                    bad.append(s)
                if s["requests_served"] and not s["batches_dispatched"]:
                    bad.append(s)

        try:
            r = threading.Thread(target=reader, daemon=True)
            r.start()
            threads = [
                threading.Thread(
                    target=lambda: [
                        svc.query(path, data[:4], eps=eps)
                        for _ in range(25)
                    ]
                )
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stop.set()
            r.join(timeout=5.0)
        finally:
            stop.set()
            svc.stop()
        assert bad == []
        final = svc.stats()
        assert final["requests_served"] == 100

    def test_stats_agrees_with_metrics_snapshot(self, index_path):
        path, data, eps = index_path
        svc = QueryService()
        try:
            for _ in range(5):
                svc.query(path, data[:4], eps=eps)
            stats = svc.stats()
            snap = svc.metrics.snapshot()
        finally:
            svc.stop()
        assert stats["requests_served"] == snap[
            "repro_service_requests_served_total"
        ]
        assert stats["batches_dispatched"] == snap[
            "repro_service_batches_dispatched_total"
        ]
        assert stats["cache"]["hits"] == snap["repro_cache_hits_total"]

    def test_dispatch_latency_histogram_fills(self, index_path):
        path, data, eps = index_path
        svc = QueryService()
        try:
            for _ in range(3):
                svc.query(path, data[:4], eps=eps)
            snap = svc.metrics.snapshot()
        finally:
            svc.stop()
        h = snap["repro_service_dispatch_seconds"]
        assert h["count"] >= 1
        assert h["p99"] > 0.0 and math.isfinite(h["p99"])
        fill = snap["repro_service_batch_fill"]
        assert fill["count"] == snap[
            "repro_service_batches_dispatched_total"
        ]


class TestMetricsEndpoint:
    @pytest.fixture()
    def server(self, index_path):
        path, data, eps = index_path
        srv = make_server({"default": path}, host="127.0.0.1", port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, data, eps
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5.0)

    def _get(self, srv, path):
        host, port = srv.server_address[0], srv.server_address[1]
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}"
        ) as resp:
            return resp.status, resp.headers.get("Content-Type"), (
                resp.read().decode()
            )

    def _post(self, srv, path, payload):
        host, port = srv.server_address[0], srv.server_address[1]
        req = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def test_metrics_parses_with_content_type(self, server):
        srv, data, eps = server
        status, ctype, text = self._get(srv, "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        fams = parse_prometheus_text(text)
        assert "repro_service_queue_depth" in fams
        assert "repro_cache_hits_total" in fams
        assert "repro_service_draining" in fams  # a callback gauge

    def test_http_requests_counted_per_endpoint(self, server):
        srv, data, eps = server
        self._post(srv, "/range", {"queries": data[:2].tolist()})
        self._get(srv, "/healthz")
        _, _, text = self._get(srv, "/metrics")
        fams = parse_prometheus_text(text)
        reqs = fams["repro_http_requests_total"]
        assert reqs[
            (("endpoint", "range"), ("status", "200"))
        ] >= 1.0
        assert reqs[
            (("endpoint", "healthz"), ("status", "200"))
        ] >= 1.0
        lat = fams["repro_http_request_seconds_count"]
        assert lat[(("endpoint", "range"),)] >= 1.0

    def test_unknown_paths_share_other_label(self, server):
        srv, _, _ = server
        with pytest.raises(urllib.error.HTTPError):
            self._get(srv, "/nope/123")
        with pytest.raises(urllib.error.HTTPError):
            self._get(srv, "/also/nope")
        _, _, text = self._get(srv, "/metrics")
        reqs = parse_prometheus_text(text)["repro_http_requests_total"]
        assert reqs[(("endpoint", "other"), ("status", "404"))] == 2.0
        endpoints = {dict(k).get("endpoint") for k in reqs}
        assert "/nope/123" not in endpoints  # bounded cardinality

    def test_stats_and_metrics_agree_over_http(self, server):
        srv, data, eps = server
        for _ in range(4):
            self._post(srv, "/range", {"queries": data[:2].tolist()})
        _, stats_body = 200, json.loads(self._get(srv, "/stats")[2])
        _, _, text = self._get(srv, "/metrics")
        fams = parse_prometheus_text(text)
        assert stats_body["requests_served"] == fams[
            "repro_service_requests_served_total"
        ][()]
        assert stats_body["cache"]["hits"] == fams[
            "repro_cache_hits_total"
        ][()]

    def test_counters_monotone_under_concurrent_hammer(self, server):
        srv, data, eps = server
        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                try:
                    self._post(
                        srv, "/range", {"queries": data[:2].tolist()}
                    )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        last_served = -1.0
        last_http = -1.0
        try:
            for _ in range(10):
                _, _, text = self._get(srv, "/metrics")
                fams = parse_prometheus_text(text)
                served = fams["repro_service_requests_served_total"][()]
                # Labeled counters render no samples until first inc --
                # the first scrape can race ahead of the first request.
                http_total = sum(
                    fams.get("repro_http_requests_total", {}).values()
                )
                assert served >= last_served
                assert http_total >= last_http
                last_served, last_http = served, http_total
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert errors == []
        assert last_served > 0
