"""Tracing subsystem: ids, sampling, propagation, HTTP wiring, chaos.

The observability contracts, executable:

* **Ids and headers** -- fresh 64-bit hex ids, propagation-safe
  ``X-Request-Id`` sanitation, strict W3C ``traceparent`` parsing.
* **Retention policy** -- probabilistic sampling, always-on-error,
  always-over-threshold (the slow-query log), and the bounded ring.
* **Propagation** -- contextvars across threads, explicit ``activate``
  handoff, ``TraceHooks`` stage accumulation.
* **HTTP wiring** -- every response (success *and* failure) echoes
  ``X-Request-Id``; ``/trace/<id>`` returns the span tree; answers are
  bit-identical with tracing fully armed (the acceptance contract).
* **Chaos** -- injected dispatch faults surface as error spans carrying
  the fault, are retained at sample=0, and 429/500/503/504 responses
  still carry correlation ids.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro import trace as trace_mod
from repro.core.api import build_index
from repro.core.selectivity import epsilon_for_selectivity
from repro.service import QueryService, make_server


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends disarmed, with a reseeded fault RNG."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def indexed(tmp_path_factory):
    """One persisted grid index shared by the HTTP-layer tests."""
    rng = np.random.default_rng(9)
    data = rng.normal(size=(600, 12))
    eps = float(epsilon_for_selectivity(data, 8))
    path = tmp_path_factory.mktemp("traced") / "idx"
    build_index(data, eps, path)
    return path, data, eps


def _queries(data, nq=8, seed=3):
    rng = np.random.default_rng(seed)
    return data[rng.integers(0, data.shape[0], size=nq)]


def _post(conn, path, payload, headers=None):
    hdrs = {"Content-Type": "application/json"}
    if headers:
        hdrs.update(headers)
    conn.request("POST", path, json.dumps(payload), hdrs)
    resp = conn.getresponse()
    body = resp.read()
    parsed = json.loads(body) if body else {}
    return resp.status, parsed, {k.lower(): v for k, v in resp.getheaders()}


def _get(conn, path, headers=None):
    conn.request("GET", path, headers=headers or {})
    resp = conn.getresponse()
    body = resp.read()
    parsed = json.loads(body) if body else {}
    return resp.status, parsed, {k.lower(): v for k, v in resp.getheaders()}


class _Server:
    """Start/stop wrapper around :func:`make_server` for tests."""

    def __init__(self, index_path, **kwargs):
        self.server = make_server(
            {"default": index_path}, port=0, **kwargs
        )
        self.host, self.port = self.server.server_address[:2]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


# ----------------------------------------------------------------------
# Ids and inbound headers
# ----------------------------------------------------------------------


class TestIds:
    def test_new_id_is_64_bit_hex(self):
        ids = {trace_mod.new_id() for _ in range(64)}
        assert len(ids) == 64  # no collisions in a small draw
        for i in ids:
            assert len(i) == 16
            int(i, 16)  # parses as hex

    def test_sanitize_accepts_safe_ids(self):
        assert trace_mod.sanitize_request_id("req-42_a.b") == "req-42_a.b"
        assert trace_mod.sanitize_request_id("  abc  ") == "abc"

    @pytest.mark.parametrize("bad", [
        None, "", "   ", "has space", "semi;colon", "new\nline",
        "quote\"y", "x" * 500, "ünïcode",
    ])
    def test_sanitize_rejects_unsafe_ids(self, bad):
        assert trace_mod.sanitize_request_id(bad) is None

    def test_traceparent_roundtrip(self):
        hdr = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        assert trace_mod.parse_traceparent(hdr) == ("ab" * 16, "cd" * 8)

    @pytest.mark.parametrize("bad", [
        None,
        "",
        "01-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # unknown version
        "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",  # all-zero trace
        "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",  # all-zero parent
        "00-short-" + "cd" * 8 + "-01",
        "00-" + "ab" * 16 + "-" + "cd" * 8,          # missing flags
    ])
    def test_traceparent_rejects_malformed(self, bad):
        assert trace_mod.parse_traceparent(bad) is None


# ----------------------------------------------------------------------
# Retention policy + ring
# ----------------------------------------------------------------------


class TestRetention:
    def _one_trace(self, tracer, *, fail=False, name="root"):
        root = tracer.start_trace(name)
        with tracer.span("child", parent=root):
            pass
        if fail:
            root.record_error(RuntimeError("boom"))
        root.finish()
        return root

    def test_sample_zero_drops_ok_traces(self):
        tracer = trace_mod.Tracer(sample=0.0)
        root = self._one_trace(tracer)
        assert tracer.get_trace(root.trace_id) is None
        assert tracer.counters() == {
            "traces_started": 1, "traces_retained": 0,
            "traces_dropped": 1, "traces_active": 0,
        }

    def test_sample_one_retains_with_span_tree(self):
        tracer = trace_mod.Tracer(sample=1.0)
        root = self._one_trace(tracer)
        got = tracer.get_trace(root.trace_id)
        assert got is not None
        names = [s["name"] for s in got["spans"]]
        assert names == ["child", "root"]
        child, top = got["spans"]
        assert child["parent_id"] == top["span_id"]
        assert top["parent_id"] is None
        assert got["status"] == "ok"

    def test_error_always_retained_at_sample_zero(self):
        tracer = trace_mod.Tracer(sample=0.0, on_error=True)
        root = self._one_trace(tracer, fail=True)
        got = tracer.get_trace(root.trace_id)
        assert got is not None and got["status"] == "error"

    def test_on_error_false_drops_failures_too(self):
        tracer = trace_mod.Tracer(sample=0.0, on_error=False)
        root = self._one_trace(tracer, fail=True)
        assert tracer.get_trace(root.trace_id) is None

    def test_slow_threshold_retains_regardless_of_coin(self):
        tracer = trace_mod.Tracer(sample=0.0, slow_threshold_s=0.0)
        root = self._one_trace(tracer)  # any duration >= 0.0 is "slow"
        assert tracer.get_trace(root.trace_id) is not None

    def test_ring_is_bounded(self):
        tracer = trace_mod.Tracer(sample=1.0, ring_size=2)
        roots = [self._one_trace(tracer, name=f"r{i}") for i in range(5)]
        recent = tracer.recent()
        assert len(recent) == 2
        # Newest first, oldest evicted.
        assert [t["root"] for t in recent] == ["r4", "r3"]
        assert tracer.get_trace(roots[0].trace_id) is None

    def test_recent_omits_span_bodies(self):
        tracer = trace_mod.Tracer(sample=1.0)
        self._one_trace(tracer)
        (entry,) = tracer.recent()
        assert "spans" not in entry and entry["n_spans"] == 2

    def test_sampling_probability_is_seeded(self):
        tracer = trace_mod.Tracer(sample=0.5, seed=123)
        for i in range(200):
            self._one_trace(tracer, name=f"t{i}")
        kept = tracer.traces_retained
        assert 60 <= kept <= 140  # fair-ish coin
        again = trace_mod.Tracer(sample=0.5, seed=123)
        for i in range(200):
            self._one_trace(again, name=f"t{i}")
        assert again.traces_retained == kept  # same seed, same keeps

    def test_inbound_request_id_becomes_trace_id(self):
        tracer = trace_mod.Tracer(sample=1.0)
        root = tracer.start_trace("r", request_id="client-7")
        root.finish()
        assert root.trace_id == "client-7"
        assert tracer.get_trace("client-7") is not None

    def test_traceparent_supplies_id_and_remote_parent(self):
        tracer = trace_mod.Tracer(sample=1.0)
        hdr = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        root = tracer.start_trace("r", traceparent=hdr)
        assert root.trace_id == "ab" * 16
        assert root.parent_id == "cd" * 8


# ----------------------------------------------------------------------
# Context propagation + hooks
# ----------------------------------------------------------------------


class TestPropagation:
    def test_activate_carries_span_across_threads(self):
        tracer = trace_mod.Tracer(sample=1.0)
        root = tracer.start_trace("root")
        seen = {}

        def worker():
            with trace_mod.activate(root):
                seen["span"] = trace_mod.current_span()
                seen["rid"] = trace_mod.current_request_id()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["span"] is root
        assert seen["rid"] == root.trace_id
        assert trace_mod.current_span() is None  # never leaked here
        root.finish()

    def test_span_cm_nests_and_records_errors(self):
        tracer = trace_mod.Tracer(sample=1.0)
        root = tracer.start_trace("root")
        with trace_mod.activate(root):
            with pytest.raises(ValueError):
                with tracer.span("inner") as sp:
                    assert trace_mod.current_span() is sp
                    assert sp.parent_id == root.span_id
                    raise ValueError("nope")
        root.finish()
        got = tracer.get_trace(root.trace_id)
        inner = next(s for s in got["spans"] if s["name"] == "inner")
        assert inner["status"] == "error"
        assert "ValueError: nope" in inner["error"]

    def test_record_span_requires_a_parent(self):
        tracer = trace_mod.Tracer(sample=1.0)
        assert tracer.record_span("orphan", 0.01) is None
        root = tracer.start_trace("root")
        sp = tracer.record_span("timed", 0.25, parent=root,
                                attrs={"n": 3})
        assert sp.duration_s == 0.25 and sp.attrs["n"] == 3
        root.finish()
        names = [s["name"] for s in tracer.get_trace(root.trace_id)["spans"]]
        assert names == ["timed", "root"]

    def test_record_ambient_span_uses_active_context(self):
        tracer = trace_mod.Tracer(sample=1.0)
        assert trace_mod.record_ambient_span("noctx", 0.1) is None
        root = tracer.start_trace("root")
        with trace_mod.activate(root):
            sp = trace_mod.record_ambient_span("ambient", 0.1)
        assert sp is not None and sp.parent_id == root.span_id
        root.finish()

    def test_hooks_accumulate_and_scope(self):
        hooks = trace_mod.TraceHooks()
        assert trace_mod.current_hooks() is None
        with trace_mod.use_hooks(hooks):
            assert trace_mod.current_hooks() is hooks
            hooks.record("gemm", 0.5)
            hooks.record("gemm", 0.25)
            hooks.record("gather", 0.1)
        assert trace_mod.current_hooks() is None
        snap = hooks.snapshot()
        assert snap["gemm"] == pytest.approx(0.75)
        assert snap["gather"] == pytest.approx(0.1)

    def test_span_attr_and_event_bounds(self):
        tracer = trace_mod.Tracer(sample=1.0)
        root = tracer.start_trace("root")
        for i in range(trace_mod.MAX_ATTRS_PER_SPAN + 5):
            root.set_attr(f"a{i}", i)
        for i in range(trace_mod.MAX_EVENTS_PER_SPAN + 5):
            root.add_event("e", i=i)
        assert len(root.attrs) == trace_mod.MAX_ATTRS_PER_SPAN
        assert len(root.events) == trace_mod.MAX_EVENTS_PER_SPAN
        root.finish()
        assert tracer.get_trace(root.trace_id)["spans"][0]["dropped"] == 10


# ----------------------------------------------------------------------
# JSONL export + report rendering
# ----------------------------------------------------------------------


class TestJsonl:
    def test_export_roundtrip_and_report(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = trace_mod.Tracer(sample=1.0, jsonl_path=path)
        root = tracer.start_trace("POST range")
        with tracer.span("engine.dispatch", parent=root):
            time.sleep(0.001)
        root.finish()
        tracer.close()
        spans = trace_mod.read_jsonl(path)
        assert {s["name"] for s in spans} == {"POST range", "engine.dispatch"}
        report = trace_mod.render_report(spans)
        assert "POST range" in report and "engine.dispatch" in report
        assert root.trace_id in report

    def test_read_jsonl_rejects_schema_violations(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {
            "trace_id": "t", "span_id": "s", "name": "n",
            "duration_s": 0.1, "status": "ok",
        }
        path.write_text(
            json.dumps(good) + "\n" + json.dumps({"name": "orphan"}) + "\n"
        )
        with pytest.raises(ValueError, match=r":2: span is missing"):
            trace_mod.read_jsonl(path)
        path.write_text("not json\n")
        with pytest.raises(ValueError, match=r":1:"):
            trace_mod.read_jsonl(path)

    def test_render_report_filters(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = trace_mod.Tracer(sample=1.0, jsonl_path=path)
        for name in ("first", "second", "third"):
            tracer.start_trace(name).finish()
        tracer.close()
        spans = trace_mod.read_jsonl(path)
        limited = trace_mod.render_report(spans, limit=1)
        assert "third" in limited and "first" not in limited
        assert "no traces" in trace_mod.render_report(
            spans, slow_ms=60_000.0
        )


# ----------------------------------------------------------------------
# HTTP wiring
# ----------------------------------------------------------------------


class TestHttpTracing:
    # The threaded server is the only front end; the parameter keeps the
    # test id stable.
    @pytest.mark.parametrize("frontend", ["thread"])
    def test_request_id_echo_and_span_tree(self, indexed, frontend):
        path, data, eps = indexed
        q = _queries(data, nq=6)
        with _Server(path, trace_sample=1.0) as srv:
            conn = srv.connect()
            try:
                status, _body, hdrs = _post(
                    conn, "/range",
                    {"queries": q.tolist()},
                    headers={"X-Request-Id": "itest-1"},
                )
                assert status == 200
                assert hdrs["x-request-id"] == "itest-1"  # honored inbound
                status, got, _ = _get(conn, "/trace/itest-1")
                assert status == 200
                names = [s["name"] for s in got["spans"]]
                assert names[-1] == "POST range"
                for expected in ("queue.wait", "batch.assemble",
                                 "engine.dispatch", "batch.split"):
                    assert expected in names
                # Parent links all resolve within the trace.
                ids = {s["span_id"] for s in got["spans"]}
                for s in got["spans"][:-1]:
                    assert s["parent_id"] in ids
                # A response without an inbound id mints a fresh one.
                status, _body, hdrs = _post(
                    conn, "/knn", {"queries": q.tolist(), "k": 2}
                )
                assert status == 200
                assert trace_mod.sanitize_request_id(
                    hdrs["x-request-id"]
                ) is not None
                status, recent, _ = _get(conn, "/trace/recent")
                assert status == 200
                assert recent["traces_retained"] >= 2
                assert any(
                    t["trace_id"] == "itest-1" for t in recent["traces"]
                )
            finally:
                conn.close()

    def test_error_responses_carry_request_id(self, indexed):
        path, _data, _eps = indexed
        with _Server(path, trace_sample=0.0) as srv:
            conn = srv.connect()
            try:
                # 400 (malformed payload), 404 (unknown index/route).
                status, _b, hdrs = _post(conn, "/range", {"queries": "x"})
                assert status == 400 and "x-request-id" in hdrs
                status, _b, hdrs = _post(
                    conn, "/range", {"index": "nope", "queries": [[0.0]]}
                )
                assert status == 404 and "x-request-id" in hdrs
                status, _b, hdrs = _get(conn, "/trace/unknown-id")
                assert status == 404 and "x-request-id" in hdrs
            finally:
                conn.close()

    def test_answers_bit_identical_with_tracing_armed(self, indexed):
        """The acceptance contract: tracing on changes no output bit."""
        path, data, eps = indexed
        q = _queries(data, nq=32, seed=17)
        tracer = trace_mod.Tracer(sample=1.0, slow_threshold_s=0.0)
        with QueryService(tracer=tracer) as svc:
            engine = svc.cache.get(path)
            root = tracer.start_trace("bit-identity")
            with trace_mod.activate(root):
                traced_range = svc.query(path, q)
                traced_knn = svc.query(path, q, k=4)
            root.finish()
            # Direct engine calls run the hook-free branch.
            want_range = engine.range_query(q)
            want_knn = engine.knn_query(q, 4)
        order = np.lexsort((traced_range.pairs_j, traced_range.pairs_i))
        worder = np.lexsort((want_range.pairs_j, want_range.pairs_i))
        np.testing.assert_array_equal(
            traced_range.pairs_i[order], want_range.pairs_i[worder]
        )
        np.testing.assert_array_equal(
            traced_range.pairs_j[order], want_range.pairs_j[worder]
        )
        assert np.array_equal(
            traced_range.sq_dists[order].view(np.uint32),
            want_range.sq_dists[worder].view(np.uint32),
        )
        np.testing.assert_array_equal(
            traced_knn.indices, want_knn.indices
        )
        assert np.array_equal(
            traced_knn.sq_dists.view(np.uint32),
            want_knn.sq_dists.view(np.uint32),
        )
        # And the trace actually saw the engine work.
        got = tracer.get_trace(root.trace_id)
        assert got is not None

    def test_mutable_read_names_its_layers(self, tmp_path, monkeypatch):
        """A traced read on a mutable store records one ``delta.layer``
        span per part -- the base pass, then the delta block holding the
        sealed segment and the buffer -- nested under the request's
        engine.dispatch: a range read once, with one ``delta.merge``, a
        kNN read once per ``knn.round``.  Untraced reads record
        nothing."""
        from repro.index.delta import MutableIndex

        rng = np.random.default_rng(12)
        data = rng.normal(size=(300, 8))
        eps = float(epsilon_for_selectivity(data, 8))
        root_dir = tmp_path / "mut"
        MutableIndex.create(root_dir, data, eps, seal_threshold=16)
        q = _queries(data, nq=4)
        tracer = trace_mod.Tracer(sample=1.0, slow_threshold_s=0.0)
        with QueryService(tracer=tracer) as svc:
            svc.append(root_dir, rng.normal(size=(16, 8)))  # one segment
            svc.append(root_dir, rng.normal(size=(4, 8)))  # + the buffer
            assert svc.engine_for(root_dir).delta_depth == 2
            calls = []
            real = trace_mod.record_ambient_span
            monkeypatch.setattr(
                trace_mod, "record_ambient_span",
                lambda *a, **kw: calls.append(a[0]) or real(*a, **kw),
            )
            svc.query(root_dir, q)
            svc.query(root_dir, q, k=3)
            assert calls == []  # tracing off: no span work at all
            for kind in ({}, {"k": 3}):
                root = tracer.start_trace("mutable-read")
                with trace_mod.activate(root):
                    svc.query(root_dir, q, **kind)
                root.finish()
                spans = tracer.get_trace(root.trace_id)["spans"]
                (dispatch,) = [s for s in spans if s["name"] == "engine.dispatch"]
                layers = [s for s in spans if s["name"] == "delta.layer"]
                merges = [s for s in spans if s["name"] == "delta.merge"]
                rounds = [s for s in spans if s["name"] == "knn.round"]
                passes = len(rounds) if kind else 1
                assert passes >= 1 and len(merges) == (0 if kind else 1)
                assert [s["attrs"]["layer"] for s in layers] == [0, 1] * passes
                assert [s["attrs"]["rows"] for s in layers] == [300, 20] * passes
                for s in layers + merges + rounds:
                    assert s["parent_id"] == dispatch["span_id"]
                assert sum(s["duration_s"] for s in layers + merges) <= (
                    dispatch["duration_s"]
                )

    def test_traced_knn_reports_stages_and_rounds(self, indexed, monkeypatch):
        """A traced kNN read carries range's five engine stages on its
        dispatch span and records one ``knn.round`` span per reach it
        probed: a far query re-probes at doubling reach, with fewer
        queries still open each round.  Untraced, no round records a
        span."""
        path, data, eps = indexed
        q = np.concatenate([_queries(data, nq=4), data[:1] + 40.0 * eps])
        tracer = trace_mod.Tracer(sample=1.0, slow_threshold_s=0.0)
        with QueryService(tracer=tracer) as svc:
            engine = svc.cache.get(path)
            calls = []
            real = trace_mod.record_ambient_span
            monkeypatch.setattr(
                trace_mod, "record_ambient_span",
                lambda *a, **kw: calls.append(a[0]) or real(*a, **kw),
            )
            want = engine.knn_query(q, 3)
            assert calls == []
            root = tracer.start_trace("knn-rounds")
            with trace_mod.activate(root):
                got = svc.query(path, q, k=3)
            root.finish()
        np.testing.assert_array_equal(got.indices, want.indices)
        spans = tracer.get_trace(root.trace_id)["spans"]
        (dispatch,) = [s for s in spans if s["name"] == "engine.dispatch"]
        for stage in ("adjacency", "gather", "gemm", "rz", "commit"):
            assert f"stage.{stage}_s" in dispatch["attrs"], stage
        rounds = [s for s in spans if s["name"] == "knn.round"]
        reach = [s["attrs"]["reach"] for s in rounds]
        open_ = [s["attrs"]["unresolved"] for s in rounds]
        assert len(rounds) >= 3
        assert all(b == 2 * a for a, b in zip(reach, reach[1:]))
        assert open_[0] == 5 and open_[-1] == 1 and open_ == sorted(open_)[::-1]
        assert all(s["parent_id"] == dispatch["span_id"] for s in rounds)

    def test_stage_histogram_populated(self, indexed):
        path, data, eps = indexed
        q = _queries(data, nq=6)
        with _Server(path, trace_sample=0.0) as srv:
            conn = srv.connect()
            try:
                assert _post(conn, "/range",
                             {"queries": q.tolist()})[0] == 200
                assert _post(conn, "/knn",
                             {"queries": q.tolist(), "k": 2})[0] == 200
                conn.request("GET", "/metrics")
                text = conn.getresponse().read().decode()
            finally:
                conn.close()
        for stage in ("adjacency", "gather", "gemm", "rz", "commit"):
            assert f'repro_stage_seconds_count{{stage="{stage}"}}' in text
        assert "repro_traces_started" in text


# ----------------------------------------------------------------------
# Chaos: injected faults surface in traces and keep correlation ids
# ----------------------------------------------------------------------


class TestChaos:
    def test_dispatch_fault_becomes_error_span(self, indexed):
        """An injected dispatch error is retained at sample=0 and the
        error span names the fault."""
        path, data, _eps = indexed
        q = _queries(data, nq=4)
        with _Server(path, trace_sample=0.0) as srv:
            conn = srv.connect()
            try:
                faults.arm("service.dispatch", "error", 1.0)
                status, body, hdrs = _post(
                    conn, "/range", {"queries": q.tolist()},
                    headers={"X-Request-Id": "chaos-1"},
                )
                faults.disarm()
                assert status == 500
                assert hdrs["x-request-id"] == "chaos-1"
                assert "FaultError" in body["error"]
                # on-error retention: the trace is in the ring despite
                # sample=0, and its dispatch span carries the fault.
                status, got, _ = _get(conn, "/trace/chaos-1")
                assert status == 200 and got["status"] == "error"
                dispatch = next(
                    s for s in got["spans"]
                    if s["name"] == "engine.dispatch"
                )
                assert dispatch["status"] == "error"
                assert "FaultError" in dispatch["error"]
            finally:
                conn.close()

    def test_worker_fault_recovery_keeps_traces_clean(self, indexed):
        """There is no worker fault point (arming one is a typo and
        raises), and a served query's trace closes ok with the serial
        engine's stages only."""
        path, data, _eps = indexed
        q = _queries(data, nq=4)
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.arm("worker.exec", "error", 1.0)
        tracer = trace_mod.Tracer(sample=1.0)
        with QueryService(tracer=tracer) as svc:
            root = tracer.start_trace("worker-chaos")
            with trace_mod.activate(root):
                res = svc.query(path, q)
            root.finish()
        assert res.n_left == q.shape[0]
        got = tracer.get_trace(root.trace_id)
        assert got is not None and got["status"] == "ok"
        assert "worker" not in trace_mod.STAGES

    def test_rejections_and_timeouts_echo_request_id(self, indexed):
        """429 (admission), 504 (deadline), 503 (draining) all carry
        ``X-Request-Id`` so failed requests stay correlatable."""
        path, data, _eps = indexed
        q = _queries(data, nq=2)
        svc = QueryService(
            max_queue_depth=1,
            default_deadline_s=0.05,
            tracer=trace_mod.Tracer(sample=0.0),
        )
        with _Server(path, service=svc) as srv:
            # One slow dispatch at a time: the first request holds the
            # dispatcher, the rest either overflow the depth-1 queue
            # (429) or outlive their 50 ms deadline waiting (504).
            faults.arm("service.dispatch", "delay", 1.0, param=0.25)
            statuses: list = [None] * 6
            headers: list = [None] * 6

            def fire(i):
                conn = srv.connect()
                try:
                    statuses[i], _b, headers[i] = _post(
                        conn, "/range", {"queries": q.tolist()}
                    )
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
                time.sleep(0.01)  # stagger: admit-then-overflow
            for t in threads:
                t.join()
            faults.disarm()
            assert all(
                h is not None and "x-request-id" in h for h in headers
            )
            rejected = {s for s in statuses if s != 200}
            assert rejected and rejected <= {429, 504}
            # Draining: while a slow in-flight batch holds the stop()
            # drain open, a fresh request gets a 503 that still carries
            # a correlation id (submit after a *completed* stop would
            # just restart the loop).
            faults.arm("service.dispatch", "delay", 1.0, param=0.5)
            hold = threading.Thread(target=fire, args=(0,))
            hold.start()
            time.sleep(0.1)  # let the slow batch reach the dispatcher
            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            time.sleep(0.1)  # let stop() flip the draining flag
            conn = srv.connect()
            try:
                status, _b, hdrs = _post(
                    conn, "/range", {"queries": q.tolist()}
                )
            finally:
                conn.close()
            hold.join()
            stopper.join()
            faults.disarm()
        assert status == 503 and "x-request-id" in hdrs
