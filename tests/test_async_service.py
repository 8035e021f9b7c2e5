"""HTTP serving pipeline: front-end conformance, drain-the-queue
micro-batching, mixed-k kNN grouping and client connection reuse.

The contracts under test: one keep-alive connection serves a mixed
sequence of answers and error responses without losing its framing,
a request the server cannot frame closes the connection, no response
waits on the client's delayed ACK, and the dispatcher -- which batches
whatever queued while the engine was busy, never waiting on a timer --
never changes *what* a request answers, only how requests share
executor batches.  Tests that need requests to coalesce hold the
dispatcher inside one batch with an injected ``service.dispatch``
delay, so the requests submitted meanwhile queue behind it.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core.api import build_index
from repro.core.selectivity import epsilon_for_selectivity
from repro.service import QueryService, ServiceClient
from repro.index.query import QueryEngine
from repro.service.server import _Pending, make_server


@pytest.fixture(scope="module")
def data_eps():
    rng = np.random.default_rng(7)
    centers = rng.normal(0, 5, size=(8, 16))
    data = centers[rng.integers(0, 8, 1200)] + rng.normal(
        0, 0.6, size=(1200, 16)
    )
    return np.ascontiguousarray(data), float(epsilon_for_selectivity(data, 24))


@pytest.fixture(scope="module")
def index_dir(data_eps, tmp_path_factory):
    data, eps = data_eps
    path = tmp_path_factory.mktemp("asvc") / "g"
    build_index(data, eps, path)
    return path


def _serve(index_dir, **kwargs):
    server = make_server({"default": index_dir}, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


class _RawConnection:
    """One keep-alive HTTP/1.1 connection over a raw socket, written the
    way a latency-minded client writes: ``TCP_NODELAY`` and one
    ``sendall`` per request, so any wait it sees is the server's."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    @staticmethod
    def encode(method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        return (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )

    def request(self, method, path, payload=None):
        self.sock.sendall(self.encode(method, path, payload))
        return self.response()

    def response(self):
        """Read one response off the stream: ``(status, body)``."""
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self._buf) < length:
            self._fill()
        got, self._buf = self._buf[:length], self._buf[length:]
        return int(lines[0].split()[1]), got

    def close(self):
        self.sock.close()


# ----------------------------------------------------------------------
# Drain-the-queue batching
# ----------------------------------------------------------------------

#: How long a held batch keeps the dispatcher busy.
HOLD_S = 0.2


def _hold(svc, engine, rows):
    """Park ``svc``'s dispatcher inside one batch for ``HOLD_S``.

    Returns the held request's handle once the dispatcher has taken it:
    everything submitted before the hold ends queues behind that batch
    and comes out together in the next one.
    """
    faults.arm("service.dispatch", "delay", param=HOLD_S, count=1)
    before = svc.batches_dispatched
    held = svc.submit(engine, rows)
    give_up = time.monotonic() + 5.0
    while svc.batches_dispatched == before:
        assert time.monotonic() < give_up, "the held batch never dispatched"
        time.sleep(0.001)
    return held


def _dispatcher_threads():
    return {
        t for t in threading.enumerate()
        if t.name == "repro-query-service" and t.is_alive()
    }


def _canonical_range(res):
    """``(i, j, distance bits)`` in ``(i, j)`` order, for bitwise compares."""
    order = np.lexsort((res.pairs_j, res.pairs_i))
    return (
        res.pairs_i[order], res.pairs_j[order],
        res.sq_dists[order].view(np.uint32),
    )


class TestDrainBatching:
    def test_requests_queued_behind_a_batch_ride_the_next_one(
        self, data_eps, index_dir
    ):
        """Three compatible requests submitted while the engine is busy
        come out as exactly one following batch, each answer bitwise
        equal to its serial call."""
        data, _ = data_eps
        rng = np.random.default_rng(5)
        qs = [
            np.ascontiguousarray(
                data[rng.integers(0, len(data), nq)]
                + rng.normal(0, 0.05, size=(nq, data.shape[1]))
            )
            for nq in (2, 3, 4)
        ]
        svc = QueryService()
        try:
            engine = svc.engine_for(index_dir)
            before = svc.stats()
            held = _hold(svc, engine, data[:1])
            pendings = [svc.submit(engine, q) for q in qs]
            got = [p.result(timeout=10.0) for p in pendings]
            held.result(timeout=10.0)
            after = svc.stats()
        finally:
            faults.disarm()
            svc.stop()
        assert after["batches_dispatched"] - before["batches_dispatched"] == 2
        assert after["requests_coalesced"] - before["requests_coalesced"] == 3
        for res, q in zip(got, qs):
            for a, b in zip(
                _canonical_range(res), _canonical_range(engine.range_query(q))
            ):
                np.testing.assert_array_equal(a, b)

    def test_stop_whose_join_times_out_keeps_one_dispatcher(
        self, data_eps, index_dir
    ):
        """A stop() that gives up on a dispatcher still inside a batch
        must not let the next submit start a second loop beside it."""
        data, _ = data_eps
        existing = _dispatcher_threads()
        svc = QueryService()
        try:
            engine = svc.engine_for(index_dir)
            _hold(svc, engine, data[:1])
            # The join "times out": the dispatcher is still mid-batch.
            svc._thread.join = lambda timeout=None: None
            svc.stop()
            res = svc.query(engine, data[:2], deadline_s=10.0)
            assert res.n_left == 2
            assert len(_dispatcher_threads() - existing) == 1
        finally:
            faults.disarm()
            svc.stop()


class TestRemovedBatchWindowKnob:
    def test_max_delay_s_is_not_accepted(self):
        """The service has no coalescing window to size: a caller still
        passing one fails loudly instead of being silently ignored."""
        with pytest.raises(TypeError):
            QueryService(max_delay_s=0.002)


# ----------------------------------------------------------------------
# Mixed-k kNN: kNN requests group by k, like range requests by eps
# ----------------------------------------------------------------------


def _record_knn_calls(engine):
    """Wrap ``engine.knn_query`` to log the k of every engine call."""
    calls = []
    real = engine.knn_query

    def knn_query(q, k):
        calls.append(k)
        return real(q, k)

    engine.knn_query = knn_query
    return calls


class TestCrossKCoalescing:
    def test_dispatch_runs_one_engine_call_per_k(self, data_eps, index_dir):
        """Requests of one k share an engine call at that k, and every
        answer is bit-identical to the per-request serial call."""
        data, eps = data_eps
        engine = QueryEngine(index_dir)
        rng = np.random.default_rng(3)
        qs = [
            np.ascontiguousarray(
                data[rng.integers(0, len(data), nq)]
                + rng.normal(0, 0.05, size=(nq, data.shape[1]))
            )
            for nq in (3, 1, 4, 2)
        ]
        ks = (1, 7, 3, 7)
        svc = QueryService()
        try:
            batch = [
                _Pending(engine, q, None, "knn", k, None)
                for q, k in zip(qs, ks)
            ]
            calls = _record_knn_calls(engine)
            svc._dispatch(batch)
            del engine.knn_query
            assert calls == [1, 7, 3]
            for pending, q, k in zip(batch, qs, ks):
                got = pending.result(timeout=5.0)
                want = engine.knn_query(q, k)
                assert got.k == k
                assert got.indices.shape == (q.shape[0], k)
                np.testing.assert_array_equal(got.indices, want.indices)
                assert np.array_equal(
                    got.sq_dists.view(np.uint32),
                    want.sq_dists.view(np.uint32),
                )
        finally:
            svc.stop()

    def test_live_coalesced_cross_k_matches_serial(self, data_eps, index_dir):
        """Mixed-k requests queued behind a held batch each equal their
        serial call bitwise; the next batch runs one engine call per k,
        and only the two k=5 requests share one."""
        data, eps = data_eps
        svc = QueryService()
        try:
            engine = svc.engine_for(index_dir)  # warm the cache first
            rng = np.random.default_rng(4)
            qs = [
                np.ascontiguousarray(
                    data[rng.integers(0, len(data), 2)]
                    + rng.normal(0, 0.05, size=(2, data.shape[1]))
                )
                for _ in range(7)
            ]
            ks = (1, 2, 3, 4, 5, 8, 5)
            wants = [engine.knn_query(q, k) for q, k in zip(qs, ks)]
            held = _hold(svc, engine, data[:1])
            calls = _record_knn_calls(engine)
            pendings = [
                svc.submit(engine, q, k=k) for q, k in zip(qs, ks)
            ]
            for pending, want, k in zip(pendings, wants, ks):
                got = pending.result(timeout=10.0)
                assert got.k == k
                np.testing.assert_array_equal(got.indices, want.indices)
                assert np.array_equal(
                    got.sq_dists.view(np.uint32),
                    want.sq_dists.view(np.uint32),
                )
            held.result(timeout=10.0)
            del engine.knn_query
            assert sorted(calls) == sorted(set(ks))
            assert svc.stats()["requests_coalesced"] == 2
        finally:
            faults.disarm()
            svc.stop()

    def test_bad_k_is_400_even_beside_a_valid_k(self, data_eps, index_dir):
        """``k=-2`` queued next to a ``k=5`` request must not be served
        as a slice of the shared k=5 answer: it is refused at submit."""
        data, _ = data_eps
        q = data[:3].tolist()
        server, thread = _serve(index_dir)
        out = {}

        def post(name, path, payload):
            conn = _RawConnection(*server.server_address[:2])
            try:
                out[name] = conn.request("POST", path, payload)
            finally:
                conn.close()

        try:
            svc = server.service
            engine = svc.engine_for(index_dir)
            held = _hold(svc, engine, data[:1])
            posts = [
                threading.Thread(target=post, args=(name, "/knn", body))
                for name, body in (
                    ("good", {"queries": q, "k": 5}),
                    ("bad", {"queries": q, "k": -2}),
                )
            ]
            for t in posts:
                t.start()
            for t in posts:
                t.join(timeout=10.0)
            held.result(timeout=10.0)
        finally:
            faults.disarm()
            _stop(server, thread)
        assert out["good"][0] == 200
        status, body = out["bad"]
        assert status == 400, body
        assert "k must be positive" in json.loads(body)["error"]


# ----------------------------------------------------------------------
# Front-end conformance
# ----------------------------------------------------------------------


# The threaded server is the only front end; the parameter keeps the
# test ids stable.
@pytest.mark.parametrize("frontend", ["thread"])
class TestFrontendConformance:
    def test_keep_alive_request_sequence(self, data_eps, index_dir, frontend):
        """One TCP connection serves a whole mixed sequence -- including
        error responses, which must not desync keep-alive framing."""
        data, eps = data_eps
        server, thread = _serve(index_dir)
        try:
            host, port = server.server_address[:2]
            engine = QueryEngine(index_dir)
            q = np.ascontiguousarray(data[:4] + 0.01)
            conn = http.client.HTTPConnection(host, port, timeout=30)

            def roundtrip(method, path, payload=None):
                body = None if payload is None else json.dumps(payload)
                hdrs = {} if body is None else {
                    "Content-Type": "application/json"
                }
                conn.request(method, path, body, hdrs)
                resp = conn.getresponse()
                raw = resp.read()
                ct = resp.getheader("Content-Type") or ""
                return resp.status, (
                    json.loads(raw) if "json" in ct else raw.decode()
                )

            status, health = roundtrip("GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")
            status, got = roundtrip(
                "POST", "/range", {"queries": q.tolist()}
            )
            want = engine.range_query(q)
            sets = [set() for _ in range(q.shape[0])]
            for i, j in zip(want.pairs_i.tolist(), want.pairs_j.tolist()):
                sets[i].add(j)
            assert status == 200
            assert [set(x) for x in got["neighbors"]] == sets
            status, got = roundtrip(
                "POST", "/knn", {"queries": q.tolist(), "k": 3}
            )
            assert status == 200
            assert got["indices"] == engine.knn_query(q, 3).indices.tolist()
            # Error contracts, all on the SAME connection:
            status, got = roundtrip("POST", "/range", {"index": "nope"})
            assert status == 404 and "indexes" in got
            status, got = roundtrip("POST", "/nope", {})
            assert status == 404 and "unknown path" in got["error"]
            conn.request("POST", "/range", "[1, 2]",
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            bad = json.loads(resp.read())
            assert resp.status == 400
            assert bad["error"] == "request body must be a JSON object"
            status, text = roundtrip("GET", "/metrics")
            assert status == 200
            assert "repro_http_requests_total" in text
            assert "repro_service_batch_fill" in text
            status, stats = roundtrip("GET", "/stats")
            assert status == 200 and stats["requests_served"] >= 2
            conn.close()
        finally:
            _stop(server, thread)

    def test_oversized_body_is_413_and_closes(
        self, index_dir, frontend
    ):
        server, thread = _serve(index_dir, max_body_bytes=4096)
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "POST", "/range", b"x",
                {"Content-Type": "application/json",
                 "Content-Length": str(1 << 20)},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 413
            assert "exceeds" in body["error"]
            # The unread body makes the stream unframeable: the server
            # must say so and actually hang up.
            assert (resp.getheader("Connection") or "").lower() == "close"
            conn.close()
        finally:
            _stop(server, thread)

    def test_back_to_back_requests_skip_delayed_ack(
        self, data_eps, index_dir, frontend
    ):
        """Every write site (answers, 404s, Prometheus text) reaches a
        no-delay client without waiting out its delayed-ACK timer: 20
        back-to-back keep-alive requests cost a few ms each, not 40+."""
        data, _ = data_eps
        q = np.ascontiguousarray(data[:8] + 0.01).tolist()
        mix = [
            ("POST", "/range", {"queries": q}, 200),
            ("POST", "/knn", {"queries": q, "k": 5}, 200),
            ("POST", "/range", {"index": "nope"}, 404),
            ("GET", "/metrics", None, 200),
        ]
        server, thread = _serve(index_dir)
        try:
            conn = _RawConnection(*server.server_address[:2])
            # Warm up: the first request opens the index.
            assert conn.request(*mix[0][:3])[0] == 200
            t0 = time.perf_counter()
            statuses = [
                conn.request(method, path, payload)[0]
                for method, path, payload, _ in mix * 5
            ]
            elapsed = time.perf_counter() - t0
            conn.close()
            assert statuses == [want for *_, want in mix] * 5
            assert elapsed < 0.4, f"20 requests took {elapsed * 1e3:.0f} ms"
        finally:
            _stop(server, thread)

    def test_self_test_passes(self, index_dir, frontend):
        from repro.service.server import run_self_test

        out = run_self_test(index_dir, n_clients=2, queries_per_client=4)
        assert out["stats"]["requests_served"] >= 4


class TestBadContentLength:
    @pytest.mark.parametrize("declared", ["-1", "abc"])
    def test_is_400_and_closes(self, data_eps, index_dir, declared):
        """A length the server cannot frame the body by is refused unread
        and the connection closed: a negative one would read to EOF, a
        non-integer one would leave the body to parse as the next
        request line."""
        data, _ = data_eps
        body = json.dumps({"queries": data[:1].tolist()}).encode()
        server, thread = _serve(index_dir)
        try:
            sock = socket.create_connection(
                server.server_address[:2], timeout=1.0
            )
            try:
                sock.sendall(
                    b"POST /range HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {declared}\r\n\r\n".encode()
                    + body
                    + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
                )
                reply = b""
                while True:  # recv times out unless the server hangs up
                    try:
                        chunk = sock.recv(65536)
                    except ConnectionResetError:
                        break  # closed with the body still unread
                    if not chunk:
                        break
                    reply += chunk
            finally:
                sock.close()
        finally:
            _stop(server, thread)
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nconnection: close" in head.lower()
        assert b"HTTP/" not in rest  # the pipelined GET went unanswered


class TestRequestFraming:
    def test_pipelined_requests_answered_in_order(self, data_eps, index_dir):
        """Requests written back to back in one send, before any answer
        is read, are each answered, in the order they were sent."""
        data, _ = data_eps
        q = data[:2].tolist()
        server, thread = _serve(index_dir)
        try:
            conn = _RawConnection(*server.server_address[:2])
            conn.sock.sendall(
                conn.encode("GET", "/healthz")
                + conn.encode("POST", "/knn", {"queries": q, "k": 2})
                + conn.encode("POST", "/nope", {})
                + conn.encode("POST", "/range", {"queries": q})
            )
            got = [conn.response() for _ in range(4)]
            conn.close()
        finally:
            _stop(server, thread)
        assert [status for status, _ in got] == [200, 200, 404, 200]
        assert json.loads(got[0][1])["status"] == "ok"
        assert json.loads(got[1][1])["k"] == 2
        assert len(json.loads(got[3][1])["neighbors"]) == 2

    def test_post_without_content_length_is_400_and_keeps_alive(
        self, index_dir
    ):
        """A POST with no Content-Length has an empty body: the request
        is malformed (no queries), but it is framed, so the connection
        stays open for the next request."""
        server, thread = _serve(index_dir)
        try:
            conn = _RawConnection(*server.server_address[:2])
            conn.sock.sendall(b"POST /range HTTP/1.1\r\nHost: test\r\n\r\n")
            status, body = conn.response()
            assert status == 400
            assert "queries" in json.loads(body)["error"]
            assert conn.request("GET", "/healthz")[0] == 200
            conn.close()
        finally:
            _stop(server, thread)

    def test_body_at_the_limit_is_accepted(self, data_eps, index_dir):
        """``max_body_bytes`` is inclusive: a body of exactly that many
        bytes is read and answered; one byte more is a 413."""
        data, _ = data_eps
        payload = {"queries": data[:1].tolist()}
        limit = len(json.dumps(payload).encode())
        server, thread = _serve(index_dir, max_body_bytes=limit)
        try:
            conn = _RawConnection(*server.server_address[:2])
            status, body = conn.request("POST", "/range", payload)
            assert status == 200
            assert json.loads(body)["n_queries"] == 1
            payload["eps"] = None  # a few bytes over the limit
            status, body = conn.request("POST", "/range", payload)
            assert status == 413
            conn.close()
        finally:
            _stop(server, thread)


class TestPayloadBytes:
    def test_http_bodies_bitwise_equal_to_engine_payloads(
        self, data_eps, index_dir
    ):
        """The HTTP body is exactly the JSON of the serial engine's
        answer run through the payload helpers: batching and transport
        change no byte."""
        from repro.service.server import _knn_payload, _range_payload

        data, _ = data_eps
        q = np.ascontiguousarray(data[10:16] + 0.02)
        server, thread = _serve(index_dir)
        try:
            engine = server.service.cache.get(index_dir)
            conn = _RawConnection(*server.server_address[:2])
            got_range = conn.request("POST", "/range", {"queries": q.tolist()})
            got_knn = conn.request(
                "POST", "/knn", {"queries": q.tolist(), "k": 4}
            )
            conn.close()
        finally:
            _stop(server, thread)
        assert got_range == (
            200, json.dumps(_range_payload(engine.range_query(q))).encode()
        )
        assert got_knn == (
            200, json.dumps(_knn_payload(engine.knn_query(q, 4))).encode()
        )


class TestRemovedFrontendKnob:
    def test_frontend_is_not_accepted(self, index_dir):
        """The server has one front end: neither ``make_server`` nor
        ``serve`` takes a choice of one, so a caller still passing it
        fails loudly instead of being silently ignored."""
        from repro.cli import build_parser

        with pytest.raises(TypeError):
            make_server({"default": index_dir}, port=0, frontend="thread")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--index", str(index_dir), "--frontend", "async"]
            )


# ----------------------------------------------------------------------
# Client connection reuse
# ----------------------------------------------------------------------


class TestClientConnectionReuse:
    def test_single_connection_across_requests(
        self, data_eps, index_dir, monkeypatch
    ):
        """N requests ride ONE TCP connection (the keep-alive server +
        client reuse regression: HTTP/1.0 responses silently forced a
        reconnect per request)."""
        data, eps = data_eps
        connects = []
        orig = http.client.HTTPConnection.connect

        def counting_connect(self):
            connects.append(1)
            return orig(self)

        monkeypatch.setattr(
            http.client.HTTPConnection, "connect", counting_connect
        )
        server, thread = _serve(index_dir)
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                q = data[:2].tolist()
                for _ in range(4):
                    client.range_query(q)
                    client.knn_query(q, 2)
                client.healthz()
                client.stats()
            assert sum(connects) == 1
        finally:
            _stop(server, thread)

    def test_transparent_reconnect_after_server_restart(
        self, data_eps, index_dir
    ):
        """A keep-alive socket the server closed between requests gets
        one silent reconnect -- not an error, not a counted retry."""
        data, eps = data_eps
        server, thread = _serve(index_dir)
        host, port = server.server_address[:2]
        client = ServiceClient(host, port)
        try:
            client.range_query(data[:2].tolist())
            _stop(server, thread)  # server goes away; client holds a socket
            server, thread = _serve(index_dir)
            client.host, client.port = server.server_address[:2]
            # Stale-reuse detection kicks in: the request succeeds on a
            # fresh connection without burning a backoff retry.
            out = client.range_query(data[:2].tolist())
            assert out["n_queries"] == 2
            assert client.retries == 0
        finally:
            client.close()
            _stop(server, thread)
