"""ServiceClient contract, pinned against a scripted stub server.

:class:`~repro.service.client.ServiceClient` is the one HTTP client the
package ships (``query --server`` and ``serve --self-test`` use it), so
its contracts are checked here in isolation from the query server:

* **Retry policy** -- 429/503 and connection failures are retried with
  capped, fully jittered exponential backoff that honours
  ``Retry-After``; every other status returns to the caller at once;
  running out of attempts is a typed :class:`ServiceUnavailable`.
* **One attempt** -- ``request_once`` never retries, parses JSON or
  text by ``Content-Type``, reports ``Retry-After`` and the echoed
  ``X-Request-Id``, reuses its keep-alive connection, and reconnects
  once -- only once, and only on a *reused* connection -- when the
  server dropped it between requests.
* **API wrappers** -- each endpoint helper sends the documented payload
  and raises on a non-200 answer.

The stub answers each request with the next scripted response and
records what it received, so every assertion is about bytes on the
wire, not about the real server's behaviour.
"""

import json
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from repro.service import client as client_mod
from repro.service.client import (
    RETRYABLE_STATUSES,
    ServiceClient,
    ServiceUnavailable,
)

#: Script actions besides a ``(status, body, headers)`` reply.
DROP = "drop"  # close the socket without answering


def _reply(status=200, body=None, headers=None, *, close_after=False):
    """A scripted answer; ``close_after`` drops the keep-alive socket
    after the response without announcing ``Connection: close``."""
    return {
        "status": status,
        "body": {} if body is None else body,
        "headers": headers or {},
        "close_after": close_after,
    }


class _Stub:
    """Scripted HTTP/1.1 server: request ``i`` gets ``script[i]``.

    Requests past the end of the script get a plain 200 ``{}``.
    ``requests`` records ``(method, path, headers, body)``;
    ``connections`` counts accepted TCP connections.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.connections = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
                pass

            def setup(self):
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def _answer(self):
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                with stub._lock:
                    i = len(stub.requests)
                    stub.requests.append(
                        (self.command, self.path, dict(self.headers), raw)
                    )
                    action = (
                        stub.script[i] if i < len(stub.script) else _reply()
                    )
                if action == DROP:
                    self.close_connection = True
                    return
                body = action["body"]
                if isinstance(body, str):
                    data = body.encode()
                    ctype = "text/plain; version=0.0.4"
                else:
                    data = json.dumps(body).encode() if body != {} else b""
                    ctype = "application/json"
                self.send_response(action["status"])
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                for key, value in action["headers"].items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(data)
                if action["close_after"]:
                    self.close_connection = True

            do_GET = _answer  # noqa: N815 (stdlib casing)
            do_POST = _answer  # noqa: N815 (stdlib casing)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.port = self.server.server_address[1]

    def bodies(self):
        """The JSON request bodies received, in order."""
        return [json.loads(raw) if raw else None
                for _, _, _, raw in self.requests]


@contextmanager
def _stub(*script):
    stub = _Stub(script)
    thread = threading.Thread(
        target=stub.server.serve_forever, args=(0.01,), daemon=True
    )
    thread.start()
    try:
        yield stub
    finally:
        stub.server.shutdown()
        stub.server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def sleeps(monkeypatch):
    """Record backoff sleeps instead of sleeping them."""
    recorded = []
    monkeypatch.setattr(
        client_mod, "time", SimpleNamespace(sleep=recorded.append)
    )
    return recorded


def _free_port():
    """A port nothing listens on (bound, then released)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _client(port, **kw):
    kw.setdefault("timeout", 5.0)
    kw.setdefault("seed", 0)
    return ServiceClient("127.0.0.1", port, **kw)


# ----------------------------------------------------------------------
# Construction + backoff schedule
# ----------------------------------------------------------------------


class TestConstruction:
    @pytest.mark.parametrize("attempts", [0, -3])
    def test_max_attempts_must_be_positive(self, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            ServiceClient(max_attempts=attempts)

    def test_fields_are_coerced(self):
        c = ServiceClient("localhost", "9001", timeout=2, max_attempts=3.0,
                          base_delay_s=1, max_delay_s=4)
        assert (c.port, c.timeout, c.max_attempts) == (9001, 2.0, 3)
        assert (c.base_delay_s, c.max_delay_s) == (1.0, 4.0)
        assert c.retries == 0 and c.last_request_id is None

    def test_retryable_statuses_are_admission_and_drain(self):
        assert set(RETRYABLE_STATUSES) == {429, 503}


class TestBackoff:
    @pytest.mark.parametrize("attempt,ceiling", [
        (0, 0.02), (1, 0.04), (3, 0.16), (10, 1.0),
    ])
    def test_full_jitter_under_capped_ceiling(self, sleeps, attempt,
                                              ceiling):
        c = ServiceClient(base_delay_s=0.02, max_delay_s=1.0, seed=5)
        for _ in range(200):
            c._backoff(attempt, None)
        assert all(0.0 <= s <= ceiling for s in sleeps)
        # Full jitter spreads over the whole window, not just its top.
        assert min(sleeps) < 0.25 * ceiling < 0.75 * ceiling < max(sleeps)

    def test_retry_after_raises_the_floor(self, sleeps):
        c = ServiceClient(base_delay_s=0.001, max_delay_s=1.0, seed=5)
        for _ in range(50):
            c._backoff(0, 0.3)
        assert all(s == pytest.approx(0.3) for s in sleeps)

    def test_retry_after_is_capped_at_max_delay(self, sleeps):
        c = ServiceClient(base_delay_s=0.001, max_delay_s=0.5, seed=5)
        c._backoff(0, 10.0)
        assert sleeps == [0.5]

    def test_jitter_is_reproducible_under_seed(self, sleeps):
        for seed in (11, 11, 12):
            c = ServiceClient(seed=seed)
            for attempt in range(4):
                c._backoff(attempt, None)
        first, second, other = sleeps[:4], sleeps[4:8], sleeps[8:]
        assert first == second
        assert first != other


# ----------------------------------------------------------------------
# request(): the retry loop
# ----------------------------------------------------------------------


class TestRetryLoop:
    @pytest.mark.parametrize("status", [429, 503])
    def test_retryable_status_is_absorbed(self, sleeps, status):
        with _stub(_reply(status, {"error": "busy"}),
                   _reply(200, {"ok": 1})) as stub:
            with _client(stub.port) as c:
                assert c.request("GET", "/stats") == (200, {"ok": 1})
        assert c.retries == 1
        assert len(sleeps) == 1
        assert len(stub.requests) == 2

    def test_retry_after_header_drives_the_wait(self, sleeps):
        with _stub(_reply(429, {"error": "full"},
                          {"Retry-After": "0.250"}),
                   _reply(200)) as stub:
            with _client(stub.port, base_delay_s=0.001) as c:
                c.request("POST", "/range", {"queries": []})
        assert sleeps == [pytest.approx(0.25)]

    @pytest.mark.parametrize("status", [400, 404, 409, 413, 500, 504])
    def test_other_statuses_return_at_once(self, sleeps, status):
        with _stub(_reply(status, {"error": "no"})) as stub:
            with _client(stub.port) as c:
                got = c.request("POST", "/range", {"queries": []})
        assert got == (status, {"error": "no"})
        assert c.retries == 0 and sleeps == []
        assert len(stub.requests) == 1

    def test_exhausted_attempts_raise_typed_error(self, sleeps):
        with _stub(*[_reply(429, {"error": "full"})] * 5) as stub:
            with _client(stub.port, max_attempts=3) as c:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    c.request("POST", "/range", {"queries": []})
        msg = str(excinfo.value)
        assert "POST /range failed after 3 attempts" in msg
        assert "HTTP 429" in msg and "full" in msg
        assert len(stub.requests) == 3
        # No backoff after the final attempt: it would only delay the error.
        assert c.retries == 2 and len(sleeps) == 2

    def test_refused_connection_is_retried_then_typed(self, sleeps):
        c = _client(_free_port(), max_attempts=3)
        with pytest.raises(ServiceUnavailable, match="connection error"):
            c.request("GET", "/healthz")
        assert c.retries == 2 and len(sleeps) == 2

    def test_dropped_connection_is_retried_on_a_fresh_one(self, sleeps):
        with _stub(DROP, _reply(200, {"status": "ok"})) as stub:
            with _client(stub.port) as c:
                assert c.request("GET", "/healthz") == (
                    200, {"status": "ok"}
                )
        assert c.retries == 1
        assert stub.connections == 2

    def test_single_attempt_client_never_sleeps(self, sleeps):
        with _stub(_reply(503, {"error": "draining"})) as stub:
            with _client(stub.port, max_attempts=1) as c:
                with pytest.raises(ServiceUnavailable, match="HTTP 503"):
                    c.request("GET", "/healthz")
        assert sleeps == [] and c.retries == 0


# ----------------------------------------------------------------------
# request_once(): one attempt on the wire
# ----------------------------------------------------------------------


class TestRequestOnce:
    def test_does_not_retry_a_429(self, sleeps):
        with _stub(_reply(429, {"error": "full", "retry_after": 0.1},
                          {"Retry-After": "0.100"})) as stub:
            with _client(stub.port) as c:
                status, body, retry_after = c.request_once("GET", "/stats")
        assert status == 429 and body["retry_after"] == 0.1
        assert retry_after == pytest.approx(0.1)
        assert c.retries == 0 and sleeps == []

    def test_retry_after_absent_is_none(self):
        with _stub(_reply(200, {"a": 1})) as stub:
            with _client(stub.port) as c:
                assert c.request_once("GET", "/stats") == (200, {"a": 1}, None)

    def test_empty_json_body_parses_to_empty_dict(self):
        with _stub(_reply(200, {})) as stub:
            with _client(stub.port) as c:
                assert c.request_once("GET", "/stats")[1] == {}

    def test_text_body_is_returned_decoded(self):
        text = "# TYPE x counter\nx 3\n"
        with _stub(_reply(200, text)) as stub:
            with _client(stub.port) as c:
                assert c.request_once("GET", "/metrics")[1] == text

    def test_payload_is_sent_as_json(self):
        with _stub(_reply()) as stub:
            with _client(stub.port) as c:
                c.request_once("POST", "/knn", {"k": 3, "queries": [[1.0]]})
        method, path, headers, raw = stub.requests[0]
        assert (method, path) == ("POST", "/knn")
        assert headers["Content-Type"] == "application/json"
        assert json.loads(raw) == {"k": 3, "queries": [[1.0]]}

    def test_get_without_payload_sends_no_body(self):
        with _stub(_reply()) as stub:
            with _client(stub.port) as c:
                c.request_once("GET", "/healthz")
        _, _, headers, raw = stub.requests[0]
        assert raw == b"" and "Content-Type" not in headers

    def test_request_id_echo_is_recorded(self):
        with _stub(_reply(200, {}, {"X-Request-Id": "abc123"}),
                   _reply(200)) as stub:
            with _client(stub.port) as c:
                c.request_once("GET", "/stats")
                assert c.last_request_id == "abc123"
                c.request_once("GET", "/stats")
                assert c.last_request_id is None

    def test_keep_alive_connection_is_reused(self):
        with _stub(_reply(), _reply(), _reply()) as stub:
            with _client(stub.port) as c:
                for _ in range(3):
                    assert c.request_once("GET", "/stats")[0] == 200
                assert c._conn_uses == 3
        assert stub.connections == 1

    def test_stale_keep_alive_reconnects_once(self):
        with _stub(_reply(200, {"n": 1}, close_after=True),
                   _reply(200, {"n": 2})) as stub:
            with _client(stub.port) as c:
                assert c.request_once("GET", "/stats")[1] == {"n": 1}
                # The server dropped the reused socket between requests;
                # the client reconnects transparently, not as a retry.
                assert c.request_once("GET", "/stats")[1] == {"n": 2}
                assert c.retries == 0
                assert c._conn_uses == 1
        assert stub.connections == 2

    def test_disconnect_on_fresh_connection_raises(self):
        with _stub(DROP) as stub:
            with _client(stub.port) as c:
                with pytest.raises(ConnectionError):
                    c.request_once("GET", "/stats")
                assert c._conn is None  # dropped so the next call is clean
        assert len(stub.requests) == 1

    def test_refused_connection_raises(self):
        c = _client(_free_port())
        with pytest.raises(OSError):
            c.request_once("GET", "/healthz")
        assert c._conn is None


# ----------------------------------------------------------------------
# Endpoint helpers
# ----------------------------------------------------------------------


class TestEndpointHelpers:
    @pytest.mark.parametrize("eps,expected", [
        (None, {"index": "default", "queries": [[0.0, 1.0]]}),
        (2, {"index": "default", "queries": [[0.0, 1.0]], "eps": 2.0}),
    ])
    def test_range_query_sends_eps_only_when_given(self, eps, expected):
        with _stub(_reply(200, {"n_queries": 1})) as stub:
            with _client(stub.port) as c:
                assert c.range_query([[0.0, 1.0]], eps=eps) == {
                    "n_queries": 1
                }
        assert stub.requests[0][1] == "/range"
        assert stub.bodies() == [expected]

    def test_knn_query_payload(self):
        with _stub(_reply(200, {"indices": [[0]]})) as stub:
            with _client(stub.port) as c:
                c.knn_query([[1.0]], 2.0, index="wide")
        assert stub.requests[0][1] == "/knn"
        assert stub.bodies() == [
            {"index": "wide", "queries": [[1.0]], "k": 2}
        ]

    def test_append_returns_minted_ids(self):
        with _stub(_reply(200, {"ids": [7, 8]})) as stub:
            with _client(stub.port) as c:
                assert c.append([[1.0], [2.0]]) == [7, 8]
        assert stub.requests[0][1] == "/append"
        assert stub.bodies() == [{"index": "default", "rows": [[1.0], [2.0]]}]

    def test_delete_sends_a_list_and_returns_count(self):
        with _stub(_reply(200, {"deleted": 2})) as stub:
            with _client(stub.port) as c:
                assert c.delete(i for i in (3, 4)) == 2
        assert stub.requests[0][1] == "/delete"
        assert stub.bodies() == [{"index": "default", "ids": [3, 4]}]

    def test_compact_absorbs_an_in_flight_429(self, sleeps):
        with _stub(_reply(429, {"error": "compaction in flight"}),
                   _reply(200, {"compacted": True})) as stub:
            with _client(stub.port) as c:
                assert c.compact(index="m") == {"compacted": True}
        assert c.retries == 1
        assert stub.bodies() == [{"index": "m"}, {"index": "m"}]

    @pytest.mark.parametrize("call,path", [
        (lambda c: c.range_query([[0.0]]), "/range"),
        (lambda c: c.knn_query([[0.0]], 1), "/knn"),
        (lambda c: c.append([[0.0]]), "/append"),
        (lambda c: c.delete([1]), "/delete"),
        (lambda c: c.compact(), "/compact"),
    ])
    def test_non_200_raises_with_server_error(self, call, path):
        with _stub(_reply(400, {"error": "bad input"})) as stub:
            with _client(stub.port) as c:
                with pytest.raises(RuntimeError) as excinfo:
                    call(c)
        assert str(excinfo.value) == f"{path} returned HTTP 400: bad input"

    def test_healthz_returns_body_after_drain_retry(self, sleeps):
        with _stub(_reply(503, {"status": "draining"}),
                   _reply(200, {"status": "ok", "indexes": ["a"]})) as stub:
            with _client(stub.port) as c:
                assert c.healthz() == {"status": "ok", "indexes": ["a"]}
        assert c.retries == 1

    def test_stats_non_200_raises(self):
        with _stub(_reply(404, {"error": "gone"})) as stub:
            with _client(stub.port) as c:
                with pytest.raises(RuntimeError, match="/stats returned HTTP 404"):
                    c.stats()

    def test_metrics_text_returns_exposition(self):
        text = "# TYPE repro_x counter\nrepro_x 1\n"
        with _stub(_reply(200, text)) as stub:
            with _client(stub.port) as c:
                assert c.metrics_text() == text

    def test_metrics_text_non_200_raises(self):
        with _stub(_reply(500, {"error": "boom"})) as stub:
            with _client(stub.port) as c:
                with pytest.raises(RuntimeError, match="/metrics returned HTTP 500"):
                    c.metrics_text()


class TestLifecycle:
    def test_close_is_idempotent_and_reconnects_after(self):
        with _stub(_reply(), _reply()) as stub:
            c = _client(stub.port)
            c.request_once("GET", "/stats")
            c.close()
            c.close()
            assert c._conn is None and c._conn_uses == 0
            c.request_once("GET", "/stats")
            c.close()
        assert stub.connections == 2

    def test_context_manager_closes_connection(self):
        with _stub(_reply()) as stub:
            with _client(stub.port) as c:
                c.request_once("GET", "/stats")
                assert c._conn is not None
            assert c._conn is None
