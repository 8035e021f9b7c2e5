"""Retrying JSON-over-HTTP client for the query server.

The server rejects fast under pressure (429 + ``Retry-After`` from
admission control, 503 while draining) -- which only yields a usable
system if clients *absorb* those rejections instead of surfacing every
transient refusal.  :class:`ServiceClient` is that absorber: a
stdlib-only (``http.client``) wrapper that retries 429/503 responses and
connection-level failures with **capped exponential backoff + full
jitter**, honoring the server's ``Retry-After`` hint when present.
Anything else -- 400s, 404s, a 200 with a mismatched payload -- is the
caller's problem and surfaces immediately; retrying a malformed request
would just fail again.

Used by ``python -m repro query --server`` and by the serve self-test
(:func:`~repro.service.server.run_self_test`), which CI runs with
dispatch-delay faults armed and a tiny admission queue precisely so this
retry path is exercised against real 429s.
"""

from __future__ import annotations

import http.client
import json
import random
import time


class ServiceUnavailable(RuntimeError):
    """The server kept refusing (or the connection kept failing) past
    ``max_attempts``; the last status/error is in the message."""


#: HTTP statuses worth retrying: admission rejection and drain refusal.
RETRYABLE_STATUSES = (429, 503)


class ServiceClient:
    """JSON client with capped exponential backoff + jitter.

    Parameters
    ----------
    host, port:
        The running query server (see
        :func:`~repro.service.server.make_server`).
    timeout:
        Per-attempt socket timeout in seconds.
    max_attempts:
        Total tries per request before :class:`ServiceUnavailable`.
    base_delay_s, max_delay_s:
        Backoff schedule: attempt ``a`` sleeps ``uniform(0, min(max_delay,
        base * 2**a))`` (full jitter -- concurrent retriers decorrelate
        instead of stampeding in lockstep).  A ``Retry-After`` response
        header overrides the lower bound, capped at ``max_delay_s``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        timeout: float = 30.0,
        max_attempts: int = 5,
        base_delay_s: float = 0.02,
        max_delay_s: float = 1.0,
        seed: int | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.max_attempts = int(max_attempts)
        self.base_delay_s = float(base_delay_s)
        self.max_delay_s = float(max_delay_s)
        self._rng = random.Random(seed)
        self._conn: http.client.HTTPConnection | None = None
        #: Requests already served on the live connection (keep-alive
        #: reuse depth; resets whenever the connection is replaced).
        self._conn_uses = 0
        #: Count of retried attempts (429/503/connection errors absorbed).
        self.retries = 0
        #: The ``X-Request-Id`` the server echoed on the last response
        #: (== the server-side trace id; quote it to ``/trace/<id>``).
        self.last_request_id: "str | None" = None

    # -- plumbing -------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn_uses = 0
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._conn_uses = 0

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _backoff(self, attempt: int, retry_after: float | None) -> None:
        ceiling = min(self.max_delay_s, self.base_delay_s * (2 ** attempt))
        delay = self._rng.uniform(0.0, ceiling)
        if retry_after is not None:
            delay = max(delay, min(float(retry_after), self.max_delay_s))
        time.sleep(delay)

    def request_once(self, method: str, path: str,
                     payload: dict | None = None):
        """One attempt, **no** retries: ``(status, body, retry_after)``.

        The building block of :meth:`request`, and the way to observe a
        429/503 instead of absorbing it (``/trace/recent`` and
        ``/metrics`` scrapes use it directly).
        The body is parsed JSON when the response says it is JSON, the
        raw decoded text otherwise (``/metrics`` is Prometheus text).
        Connection-level failures propagate (the stale connection is
        dropped first so the next call starts clean) -- with one
        exception: a *reused* keep-alive connection the server quietly
        closed between requests (idle timeout, restart) gets one
        transparent reconnect, since the failure says nothing about the
        request itself.  A failure on a fresh connection still raises.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        for _ in range(2):
            reused = self._conn is not None and self._conn_uses > 0
            try:
                conn = self._connection()
                conn.request(method, path, body, headers)
                resp = conn.getresponse()
                break
            except (
                http.client.RemoteDisconnected,
                ConnectionResetError,
                BrokenPipeError,
            ):
                self.close()
                if not reused:
                    raise
                # Stale keep-alive socket: retry once on a fresh one.
            except (OSError, http.client.HTTPException):
                self.close()
                raise
        try:
            raw = resp.read()
            status = resp.status
            retry_after = resp.getheader("Retry-After")
            content_type = resp.getheader("Content-Type") or ""
            self.last_request_id = resp.getheader("X-Request-Id")
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        self._conn_uses += 1
        if "application/json" in content_type:
            parsed = json.loads(raw) if raw else {}
        else:
            parsed = raw.decode()
        return status, parsed, (
            float(retry_after) if retry_after is not None else None
        )

    def metrics_text(self) -> str:
        """``GET /metrics``: the Prometheus text exposition, unparsed."""
        status, body, _ = self.request_once("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned HTTP {status}")
        return body if isinstance(body, str) else json.dumps(body)

    def request(self, method: str, path: str, payload: dict | None = None):
        """One JSON request with retries; returns ``(status, body_dict)``.

        Retries 429/503 and connection-level errors up to
        ``max_attempts``; every other status returns to the caller
        as-is (the body is parsed JSON, ``{}`` on an empty body).
        """
        last = "no attempt made"
        for attempt in range(self.max_attempts):
            retry_after = None
            try:
                status, parsed, retry_after = self.request_once(
                    method, path, payload
                )
            except (OSError, http.client.HTTPException) as exc:
                # Connection refused/reset, timeouts, protocol hiccups:
                # the connection was dropped; retry on a fresh one.
                last = f"connection error: {exc!r}"
            else:
                if status not in RETRYABLE_STATUSES:
                    return status, parsed
                last = f"HTTP {status}: {str(parsed)[:200]!r}"
            if attempt + 1 < self.max_attempts:
                self.retries += 1
                self._backoff(attempt, retry_after)
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.max_attempts} attempts "
            f"(last: {last})"
        )

    def _query(self, path: str, payload: dict) -> dict:
        status, parsed = self.request("POST", path, payload)
        if status != 200:
            raise RuntimeError(
                f"{path} returned HTTP {status}: "
                f"{parsed.get('error', parsed)}"
            )
        return parsed

    # -- API ------------------------------------------------------------

    def range_query(
        self, queries, *, index: str = "default", eps: float | None = None
    ) -> dict:
        """``POST /range``; returns the grouped-neighbor JSON payload."""
        payload: dict = {"index": index, "queries": queries}
        if eps is not None:
            payload["eps"] = float(eps)
        return self._query("/range", payload)

    def knn_query(self, queries, k: int, *, index: str = "default") -> dict:
        """``POST /knn``; returns the indices/sq_dists JSON payload."""
        return self._query(
            "/knn", {"index": index, "queries": queries, "k": int(k)}
        )

    def append(self, rows, *, index: str = "default") -> list:
        """``POST /append`` to a mutable index; returns the minted ids."""
        return self._query("/append", {"index": index, "rows": rows})["ids"]

    def delete(self, ids, *, index: str = "default") -> int:
        """``POST /delete``; returns how many rows were tombstoned."""
        return int(
            self._query("/delete", {"index": index, "ids": list(ids)})[
                "deleted"
            ]
        )

    def compact(self, *, index: str = "default") -> dict:
        """``POST /compact``; returns the compaction summary.

        A compaction already in flight answers 429, which the retry
        loop absorbs like any other admission rejection.
        """
        return self._query("/compact", {"index": index})

    def healthz(self) -> dict:
        """``GET /healthz`` (note: 503-while-draining is retried --
        use :meth:`request` directly to observe the draining state)."""
        status, parsed = self.request("GET", "/healthz")
        return parsed

    def stats(self) -> dict:
        status, parsed = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats returned HTTP {status}")
        return parsed


__all__ = ["ServiceClient", "ServiceUnavailable", "RETRYABLE_STATUSES"]
