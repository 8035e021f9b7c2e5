"""Load loops: closed (each client waits for its reply) and paced (open).

One generator process, at most ``nproc`` client threads = connections.
A request body is encoded before its clock starts and a reply is only
parsed after the phase, so neither is inside a latency; what share of a
client's wall time was spent outside ``request`` is reported as
``harness.client_busy_share``.  Failures are counted, never retried or
dropped, and every ``check_every``-th reply is kept for the oracle.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from httpclient import Connection

#: One row per request sent: which op, start (s since phase start),
#: latency (s), HTTP status (0 = transport error).
RECORD = np.dtype([("kind", "U8"), ("start", "f8"), ("latency", "f8"), ("status", "u2")])

CHECK_EVERY = 20
MAX_ERROR_BODIES = 10


@dataclass
class Request:
    kind: str       # "range" | "knn" | "point" | "append" | "delete"
    path: str
    payload: dict
    state: object = None   # what the oracle needs: the query or row array, or the ids
    when: tuple = ()       # serve_mutable: (appends, deletes) acknowledged before it was sent

    def body(self) -> bytes:
        return json.dumps(self.payload).encode()


@dataclass
class PhaseResult:
    records: np.ndarray
    wall_s: float
    samples: list = field(default_factory=list)   # (Request, reply bytes)
    errors: list = field(default_factory=list)    # first error bodies
    busy_share: float = 0.0
    late_share: float = 0.0

    def ok(self) -> np.ndarray:
        return self.records[self.records["status"] == 200]


def send(conn: Connection, req: Request, body: bytes) -> tuple[int, bytes]:
    try:
        return conn.request("POST", req.path, body)
    except (OSError, ValueError) as exc:
        return 0, f"transport: {type(exc).__name__}: {exc}".encode()


class Sink:
    """What one client thread collects; merged after the threads join."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.samples: list = []
        self.errors: list[str] = []
        self.in_request_s = 0.0
        self.late = 0

    def add(self, req: Request, start: float, latency: float, status: int, reply: bytes, keep: bool) -> None:
        self.rows.append((req.kind, start, latency, status))
        if status != 200:
            if len(self.errors) < MAX_ERROR_BODIES:
                self.errors.append(f"{req.path} {status} {reply[:300].decode('utf-8', 'replace')}")
        elif keep:
            self.samples.append((req, reply))


def merge(sinks: list[Sink], wall_s: float, thread_wall_s: float) -> PhaseResult:
    rows = [row for sink in sinks for row in sink.rows]
    records = np.array(rows, dtype=RECORD) if rows else np.empty(0, dtype=RECORD)
    records.sort(order="start")
    in_request = sum(sink.in_request_s for sink in sinks)
    return PhaseResult(
        records=records,
        wall_s=wall_s,
        samples=[s for sink in sinks for s in sink.samples],
        errors=[e for sink in sinks for e in sink.errors][:MAX_ERROR_BODIES],
        busy_share=1.0 - in_request / thread_wall_s if thread_wall_s > 0 else 0.0,
        late_share=sum(sink.late for sink in sinks) / max(len(rows), 1),
    )


def closed_loop(port: int, streams: list, seconds: float) -> PhaseResult:
    """Each stream's client sends its next request when the last returned."""
    sinks = [Sink() for _ in streams]
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client(stream, sink: Sink) -> None:
        conn = Connection(port)
        try:
            for i, req in enumerate(stream):
                body = req.body()
                t0 = time.perf_counter()
                if t0 >= deadline:
                    break
                status, reply = send(conn, req, body)
                t1 = time.perf_counter()
                sink.in_request_s += t1 - t0
                sink.add(req, t0 - t_start, t1 - t0, status, reply, i % CHECK_EVERY == 0)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=pair) for pair in zip(streams, sinks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    return merge(sinks, wall, wall * len(streams))


def paced_loop(port: int, requests: list[Request], due_s: np.ndarray, clients: int) -> PhaseResult:
    """Open loop: request ``i`` is due at ``due_s[i]`` whatever came before.

    Latency runs from the due time, so a stall is charged to the
    requests queued behind it; a send more than 1 ms after its due time
    counts as late (the generator, not the server, was behind).
    """
    sinks = [Sink() for _ in range(clients)]
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    t_start = time.perf_counter()

    def client(sink: Sink) -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    break
                req = requests[i]
                body = req.body()
                due = t_start + float(due_s[i])
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t0 = time.perf_counter()
                sink.late += t0 - due > 1e-3
                status, reply = send(conn, req, body)
                t1 = time.perf_counter()
                sink.in_request_s += t1 - t0
                sink.add(req, due - t_start, t1 - due, status, reply, i % CHECK_EVERY == 0)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(sink,)) for sink in sinks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    return merge(sinks, wall, wall * clients)


def percentile_ms(latencies_s: np.ndarray, q: float) -> float | None:
    return float(np.percentile(latencies_s, q) * 1e3) if latencies_s.size else None


def scrape(port: int) -> str:
    conn = Connection(port, timeout=10.0)
    try:
        status, body = conn.request("GET", "/metrics")
        return body.decode("utf-8", "replace") if status == 200 else ""
    except OSError:
        return ""
    finally:
        conn.close()


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text -> ``{"name{labels}": value}``; junk lines skipped."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out
