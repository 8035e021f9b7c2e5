"""The benchmark's own HTTP/1.1 client and server-process handle.

The server under test runs as a separate process started with nothing
but ``python -m repro serve --index P --host H --port N`` and is reached
only over TCP.  The client is deliberately plain -- one keep-alive
connection, one ``sendall`` per request, ``TCP_NODELAY`` -- so what it
measures is the server, and so it does not move when ``src/`` moves
(nothing is imported from ``repro.loadgen`` or ``repro.service.client``).
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"


class Connection:
    """One keep-alive HTTP/1.1 connection over a raw socket."""

    def __init__(self, port: int, *, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((HOST, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self.sock = sock
        return sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request, return ``(status, body)``.

        Raises ``OSError`` on a transport failure; the connection is
        then closed and the next call reconnects.  Nothing is retried.
        """
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        sock = self.sock or self._connect()
        try:
            sock.sendall(head + body)
            return self._read_response(sock)
        except OSError:
            self.close()
            raise

    def _read_response(self, sock: socket.socket) -> tuple[int, bytes]:
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buf += chunk
        lines = buf[:end].split(b"\r\n")
        status = int(lines[0].split(None, 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        rest = buf[end + 4:]
        parts = [rest]
        have = len(rest)
        while have < length:
            chunk = sock.recv(max(65536, length - have))
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            parts.append(chunk)
            have += len(chunk)
        data = b"".join(parts)
        self._buf = data[length:]
        return status, data[:length]


def peak_rss_mib(pid: int | str = "self") -> float:
    """A process's resident-set high-water mark (``VmHWM``), 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class ServerProcess:
    """``python -m repro serve`` in its own process; always reaped.

    Use as a context manager.  ``extra`` is only ever the traced pass's
    ``--trace-sample/--trace-log``; every other knob stays at its
    default so deleting a knob later cannot break the benchmark.
    """

    def __init__(self, index: Path, workdir: Path, extra: tuple[str, ...] = ()) -> None:
        self.index = index
        self.workdir = workdir
        self.extra = extra
        self.port = 0
        self.proc: subprocess.Popen | None = None
        self.peak_rss_mib = 0.0

    def __enter__(self) -> "ServerProcess":
        # PYTHONPATH and TMPDIR are inherited: run.py points them at the
        # program and inside the checkout.
        self.port = free_port()
        self._log = open(self.workdir / f"server-{self.port}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--index", str(self.index),
             "--host", HOST, "--port", str(self.port), *self.extra],
            stdout=self._log, stderr=subprocess.STDOUT,
            cwd=str(self.workdir),
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                tail = Path(self._log.name).read_text(errors="replace")[-2000:]
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} before "
                    f"becoming healthy:\n{tail}"
                )
            conn = Connection(self.port, timeout=2.0)
            try:
                status, _ = conn.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.02)
        raise RuntimeError("server did not become healthy in time")

    def __exit__(self, exc_type, exc, tb) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            self.peak_rss_mib = peak_rss_mib(proc.pid)
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._log.close()
        self.proc = None
