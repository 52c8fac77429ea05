"""Minimal stdlib HTTP client for the tKDC daemon.

For tests, benchmarks, and quick scripting — not a general SDK. Calls
reuse keep-alive connections from a thread-safe :class:`ConnectionPool`
(one connection per concurrent caller, kept until :meth:`ServeClient.close`)
and return ``(status_code, decoded_json)`` without raising on HTTP
error statuses: the daemon's structured 4xx/5xx bodies *are* the
interesting payload for robustness tests. Network-level failures
(refused connection, socket timeout) do raise.

A pooled connection the server has since closed fails before any
response byte arrives. Such a request is repeated once on a fresh
connection when repeating it is safe — a ``GET``, a ``/classify``, or
an ``/ingest`` carrying a ``(source, seq)`` idempotency key — and
raises otherwise, so an unkeyed ingest is never sent twice.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.client import HTTPConnection


class ConnectionPool:
    """Keep-alive connections to one ``host:port``, shared by threads.

    ``checkout`` hands out an idle connection (or a fresh one) to one
    caller at a time; ``checkin`` keeps it for the next caller, up to
    ``capacity`` idle connections. The serving router keeps one pool
    per worker.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 30.0, capacity: int = 8
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.capacity = capacity
        self._lock = threading.Lock()
        self._idle: list[HTTPConnection] = []

    def connect(self, timeout: float | None = None) -> HTTPConnection:
        """A fresh connection with Nagle disabled (small-payload latency).

        Small request/response pairs are exactly the Nagle/delayed-ACK
        interaction case; TCP_NODELAY keeps it from adding tens of
        milliseconds per exchange on some stacks.
        """
        connection = HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def checkout(self, timeout: float | None = None) -> tuple[HTTPConnection, bool]:
        """``(connection, reused)``: an idle pooled connection, else a fresh one."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self.connect(timeout), False
        timeout = self.timeout if timeout is None else timeout
        connection.timeout = timeout
        connection.sock.settimeout(timeout)
        return connection, True

    def checkin(self, connection: HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.capacity:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle connection; checked-out ones close on checkin."""
        with self._lock:
            idle, self._idle = self._idle, []
            self.capacity = 0
        for connection in idle:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
        timeout: float | None = None,
        retry_safe: bool = False,
    ) -> tuple[int, bytes]:
        """One exchange on a pooled connection; returns ``(status, raw body)``.

        A reused connection that fails before any response byte arrives
        (the server closed it while idle) is replaced and the request
        sent again, once, when ``retry_safe``; otherwise the error
        propagates. A response that announces ``Connection: close`` does
        not return its connection to the pool.
        """
        headers = headers or {}
        connection, reused = self.checkout(timeout)
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if not (reused and retry_safe):
                    raise
                connection.close()
                connection = self.connect(timeout)
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()  # its state is unknown
            raise
        if response.will_close:
            connection.close()
        else:
            self.checkin(connection)
        return response.status, data


class ServeClient:
    """Talk to one daemon instance at ``host:port``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool = ConnectionPool(host, port, timeout)

    def close(self) -> None:
        """Close the pooled connections."""
        self.pool.close()

    def _exchange(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, bytes]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        retry_safe = (
            method == "GET"
            or path == "/classify"
            or (path == "/ingest" and isinstance(body, dict) and "batch" in body)
        )
        return self.pool.request(
            method, path, payload, headers, retry_safe=retry_safe
        )

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        """One HTTP exchange; returns ``(status, json_payload)``."""
        status, raw = self._exchange(method, path, body)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"raw": raw.decode("utf-8", errors="replace")}
        return status, decoded

    def request_text(self, method: str, path: str) -> tuple[int, str]:
        """One HTTP exchange returning the raw body undecoded as JSON.

        For text endpoints like ``/metrics`` where the Prometheus
        exposition format must be preserved verbatim.
        """
        status, raw = self._exchange(method, path, None)
        return status, raw.decode("utf-8")

    # -- endpoint wrappers ------------------------------------------------

    def healthz(self) -> tuple[int, dict]:
        return self.request("GET", "/healthz")

    def readyz(self) -> tuple[int, dict]:
        return self.request("GET", "/readyz")

    def statz(self) -> tuple[int, dict]:
        return self.request("GET", "/statz")

    def metrics(self) -> tuple[int, str]:
        """Scrape ``/metrics``; returns the Prometheus text body."""
        return self.request_text("GET", "/metrics")

    def classify(
        self,
        points,
        deadline_ms: float | None = None,
    ) -> tuple[int, dict]:
        """POST a batch of query points (list of rows or numpy array)."""
        rows = points.tolist() if hasattr(points, "tolist") else points
        body: dict = {"points": rows}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self.request("POST", "/classify", body)

    def ingest(
        self,
        points,
        source: str | None = None,
        seq: int | None = None,
    ) -> tuple[int, dict]:
        """POST a batch to ``/ingest`` (streaming servers only).

        ``(source, seq)`` is the optional idempotency key; pass the same
        pair to retry a batch without risking a double-ingest.
        """
        rows = points.tolist() if hasattr(points, "tolist") else points
        body: dict = {"points": rows}
        if source is not None and seq is not None:
            body["batch"] = {"source": source, "seq": int(seq)}
        return self.request("POST", "/ingest", body)

    def reload(self, path: str | None = None) -> tuple[int, dict]:
        body = {} if path is None else {"path": str(path)}
        return self.request("POST", "/admin/reload", body)

    def drain(self) -> tuple[int, dict]:
        return self.request("POST", "/admin/drain", {})

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> bool:
        """Poll ``/readyz`` until it answers 200 or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, __ = self.readyz()
            except OSError:
                status = 0
            if status == 200:
                return True
            time.sleep(interval)
        return False
