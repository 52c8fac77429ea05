"""Keep-alive connections: the client's pool, its safe-retry rule, and
the daemon's handling of requests that follow one another on one
connection."""

from __future__ import annotations

import json
import select
import socket
import sys
import threading
from http.client import HTTPConnection
from types import SimpleNamespace

import pytest

from repro.serve import ServeClient
from repro.serve.router import WorkerHandle


def track_accepts(server) -> list[socket.socket]:
    """Record every connection ``server`` accepts from now on."""
    accepted: list[socket.socket] = []
    original = server.get_request

    def get_request():
        connection, address = original()
        accepted.append(connection)
        return connection, address

    server.get_request = get_request
    return accepted


def close_server_side(accepted: list[socket.socket], client: ServeClient) -> None:
    """Close every accepted connection from the server end and wait until
    the client's idle pooled sockets have seen the close."""
    for connection in accepted:
        try:
            connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # its handler already closed it
    idle = [connection.sock for connection in client.pool._idle]
    assert idle, "the client pooled no connection"
    for sock in idle:
        readable, __, __ = select.select([sock], [], [], 5.0)
        assert readable, "the server close never reached the client"


class TestConnectionPool:
    def test_fifty_requests_open_one_connection(self, server_factory):
        server, __ = server_factory()
        accepted = track_accepts(server)
        client = ServeClient("127.0.0.1", server.port)
        try:
            for i in range(50):
                if i % 2:
                    assert client.classify([[0.0, 0.0]], deadline_ms=5_000)[0] == 200
                else:
                    assert client.healthz()[0] == 200
        finally:
            client.close()
        assert len(accepted) == 1

    def test_classify_survives_a_server_closed_connection(self, server_factory):
        server, __ = server_factory()
        accepted = track_accepts(server)
        client = ServeClient("127.0.0.1", server.port)
        try:
            assert client.healthz()[0] == 200
            close_server_side(accepted, client)
            status, payload = client.classify([[-2.0, 0.0]], deadline_ms=5_000)
        finally:
            client.close()
        assert status == 200
        assert payload["labels"] == [1]
        assert len(accepted) == 2  # the retry ran on a fresh connection

    def test_unkeyed_ingest_on_dead_connection_is_not_repeated(
        self, server_factory
    ):
        server, __ = server_factory()
        accepted = track_accepts(server)
        client = ServeClient("127.0.0.1", server.port)
        try:
            assert client.healthz()[0] == 200
            close_server_side(accepted, client)
            with pytest.raises(ConnectionError):
                client.ingest([[0.0, 0.0]])
            assert client.statz()[1]["ingest_submitted"] == 0

            # A keyed ingest is safe to repeat: it is retried and reaches
            # the server once (409: this server has no pipeline).
            close_server_side(accepted, client)
            status, __ = client.ingest([[0.0, 0.0]], source="s", seq=1)
            assert status == 409
            assert client.statz()[1]["ingest_submitted"] == 1
        finally:
            client.close()

    def test_connection_close_response_is_not_pooled(self, server_factory):
        server, __ = server_factory(max_request_bytes=256)
        accepted = track_accepts(server)
        client = ServeClient("127.0.0.1", server.port)
        try:
            points = [[float(i), float(i)] for i in range(200)]
            assert client.classify(points, deadline_ms=5_000)[0] == 413
            assert client.pool._idle == []
            assert client.classify([[-2.0, 0.0]], deadline_ms=5_000)[0] == 200
        finally:
            client.close()
        assert len(accepted) == 2

    def test_worker_handle_pools_up_to_its_capacity(self, server_factory):
        server, __ = server_factory()
        accepted = track_accepts(server)
        process = SimpleNamespace(pid=0)
        handle = WorkerHandle(0, process, server.port, capacity=1)
        body = json.dumps({"points": [[0.0, 0.0]]}).encode("utf-8")
        try:
            for __ in range(5):
                status, __ = handle.pool.request("POST", "/classify", body)
                assert status == 200
            assert len(accepted) == 1
            first, reused = handle.pool.checkout()
            second, fresh_reused = handle.pool.checkout()
            assert reused and not fresh_reused
            handle.pool.checkin(first)
            handle.pool.checkin(second)  # over capacity: closed
            assert second.sock is None
            assert handle.pool._idle == [first]
        finally:
            handle.pool.close()
        assert first.sock is None


class TestKeepAliveBodies:
    """Each POST path consumes its body, so the next request on the
    same connection is parsed from its own first byte."""

    @staticmethod
    def post(connection: HTTPConnection, path: str, body: dict | str):
        raw = body if isinstance(body, str) else json.dumps(body)
        connection.request(
            "POST", path, body=raw.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response, json.loads(response.read() or b"{}")

    def test_unknown_path_then_classify(self, server_factory):
        server, __ = server_factory()
        connection = HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            response, payload = self.post(connection, "/nope", {"points": [[0, 0]]})
            assert response.status == 404
            response, payload = self.post(
                connection, "/classify", {"points": [[-2.0, 0.0]]}
            )
            assert response.status == 200
            assert payload["labels"] == [1]
        finally:
            connection.close()

    def test_drain_then_second_request(self, server_factory):
        server, __ = server_factory(drain_timeout=2.0)
        connection = HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            response, payload = self.post(connection, "/admin/drain", {})
            assert response.status == 202
            response, payload = self.post(
                connection, "/classify", {"points": [[0.0, 0.0]]}
            )
            assert response.status == 503
            assert payload["error"] == "draining"
        finally:
            connection.close()

    def test_oversized_body_closes_the_connection(self, server_factory):
        server, __ = server_factory(max_request_bytes=64)
        connection = HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            response, payload = self.post(
                connection, "/classify", {"points": [[1.0, 2.0]] * 20}
            )
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert response.will_close
            # http.client honours the close and reconnects for the next one.
            response, payload = self.post(
                connection, "/classify", {"points": [[0.0, 0.0]]}
            )
            assert response.status == 200
        finally:
            connection.close()

    def test_oversized_admin_body_is_refused(self, server_factory):
        server, __ = server_factory(max_request_bytes=64)
        connection = HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            response, payload = self.post(connection, "/admin/reload", "x" * 100)
            assert response.status == 413
            assert response.will_close
            assert payload["error"] == "request_too_large"
        finally:
            connection.close()


def test_client_threads_share_the_pool(server_factory):
    """More callers than cores share one client: each exchange gets a
    connection of its own, and no more connections open than callers."""
    server, __ = server_factory(queue_depth=3)  # admits all 4 callers
    accepted = track_accepts(server)
    client = ServeClient("127.0.0.1", server.port)
    statuses: list[int] = []
    lock = threading.Lock()

    def run() -> None:
        for __ in range(10):
            status, payload = client.classify([[-2.0, 0.0]], deadline_ms=5_000)
            with lock:
                statuses.append(status if payload.get("labels") == [1] else -1)

    threads = [threading.Thread(target=run) for __ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        client.close()
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * 40
    assert 1 <= len(accepted) <= 4


class TestIdleTimeout:
    """The daemon closes a keep-alive connection left idle past
    ``IDLE_TIMEOUT_S`` and its handler thread exits."""

    @staticmethod
    def track_handler_threads(server) -> list[threading.Thread]:
        threads: list[threading.Thread] = []
        original = server.process_request_thread

        def process_request_thread(request, client_address):
            threads.append(threading.current_thread())
            original(request, client_address)

        server.process_request_thread = process_request_thread
        return threads

    @staticmethod
    def wait_for_server_close(client: ServeClient) -> None:
        idle = [connection.sock for connection in client.pool._idle]
        assert len(idle) == 1
        readable, __, __ = select.select(idle, [], [], 10.0)
        assert readable, "the idle connection was never closed"
        assert idle[0].recv(1, socket.MSG_PEEK) == b""  # EOF, not data

    def test_idle_connection_closed_then_retried(self, server_factory, monkeypatch):
        from repro.serve import daemon

        monkeypatch.setattr(daemon, "IDLE_TIMEOUT_S", 0.3)
        server, __ = server_factory()
        accepted = track_accepts(server)
        threads = self.track_handler_threads(server)
        client = ServeClient("127.0.0.1", server.port)
        try:
            assert client.healthz()[0] == 200
            self.wait_for_server_close(client)
            threads[0].join(timeout=10.0)
            assert not threads[0].is_alive()

            status, payload = client.classify([[-2.0, 0.0]], deadline_ms=5_000)
            assert status == 200 and payload["labels"] == [1]
            assert len(accepted) == 2  # the once-only retry's fresh connection

            # An unkeyed ingest is not safe to repeat: it raises instead.
            self.wait_for_server_close(client)
            with pytest.raises(ConnectionError):
                client.ingest([[0.0, 0.0]])
            assert client.statz()[1]["ingest_submitted"] == 0
        finally:
            client.close()
        for thread in threads[:2]:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
