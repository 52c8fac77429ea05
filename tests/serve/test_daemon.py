"""End-to-end daemon behaviour over real HTTP: endpoints, admission,
deadlines, and the watchdog."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve.stats import TERMINAL_OUTCOMES


def terminal_total(statz: dict) -> int:
    return sum(statz[name] for name in TERMINAL_OUTCOMES)


class TestEndpoints:
    def test_healthz(self, server_factory):
        __, client = server_factory()
        status, payload = client.healthz()
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0

    def test_readyz(self, server_factory, model_path):
        __, client = server_factory()
        status, payload = client.readyz()
        assert status == 200
        assert payload["status"] == "ready"
        assert payload["model_path"] == str(model_path)

    def test_statz_shape(self, server_factory):
        __, client = server_factory()
        status, payload = client.statz()
        assert status == 200
        for name in ("submitted", "accepted", *TERMINAL_OUTCOMES):
            assert name in payload
        assert payload["breaker"] == "closed"
        assert payload["expansions_per_second"] > 0.0
        assert "traversal" in payload

    def test_unknown_paths_404(self, server_factory):
        __, client = server_factory()
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/also/nope", {})[0] == 404


class TestClassify:
    def test_roundtrip_matches_direct_classification(
        self, server_factory, fitted, train_data
    ):
        __, client = server_factory()
        queries = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 8.0]])
        status, payload = client.classify(queries.tolist(), deadline_ms=10_000)
        assert status == 200
        direct = fitted.classify_detailed(queries)
        assert payload["labels"] == [int(v) for v in direct.resolved_labels()]
        assert payload["threshold"] == pytest.approx(float(direct.threshold))
        assert payload["mode"] == "full"
        assert payload["exact_fallbacks"] == 0
        assert not payload["degraded_any"]

    def test_default_deadline_used_when_absent(self, server_factory):
        __, client = server_factory()
        status, payload = client.classify([[0.0, 0.0]])
        assert status == 200
        assert payload["budget"] >= 32

    def test_tiny_deadline_gets_floor_budget_not_an_error(self, server_factory):
        # A tiny budget_safety keeps what 1 ms affords below the floor at
        # any calibrated rate (at ~7e4 expansions/s and the default 0.5,
        # a request that starts early enough in its 1 ms affords 33).
        server, client = server_factory(min_budget=32, budget_safety=0.01)
        status, payload = client.classify([[0.0, 0.0]], deadline_ms=1)
        # Either the floor-budget answer made it, or the 1ms deadline
        # expired before/while queued — every path is structured, none hang.
        assert status in (200, 429, 503)
        if status == 200:
            assert payload["budget"] == 32
        else:
            assert payload["error"] in ("overloaded", "deadline_exceeded")

    def test_deadline_clamped_to_max(self, server_factory):
        server, client = server_factory(default_deadline=0.5, max_deadline=0.5)
        status, payload = client.classify([[0.0, 0.0]], deadline_ms=3_600_000)
        assert status == 200
        # The hour-long request was clamped to max_deadline, so its budget
        # cannot exceed what 0.5s buys at the calibrated rate.
        assert payload["budget"] <= server.manager.budget_for(0.5)

    def test_nan_row_flagged_uncertain(self, server_factory):
        __, client = server_factory()
        status, payload = client.classify(
            [[0.0, 0.0], [float("nan"), 1.0]], deadline_ms=10_000
        )
        assert status == 200
        assert payload["uncertain"][1] is True
        assert payload["labels"][1] == 2  # Label.UNCERTAIN

    def test_bad_requests_are_400(self, server_factory):
        __, client = server_factory()
        cases = [
            {"points": "garbage"},
            {"points": [[1.0, "x"]]},
            {"points": [1.0, 2.0]},  # 1-D
            {"points": []},
            {"nothing": True},
            {"points": [[0.0, 0.0]], "deadline_ms": -5},
            {"points": [[0.0, 0.0]], "deadline_ms": "soon"},
        ]
        for body in cases:
            status, payload = client.request("POST", "/classify", body)
            assert status == 400, body
            assert payload["error"] == "bad_request"
        status, payload = client.request("POST", "/classify", None)
        assert status == 400

    def test_wrong_dimensionality_is_400_not_500(self, server_factory):
        __, client = server_factory()
        status, payload = client.classify([[1.0, 2.0, 3.0]], deadline_ms=5_000)
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_too_many_rows_413(self, server_factory):
        __, client = server_factory(max_rows=4)
        points = [[0.0, 0.0]] * 5
        status, payload = client.classify(points, deadline_ms=5_000)
        assert status == 413
        assert payload["error"] == "too_many_rows"
        assert payload["max_rows"] == 4

    def test_oversized_body_413_before_read(self, server_factory):
        __, client = server_factory(max_request_bytes=256)
        points = [[float(i), float(i)] for i in range(200)]
        status, payload = client.classify(points, deadline_ms=5_000)
        assert status == 413
        assert payload["error"] == "request_too_large"


class TestAdmission:
    def test_overload_sheds_with_429(self, server_factory):
        server, client = server_factory(queue_depth=0)
        stall = threading.Event()
        entered = threading.Event()

        def hook(points) -> None:
            entered.set()
            stall.wait(5.0)

        server.manager.classify_hook = hook
        results: list[tuple[int, dict]] = []

        def occupy() -> None:
            results.append(client.classify([[0.0, 0.0]], deadline_ms=10_000))

        occupant = threading.Thread(target=occupy, daemon=True)
        occupant.start()
        assert entered.wait(5.0), "first request never started classifying"
        try:
            # Capacity is 1 (one slot, no queue): this must shed, fast.
            t0 = time.monotonic()
            status, payload = client.classify([[0.0, 0.0]], deadline_ms=10_000)
            shed_latency = time.monotonic() - t0
        finally:
            stall.set()
            occupant.join(timeout=10.0)
        assert status == 429
        assert payload["error"] == "overloaded"
        assert payload["retry_after"] > 0.0
        assert shed_latency < 1.0, "shedding must not wait for the slot"
        assert results and results[0][0] == 200
        server.manager.classify_hook = None
        statz = client.statz()[1]
        assert statz["shed"] == 1
        assert statz["completed"] == 1

    def test_watchdog_converts_wedged_handler_to_503(self, server_factory):
        server, client = server_factory(
            queue_depth=0, watchdog_grace=0.3
        )
        release = threading.Event()
        server.manager.classify_hook = lambda points: release.wait(30.0)
        try:
            t0 = time.monotonic()
            status, payload = client.classify([[0.0, 0.0]], deadline_ms=400)
            elapsed = time.monotonic() - t0
        finally:
            release.set()
            server.manager.classify_hook = None
        assert status == 503
        assert payload["error"] == "watchdog_timeout"
        assert elapsed < 5.0
        statz = client.statz()[1]
        assert statz["timed_out"] == 1
        # The abandoned worker released its admission state.
        assert statz["admitted"] == 0

    def test_handler_crash_is_500_and_counted(self, server_factory):
        server, client = server_factory()

        def boom(points) -> None:
            raise RuntimeError("injected handler crash")

        server.manager.classify_hook = boom
        try:
            status, payload = client.classify([[0.0, 0.0]], deadline_ms=5_000)
        finally:
            server.manager.classify_hook = None
        assert status == 500
        assert payload["error"] == "internal"
        assert "injected handler crash" in payload["detail"]
        assert client.statz()[1]["errors"] == 1

    def test_accounting_invariant_across_mixed_outcomes(self, server_factory):
        server, client = server_factory(max_rows=4)
        client.classify([[0.0, 0.0]], deadline_ms=5_000)        # completed
        client.classify([[0.0, 0.0]] * 5, deadline_ms=5_000)    # rejected (rows)
        client.request("POST", "/classify", {"points": "x"})     # rejected (parse)
        statz = client.statz()[1]
        assert statz["submitted"] == 3
        assert terminal_total(statz) == statz["submitted"]
        assert statz["in_flight"] == 0


class TestStandingWorker:
    def test_replacement_worker_serves_while_wedged_one_stalls(
        self, server_factory
    ):
        server, client = server_factory(queue_depth=0, watchdog_grace=0.3)
        release = threading.Event()
        stalled = threading.Event()

        def hook(points) -> None:
            if points[0, 0] == 99.0:
                stalled.set()
                release.wait(30.0)

        server.manager.classify_hook = hook
        try:
            status, payload = client.classify([[99.0, 0.0]], deadline_ms=200)
            assert status == 503
            assert payload["error"] == "watchdog_timeout"
            assert stalled.is_set()
            status, payload = client.classify([[-2.0, 0.0]], deadline_ms=5_000)
            # The abandoned worker is still inside its classify.
            assert not release.is_set()
        finally:
            release.set()
            server.manager.classify_hook = None
        assert status == 200
        assert payload["labels"] == [1]

    def test_thread_count_flat_across_classifies(self, server_factory):
        __, client = server_factory()
        assert client.classify([[0.0, 0.0]], deadline_ms=5_000)[0] == 200
        before = threading.active_count()
        for __ in range(100):
            assert client.classify([[0.0, 0.0]], deadline_ms=5_000)[0] == 200
        assert threading.active_count() <= before


class TestDrain:
    def test_drain_refuses_then_shuts_down(self, server_factory):
        server, client = server_factory(drain_timeout=2.0)
        assert client.classify([[0.0, 0.0]], deadline_ms=5_000)[0] == 200
        status, payload = client.drain()
        assert status == 202
        assert payload["status"] == "draining"
        # A classify that races the listener teardown is either refused
        # with a structured 503 or fails at the socket — never answered.
        try:
            status, payload = client.classify([[0.0, 0.0]], deadline_ms=5_000)
        except OSError:
            pass  # listener already gone
        else:
            assert status == 503
            assert payload["error"] == "draining"
            assert server.stats.snapshot()["drained"] >= 1
        # serve_forever must exit on its own (shutdown() from the drain
        # thread); the fixture's later shutdown() is then a no-op.
        assert server._BaseServer__is_shut_down.wait(10.0), (
            "server did not shut down after drain"
        )

    def test_drain_waits_for_in_flight_request(self, server_factory):
        server, client = server_factory(drain_timeout=5.0)
        stall = threading.Event()
        entered = threading.Event()

        def hook(points) -> None:
            entered.set()
            stall.wait(3.0)

        server.manager.classify_hook = hook
        results: list[tuple[int, dict]] = []
        worker = threading.Thread(
            target=lambda: results.append(
                client.classify([[0.0, 0.0]], deadline_ms=10_000)
            ),
            daemon=True,
        )
        worker.start()
        assert entered.wait(5.0)
        server.initiate_drain()
        time.sleep(0.1)
        stall.set()
        worker.join(timeout=10.0)
        server.manager.classify_hook = None
        # The in-flight request completed despite the drain.
        assert results and results[0][0] == 200
