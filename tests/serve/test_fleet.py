"""Multi-process fleet tests: router, workers, supervision, reload.

These spawn real worker subprocesses (``repro serve-worker``) over a
real shared-memory plane — the same moving parts production uses, sized
down. The soak-style behaviours (worker killed under load, corrupt
reload under fire) assert the fleet's two contracts: no request is ever
dropped, and the accounting invariant holds at quiescence.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.io.models import load_model
from repro.serve import ServeClient, ServeConfig
from repro.serve.reload import prepare_classifier
from repro.serve.router import FleetServer, WorkerFleet
from repro.serve.stats import TERMINAL_OUTCOMES

#: Fast fleet settings: tiny heartbeats and calibration workloads.
FLEET_DEFAULTS = dict(
    port=0,
    workers=2,
    queue_depth=3,
    default_deadline=2.0,
    max_deadline=30.0,
    watchdog_grace=1.0,
    min_budget=32,
    open_budget=16,
    breaker_window=8,
    breaker_min_requests=4,
    breaker_threshold=0.75,
    breaker_cooldown=0.25,
    breaker_probes=2,
    drain_timeout=5.0,
    calibration_queries=32,
    canary_queries=8,
    heartbeat_interval=0.2,
    heartbeat_misses=2,
    worker_startup_timeout=60.0,
)


def _assert_accounting_balanced(snapshot: dict) -> None:
    terminal = sum(snapshot[name] for name in TERMINAL_OUTCOMES)
    assert snapshot["submitted"] == terminal, (
        f"fleet lost requests: submitted={snapshot['submitted']} "
        f"terminal={terminal}"
    )


def _wait_quiescent(client: ServeClient, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        __, snapshot = client.statz()
        if snapshot["in_flight"] == 0:
            return snapshot
        time.sleep(0.05)
    raise AssertionError("fleet never went quiescent")


def _wait_workers_healthy(
    client: ServeClient, expected: int, timeout: float = 15.0
) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        __, snapshot = client.statz()
        if snapshot["fleet"]["workers_healthy"] == expected:
            return snapshot
        time.sleep(0.1)
    raise AssertionError(f"fleet never returned to {expected} healthy workers")


@pytest.fixture
def fleet_factory(model_path):
    """Start fleets on ephemeral ports; everything stops at teardown."""
    started: list[
        tuple[WorkerFleet, FleetServer, threading.Thread, ServeClient]
    ] = []

    def factory(**overrides) -> tuple[WorkerFleet, ServeClient]:
        settings = dict(FLEET_DEFAULTS)
        settings.update(overrides)
        fleet = WorkerFleet(model_path, ServeConfig(**settings))
        try:
            server = FleetServer(fleet)
        except BaseException:
            fleet.stop()
            raise
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServeClient("127.0.0.1", server.port, timeout=30.0)
        started.append((fleet, server, thread, client))
        assert client.wait_ready(30.0), "fleet never became ready"
        return fleet, client

    yield factory
    for fleet, server, thread, client in started:
        client.close()
        server.shutdown()
        server.server_close()
        fleet.stop()
        thread.join(timeout=5.0)


class _Driver:
    """Background request load whose every outcome is captured.

    ``drops`` counts network-level failures — the thing the failover
    guarantee says must be zero even while a worker is being killed.
    """

    def __init__(self, client: ServeClient, threads: int = 3) -> None:
        self._client = client
        self._stop = threading.Event()
        self.statuses: list[int] = []
        self.drops: list[str] = []
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._run, daemon=True)
            for __ in range(threads)
        ]

    def _run(self) -> None:
        client = ServeClient(self._client.host, self._client.port, timeout=30.0)
        try:
            while not self._stop.is_set():
                try:
                    status, __ = client.classify([[-2.0, 0.0]], deadline_ms=5000)
                except OSError as exc:
                    with self._lock:
                        self.drops.append(repr(exc))
                    continue
                with self._lock:
                    self.statuses.append(status)
        finally:
            client.close()

    def __enter__(self) -> "_Driver":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)


class TestFleetServing:
    def test_labels_match_single_process_classify(self, fleet_factory, model_path):
        __, client = fleet_factory()
        classifier = prepare_classifier(load_model(model_path))
        queries = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 9.0], [-1.6, 0.3]])
        expected = [
            int(label)
            for label in classifier.classify_detailed(queries).resolved_labels()
        ]
        status, body = client.classify(queries, deadline_ms=10_000)
        assert status == 200
        assert body["labels"] == expected
        assert body["degraded_any"] is False
        assert "worker" in body

    def test_statz_exposes_fleet_state(self, fleet_factory):
        fleet, client = fleet_factory()
        client.classify([[0.0, 0.0]], deadline_ms=5000)
        snapshot = _wait_quiescent(client)
        _assert_accounting_balanced(snapshot)
        assert snapshot["fleet"]["workers"] == 2
        assert snapshot["fleet"]["workers_healthy"] == 2
        assert snapshot["fleet"]["generation"] == fleet.generation
        assert len(snapshot["workers"]) == 2
        for worker in snapshot["workers"]:
            assert worker["healthy"]
            assert worker["stats"]["submitted"] >= 0
        totals = snapshot["fleet"]["worker_totals"]
        # Router completions == worker completions at quiescence.
        assert totals["completed"] == snapshot["completed"]

    def test_metrics_exposes_fleet_families(self, fleet_factory):
        __, client = fleet_factory()
        client.classify([[0.0, 0.0]], deadline_ms=5000)
        status, text = client.metrics()
        assert status == 200
        assert 'tkdc_serve_events_total{event="completed"}' in text
        assert 'tkdc_fleet_worker_up{worker="0"} 1' in text
        assert "tkdc_fleet_worker_restarts_total" in text
        assert 'tkdc_fleet_worker_events_total{worker="1",event="completed"}' in text

    def test_bad_request_forwarded_and_accounted(self, fleet_factory):
        __, client = fleet_factory()
        status, body = client.request("POST", "/classify", {"points": "junk"})
        assert status == 400
        assert body["error"] == "bad_request"
        snapshot = _wait_quiescent(client)
        assert snapshot["rejected"] == 1
        _assert_accounting_balanced(snapshot)


class TestWorkerKill:
    def test_kill_under_load_respawns_with_zero_drops(self, fleet_factory):
        __, client = fleet_factory()
        with _Driver(client) as driver:
            time.sleep(0.6)
            __, snapshot = client.statz()
            victim = snapshot["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            time.sleep(2.5)
        assert driver.drops == [], "requests were dropped during the kill"
        bad = [s for s in driver.statuses if s not in (200, 429, 503)]
        assert bad == [], f"unexpected statuses: {bad}"
        assert driver.statuses.count(200) > 0
        snapshot = _wait_workers_healthy(client, 2)
        snapshot = _wait_quiescent(client)
        _assert_accounting_balanced(snapshot)
        pids = [worker["pid"] for worker in snapshot["workers"]]
        assert victim not in pids, "killed worker was not replaced"
        assert sum(w["restarts"] for w in snapshot["workers"]) >= 1

    def test_probe_classify_succeeds_after_respawn(self, fleet_factory):
        __, client = fleet_factory()
        __, snapshot = client.statz()
        os.kill(snapshot["workers"][1]["pid"], signal.SIGKILL)
        _wait_workers_healthy(client, 2)
        status, body = client.classify([[-2.0, 0.0]], deadline_ms=5000)
        assert status == 200
        assert body["labels"] == [1]


class TestFleetReload:
    def test_corrupt_model_under_fire_rolls_back_fleetwide(
        self, fleet_factory, model_path, tmp_path
    ):
        fleet, client = fleet_factory()
        generation = fleet.generation
        blob = bytearray(model_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # bit-flip mid-payload; sha footer stays
        corrupt = tmp_path / "corrupt.tkdc"
        corrupt.write_bytes(bytes(blob))
        with _Driver(client) as driver:
            time.sleep(0.3)
            status, body = client.reload(str(corrupt))
            time.sleep(0.3)
        assert status == 500
        assert body["ok"] is False
        assert body["stage"] == "load"
        assert "ModelIntegrityError" in body["error"]
        assert driver.drops == []
        # Nobody swapped: same generation, still serving correct labels.
        assert fleet.generation == generation
        status, body = client.classify([[-2.0, 0.0], [0.0, 9.0]], deadline_ms=5000)
        assert status == 200
        assert body["labels"] == [1, 0]
        snapshot = _wait_quiescent(client)
        assert snapshot["reloads_failed"] == 1
        _assert_accounting_balanced(snapshot)

    def test_good_reload_swaps_generation_and_unlinks_old(
        self, fleet_factory, model_path
    ):
        fleet, client = fleet_factory()
        old_generation = fleet.generation
        status, body = client.reload(str(model_path))
        assert status == 200, body
        assert body["ok"] is True and body["stage"] == "swapped"
        assert fleet.generation != old_generation
        if os.path.isdir("/dev/shm"):
            leftovers = [
                name for name in os.listdir("/dev/shm")
                if name.startswith(old_generation)
            ]
            assert leftovers == [], "old generation segments leaked"
        status, body = client.classify([[-2.0, 0.0], [0.0, 9.0]], deadline_ms=5000)
        assert status == 200
        assert body["labels"] == [1, 0]
        snapshot = _wait_quiescent(client)
        assert snapshot["reloads_ok"] == 1
        assert snapshot["fleet"]["generation"] != old_generation


class TestFleetDrain:
    def test_drain_refuses_new_work_and_accounts_it(self, fleet_factory):
        fleet, client = fleet_factory()
        client.classify([[0.0, 0.0]], deadline_ms=5000)
        status, body = client.drain()
        assert status == 202
        # A classify racing the listener teardown is either refused with
        # a structured 503 or fails at the socket — never answered.
        probe = ServeClient(client.host, client.port, timeout=2.0)
        try:
            status, body = probe.classify([[0.0, 0.0]], deadline_ms=5000)
        except OSError:
            pass  # listener already gone
        else:
            assert status == 503
            assert body["error"] == "draining"
            assert fleet.stats.snapshot()["drained"] >= 1
        finally:
            probe.close()
        _assert_accounting_balanced(fleet.stats.snapshot())

    def test_stop_unlinks_all_segments(self, fleet_factory):
        fleet, client = fleet_factory()
        generation = fleet.generation
        fleet.initiate_drain()
        time.sleep(0.3)
        fleet.stop()
        if os.path.isdir("/dev/shm"):
            leftovers = [
                name for name in os.listdir("/dev/shm")
                if name.startswith(generation)
            ]
            assert leftovers == []
        assert not fleet.runtime_dir.exists()
