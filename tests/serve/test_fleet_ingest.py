"""Fleet-wide /ingest: owner election, durable fan-in, SIGKILL takeover.

The router owns no pipeline itself — it elects one worker as the
ingest owner over a shared WAL directory and forwards every batch
there with an idempotency key. These tests drive the real thing:
worker subprocesses, a real WAL on disk, and a real ``kill -9`` of the
elected owner under an ingest stream.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serve import ServeClient, ServeConfig
from repro.serve.router import FleetServer, WorkerFleet
from repro.streaming import StreamSettings

from .test_fleet import FLEET_DEFAULTS

#: No background drift thread in the owner: endpoint behaviour only.
STREAM_SETTINGS = StreamSettings(
    monitor_window=32, monitor_window_min=8, check_interval=0.05,
    min_refit_interval=0.0, refit_sample_cap=2000, sketch_capacity=256,
    canary_queries=8, fsync_policy="always",
)

ROWS = 8


def _batch(seed: int) -> list[list[float]]:
    return (np.random.default_rng(seed).normal(size=(ROWS, 2)) * 0.5).tolist()


def _ingest_invariant(snapshot: dict) -> tuple[int, int]:
    return (
        snapshot["ingest_submitted"],
        snapshot["ingest_completed"] + snapshot["ingest_rejected"],
    )


@pytest.fixture
def streaming_fleet_factory(model_path, tmp_path):
    """Start streaming fleets; everything (and the WAL lock) torn down."""
    started: list[
        tuple[WorkerFleet, FleetServer, threading.Thread, ServeClient]
    ] = []

    def factory(wal_dir=None, streaming=True, **overrides):
        settings = dict(FLEET_DEFAULTS)
        settings.update(overrides)
        fleet = WorkerFleet(
            model_path, ServeConfig(**settings),
            streaming=streaming,
            stream_settings=STREAM_SETTINGS if streaming else None,
            wal_dir=wal_dir if wal_dir is not None else tmp_path / "wal",
        )
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
        client = ServeClient("127.0.0.1", server.port, timeout=90.0)
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


class TestFleetIngest:
    def test_round_trip_is_durable_and_accounted(self, streaming_fleet_factory):
        fleet, client = streaming_fleet_factory()
        first_total = None
        for i in range(4):
            status, body = client.ingest(_batch(i))
            assert status == 200, body
            assert body["ingested"] == ROWS
            assert body["durable"] is True
            assert body["duplicate"] is False
            assert "worker" in body
            if first_total is None:
                first_total = body["n_total"]
            else:
                assert body["n_total"] == first_total + ROWS * i
        __, snapshot = client.statz()
        submitted, terminal = _ingest_invariant(snapshot)
        assert submitted == terminal == 4
        assert snapshot["ingested_points"] == 4 * ROWS
        info = snapshot["fleet"]
        assert info["streaming"] is True
        assert info["ingest_owner"] is not None
        assert info["ingest_seq"] == 4
        # The WAL lives where we said, and the owner holds its lock.
        assert (fleet.wal_dir / "wal.lock").exists()

    def test_owner_worker_reports_durable_pipeline(
        self, streaming_fleet_factory
    ):
        fleet, client = streaming_fleet_factory()
        status, __ = client.ingest(_batch(0))
        assert status == 200
        __, snapshot = client.statz()
        owner = snapshot["fleet"]["ingest_owner"]
        worker = next(
            w for w in snapshot["workers"] if w["index"] == owner
        )
        streaming = worker["stats"]["streaming"]
        assert streaming["wal"]["fsync_policy"] == "always"
        assert streaming["accounting"]["ok"]

    def test_not_streaming_rejects(self, streaming_fleet_factory):
        __, client = streaming_fleet_factory(streaming=False)
        status, body = client.ingest(_batch(0))
        assert status == 409
        assert body["error"] == "no_streaming_pipeline"
        __, snapshot = client.statz()
        submitted, terminal = _ingest_invariant(snapshot)
        assert submitted == terminal == 1

    def test_router_refuses_adoption(self, streaming_fleet_factory):
        __, client = streaming_fleet_factory()
        status, body = client.request(
            "POST", "/admin/adopt-ingest", {"wal_dir": "/nope"}
        )
        assert status == 409
        assert body["error"] == "router_not_adoptable"

    def test_owner_sigkill_takeover_loses_nothing(
        self, streaming_fleet_factory
    ):
        """kill -9 the elected owner mid-stream: the next batch elects a
        successor that replays the WAL, and every acknowledged point is
        still in the served total."""
        fleet, client = streaming_fleet_factory()
        acked = 0
        base_total = None
        for i in range(5):
            status, body = client.ingest(_batch(i))
            assert status == 200, body
            acked += body["ingested"]
            if base_total is None:
                base_total = body["n_total"] - body["ingested"]

        with fleet._ingest_lock:
            owner = fleet._ingest_owner
        assert owner is not None
        os.kill(owner.pid, signal.SIGKILL)
        # No waiting for the heartbeat: the very next ingest must elect
        # a successor (the dead owner's flock died with it) and answer.
        status, body = client.ingest(_batch(99))
        assert status == 200, body
        acked += body["ingested"]
        assert body["n_total"] == base_total + acked, (
            "acknowledged points were lost across the owner takeover"
        )
        __, snapshot = client.statz()
        new_owner = snapshot["fleet"]["ingest_owner"]
        assert new_owner is not None
        assert new_owner != owner.index or (
            # Same index is only legal if the slot was respawned.
            snapshot["workers"][owner.index]["pid"] != owner.pid
        )
        submitted, terminal = _ingest_invariant(snapshot)
        assert submitted == terminal == 6
        assert snapshot["ingest_completed"] == 6

    def test_owner_survives_fleet_restart(
        self, streaming_fleet_factory, tmp_path
    ):
        """A whole-fleet bounce recovers the WAL: totals carry over."""
        wal_dir = tmp_path / "persistent-wal"
        fleet, client = streaming_fleet_factory(wal_dir=wal_dir)
        total = None
        for i in range(3):
            status, body = client.ingest(_batch(i))
            assert status == 200, body
            total = body["n_total"]
        # Graceful stop releases the flock; the WAL itself persists.
        fleet.stop()

        __, client2 = streaming_fleet_factory(wal_dir=wal_dir)
        status, body = client2.ingest(_batch(50))
        assert status == 200, body
        assert body["n_total"] == total + ROWS
