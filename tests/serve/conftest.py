"""Shared fixtures for the serving-daemon suite.

One model is fitted and saved once per package (fitting is the slow
part); each test that needs a live server starts one on an ephemeral
port through ``server_factory``, with fast test-sized windows and
deadlines, and the factory guarantees shutdown at teardown — a leaked
listener would poison later tests.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro import TKDCClassifier, TKDCConfig
from repro.io.models import save_model
from repro.serve import ModelManager, ServeClient, ServeConfig, TKDCServer


@pytest.fixture(scope="package")
def train_data() -> np.ndarray:
    rng = np.random.default_rng(42)
    a = rng.normal(size=(700, 2)) * 0.5 + np.array([-2.0, 0.0])
    b = rng.normal(size=(700, 2)) * 0.5 + np.array([2.0, 0.0])
    return np.concatenate([a, b])


@pytest.fixture(scope="package")
def fitted(train_data: np.ndarray) -> TKDCClassifier:
    return TKDCClassifier(TKDCConfig(p=0.05, seed=9)).fit(train_data)


@pytest.fixture(scope="package")
def model_path(fitted: TKDCClassifier, tmp_path_factory) -> Path:
    return save_model(tmp_path_factory.mktemp("models") / "served", fitted)


#: Fast test defaults: tiny calibration/canary workloads, short breaker
#: windows, sub-second cooldowns. Individual tests override per-knob.
TEST_DEFAULTS = dict(
    port=0,
    queue_depth=3,
    default_deadline=2.0,
    max_deadline=30.0,
    watchdog_grace=1.0,
    min_budget=32,
    open_budget=16,
    breaker_window=8,
    breaker_min_requests=4,
    breaker_threshold=0.5,
    breaker_cooldown=0.25,
    breaker_probes=2,
    drain_timeout=5.0,
    calibration_queries=32,
    canary_queries=8,
)


@pytest.fixture
def server_factory(model_path: Path):
    """Start configured daemon instances; everything stops at teardown."""
    started: list[tuple[TKDCServer, threading.Thread, ServeClient]] = []

    def factory(**overrides) -> tuple[TKDCServer, ServeClient]:
        settings = dict(TEST_DEFAULTS)
        settings.update(overrides)
        manager = ModelManager(model_path, ServeConfig(**settings))
        server = TKDCServer(manager)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServeClient("127.0.0.1", server.port, timeout=30.0)
        started.append((server, thread, client))
        assert client.wait_ready(10.0), "server never became ready"
        return server, client

    yield factory
    for server, thread, client in started:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
