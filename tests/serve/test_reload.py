"""Verified hot reload: swap on success, rollback on every failure mode."""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import TKDCClassifier, TKDCConfig
from repro.io.models import save_model
from repro.serve import ModelManager, ServeConfig
from repro.serve.daemon import install_signal_handlers
from repro.serve.reload import CanaryError

from .conftest import TEST_DEFAULTS


def make_manager(model_path, **overrides) -> ModelManager:
    settings = dict(TEST_DEFAULTS)
    settings.update(overrides)
    return ModelManager(model_path, ServeConfig(**settings))


@pytest.fixture(scope="module")
def alternate_model_path(tmp_path_factory):
    """A second valid model with a visibly different threshold."""
    rng = np.random.default_rng(7)
    data = rng.normal(size=(400, 2)) * 2.0
    clf = TKDCClassifier(TKDCConfig(p=0.2, seed=3)).fit(data)
    return save_model(tmp_path_factory.mktemp("alt") / "alt.tkdc", clf)


class TestReloadSuccess:
    def test_swap_replaces_model_and_recalibrates(
        self, model_path, alternate_model_path
    ):
        manager = make_manager(model_path)
        old_threshold = manager.classifier.threshold.value
        result = manager.reload(alternate_model_path)
        assert result.ok
        assert result.stage == "swapped"
        assert result.model_path == str(alternate_model_path)
        assert manager.model_path == alternate_model_path
        assert manager.classifier.threshold.value == result.threshold
        assert manager.classifier.threshold.value != old_threshold
        assert result.expansions_per_second is not None
        assert manager.stats.snapshot()["reloads_ok"] == 1

    def test_reload_same_path_refreshes_in_place(self, model_path):
        manager = make_manager(model_path)
        before = manager.classifier
        result = manager.reload()
        assert result.ok
        assert manager.classifier is not before  # a fresh object was swapped in

    def test_http_reload_endpoint(self, server_factory, alternate_model_path):
        server, client = server_factory()
        status, payload = client.reload(str(alternate_model_path))
        assert status == 200
        assert payload["ok"] is True
        assert payload["stage"] == "swapped"
        # Subsequent classifications use the new model.
        status, answer = client.classify([[0.0, 0.0]], deadline_ms=5_000)
        assert status == 200
        assert answer["threshold"] == pytest.approx(payload["threshold"])


class TestReloadRollback:
    def test_corrupt_file_refused_at_load_stage(self, model_path, tmp_path):
        manager = make_manager(model_path)
        before = manager.classifier
        threshold = before.threshold.value
        corrupt = tmp_path / "corrupt.tkdc"
        blob = bytearray(model_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one payload byte
        corrupt.write_bytes(bytes(blob))

        result = manager.reload(corrupt)
        assert not result.ok
        assert result.stage == "load"
        assert "sha256" in result.error
        # Rollback == the swap never happened.
        assert manager.classifier is before
        assert manager.model_path == model_path
        assert manager.classifier.threshold.value == threshold
        assert manager.stats.snapshot()["reloads_failed"] == 1

    def test_truncated_file_refused(self, model_path, tmp_path):
        manager = make_manager(model_path)
        truncated = tmp_path / "truncated.tkdc"
        truncated.write_bytes(model_path.read_bytes()[: 100])
        result = manager.reload(truncated)
        assert not result.ok
        assert result.stage == "load"

    def test_missing_file_refused(self, model_path, tmp_path):
        manager = make_manager(model_path)
        result = manager.reload(tmp_path / "nope.tkdc")
        assert not result.ok
        assert result.stage == "load"
        assert "no model file" in result.error

    def test_canary_failure_rolls_back(self, model_path, monkeypatch):
        manager = make_manager(model_path)
        before = manager.classifier

        def failing_canary(candidate) -> None:
            raise CanaryError("injected canary failure")

        monkeypatch.setattr(manager, "_canary", failing_canary)
        result = manager.reload()
        assert not result.ok
        assert result.stage == "canary"
        assert "injected canary failure" in result.error
        assert manager.classifier is before
        assert manager.stats.snapshot()["reloads_failed"] == 1

    def test_http_reload_of_corrupt_file_is_500_and_keeps_serving(
        self, server_factory, model_path, tmp_path
    ):
        server, client = server_factory()
        threshold = client.statz()[1]["threshold"]
        corrupt = tmp_path / "corrupt.tkdc"
        blob = bytearray(model_path.read_bytes())
        blob[50] ^= 0x01
        corrupt.write_bytes(bytes(blob))

        status, payload = client.reload(str(corrupt))
        assert status == 500
        assert payload["ok"] is False
        assert payload["stage"] == "load"
        # The old model still answers, unchanged.
        status, answer = client.classify([[0.0, 0.0]], deadline_ms=5_000)
        assert status == 200
        assert answer["threshold"] == pytest.approx(threshold)
        statz = client.statz()[1]
        assert statz["reloads_failed"] == 1
        assert statz["reloads_ok"] == 0


class TestSignals:
    def test_install_returns_false_off_main_thread(self, server_factory):
        server, __ = server_factory()
        outcome: list[bool] = []
        thread = threading.Thread(
            target=lambda: outcome.append(install_signal_handlers(server))
        )
        thread.start()
        thread.join(5.0)
        assert outcome == [False]

    @pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="no SIGHUP")
    def test_sighup_triggers_reload(self, server_factory):
        server, client = server_factory()
        saved = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)
        }
        try:
            assert install_signal_handlers(server)
            before = client.statz()[1]["reloads_ok"]
            os.kill(os.getpid(), signal.SIGHUP)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.statz()[1]["reloads_ok"] == before + 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("SIGHUP did not trigger a reload")
        finally:
            for sig, handler in saved.items():
                signal.signal(sig, handler)


class TestServedRequest:
    """A served request passes its budget and counters as arguments."""

    def test_request_leaves_live_classifier_untouched(self, model_path):
        manager = make_manager(model_path)
        live = manager.classifier
        config, stats = live.config, live.stats.snapshot()
        points = np.random.default_rng(5).uniform(-4.0, 4.0, size=(16, 2))
        result, fallbacks = manager.classify(points, budget=3)
        assert live.config is config
        assert live.stats.snapshot() == stats
        assert fallbacks == 0
        # The budget applied: a 3-expansion budget leaves box rows degraded.
        assert result.degraded.any()
        assert manager.traversal_snapshot()["queries"] > 0

    def test_budget_matches_a_configured_budget(self, model_path):
        manager = make_manager(model_path)
        live = manager.classifier
        points = np.random.default_rng(6).uniform(-4.0, 4.0, size=(16, 2))
        served, __ = manager.classify(points, budget=7)
        budgeted = TKDCClassifier.__new__(TKDCClassifier)
        budgeted.__dict__.update(live.__dict__)
        budgeted.config = live.config.with_updates(max_node_expansions=7)
        budgeted._stats = type(live.stats)()
        expected = budgeted.classify_detailed(points)
        np.testing.assert_array_equal(served.lower, expected.lower)
        np.testing.assert_array_equal(served.upper, expected.upper)
        np.testing.assert_array_equal(served.degraded, expected.degraded)
        assert manager.traversal_snapshot() == budgeted.stats.snapshot()

    def test_fallbacks_are_counted_per_request(self, model_path, monkeypatch):
        manager = make_manager(model_path)
        live = manager.classifier
        original = TKDCClassifier.classify_detailed

        def with_fallbacks(self, queries, engine=None, **kwargs):
            result = original(self, queries, engine, **kwargs)
            sink = kwargs["stats"]
            sink.extras["guard_exact_fallbacks"] = (
                sink.extras.get("guard_exact_fallbacks", 0.0) + 2
            )
            return result

        monkeypatch.setattr(TKDCClassifier, "classify_detailed", with_fallbacks)
        points = np.zeros((4, 2))
        for __ in range(3):
            assert manager.classify(points, budget=100)[1] == 2
        assert manager.stats.snapshot()["exact_fallbacks"] == 6
        assert "guard_exact_fallbacks" not in live.stats.extras
