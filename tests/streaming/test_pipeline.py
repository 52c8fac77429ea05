"""Unit tests for the streaming pipeline's wiring and accounting."""

import json
import logging

import numpy as np
import pytest

from repro import Label, TKDCClassifier, TKDCConfig
from repro.serve.reload import prepare_classifier
from repro.streaming import LocalReloader, StreamingPipeline, StreamSettings

from .conftest import FAST_CONFIG, FAST_SETTINGS


class TestSettings:
    @pytest.mark.parametrize("bad", [
        dict(drift_delta=0.0), dict(drift_delta=1.0),
        dict(monitor_window=4), dict(hysteresis=0),
        dict(check_interval=0.0), dict(min_refit_interval=-1.0),
        dict(refit_deadline=0.0), dict(refit_retries=-1),
        dict(refit_backoff=-0.1), dict(refit_sample_cap=1),
        dict(sketch_capacity=1), dict(canary_queries=0),
        dict(swap_grace=0.0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            StreamSettings(**{**FAST_SETTINGS, **bad})

    def test_staleness_bound_formula(self):
        settings = StreamSettings(
            hysteresis=2, check_interval=0.5, refit_deadline=10.0,
            refit_retries=2, refit_backoff=0.1, swap_grace=1.0,
        )
        # detection 3*0.5 + refit 3*10 + backoffs (0.1 + 0.2) + swap 1.0
        assert settings.staleness_bound == pytest.approx(32.8)


class TestIngestAndServe:
    def test_ingest_updates_every_ledger(self, pipeline_factory):
        pipeline = pipeline_factory()
        rng = np.random.default_rng(1)
        assert pipeline.ingest(rng.normal(size=(40, 2)) * 0.5) == 40
        assert pipeline.ingest(np.empty((0, 2))) == 0
        assert pipeline.ingested_total == 40
        assert pipeline.model.n_total == pipeline.initial_n + 40
        assert pipeline.model.n_buffered == 40
        accounting = pipeline.verify_accounting()
        assert accounting["ok"], accounting
        assert accounting["sketch_ingested"] == 40

    def test_ingest_rejects_wrong_dimension(self, pipeline_factory):
        pipeline = pipeline_factory()
        with pytest.raises(ValueError, match="dimensionality"):
            pipeline.ingest(np.zeros((3, 5)))
        assert pipeline.ingested_total == 0

    def test_ingest_rejects_non_finite_before_the_wal(self, pipeline_factory, tmp_path):
        pipeline = pipeline_factory(wal_dir=tmp_path / "wal")
        appends = pipeline.wal.appends
        points = np.zeros((4, 2))
        points[2, 1] = np.nan
        with pytest.raises(ValueError, match="ingest row 2 is not finite"):
            pipeline.ingest_batch(points, source="s", source_seq=1)
        assert pipeline.wal.appends == appends
        assert pipeline.ingested_total == 0 and pipeline.model.n_buffered == 0
        # The refused key was not consumed: a clean retry applies.
        assert pipeline.ingest_batch(np.zeros((4, 2)), source="s", source_seq=1)["accepted"] == 4
        assert pipeline.verify_accounting()["ok"]

    def test_ingested_points_affect_answers(self, pipeline_factory):
        pipeline = pipeline_factory()
        spot = np.array([[6.0, 6.0]])
        assert pipeline.classify(spot)[0] is Label.LOW
        rng = np.random.default_rng(2)
        pipeline.ingest(spot + rng.normal(scale=0.05, size=(300, 2)))
        assert pipeline.classify(spot)[0] is Label.HIGH
        assert pipeline.predict(spot)[0] == 1

    def test_serving_view_is_consistent_snapshot(self, pipeline_factory):
        """The daemon classifies through a lock-free snapshot: later
        ingests must not leak into a captured view, and the buffer rows
        must be a copy (an in-place adopt slide cannot corrupt them)."""
        pipeline = pipeline_factory()
        rng = np.random.default_rng(4)
        pipeline.ingest(rng.normal(size=(10, 2)) * 0.5)
        view = pipeline.serving_view()
        assert view.n_buffered == 10
        assert view._buffer_array is not pipeline.model._buffer_array
        pipeline.ingest(rng.normal(size=(25, 2)) * 0.5)
        assert view.n_buffered == 10
        assert pipeline.model.n_buffered == 35
        labels = view.classify(rng.normal(size=(5, 2)) * 0.5)
        assert labels.dtype == object

    def test_serving_view_survives_ingest_and_adopt(self, pipeline_factory):
        """A view shares the scaled buffer instead of copying rows: later
        appends and an adopt that slides the raw buffer must leave its
        answers unchanged."""
        pipeline = pipeline_factory()
        rng = np.random.default_rng(5)
        pipeline.ingest(rng.normal(size=(40, 2)) * 0.5)
        queries = rng.normal(size=(16, 2)) * 0.5
        view = pipeline.serving_view()
        before = view.classify_detailed(queries)
        pipeline.ingest(rng.normal(size=(30, 2)) * 0.5 + 1.0)
        model = pipeline.model
        model.adopt(model.classifier, model.n_indexed, keep_last=30)
        pipeline.ingest(rng.normal(size=(50, 2)) * 0.5 - 1.0)
        after = view.classify_detailed(queries)
        assert view.n_buffered == 40
        np.testing.assert_array_equal(before.lower, after.lower)
        np.testing.assert_array_equal(before.upper, after.upper)
        np.testing.assert_array_equal(before.labels, after.labels)

    def test_auto_refit_is_disabled(self, pipeline_factory):
        pipeline = pipeline_factory()
        assert pipeline.model.auto_refit is False
        rng = np.random.default_rng(3)
        pipeline.ingest(rng.normal(size=(500, 2)) * 0.5)  # > refit_fraction
        assert pipeline.model.refits == 0


class TestDriftChecks:
    def test_window_filling_before_enough_points(self, pipeline_factory):
        pipeline = pipeline_factory()
        decision = pipeline.check_drift_once()
        assert not decision.checked
        assert decision.reason == "window_filling"

    def test_stable_on_iid_stream(self, pipeline_factory, base_data):
        pipeline = pipeline_factory()
        rng = np.random.default_rng(4)
        pipeline.ingest(rng.normal(size=(64, 2)) * 0.5)
        decision = pipeline.check_drift_once()
        assert decision.checked and not decision.drifted
        assert pipeline.refits_triggered == 0
        assert pipeline.staleness_seconds() == 0.0

    def test_drift_fires_and_swaps(self, pipeline_factory):
        pipeline = pipeline_factory()
        rng = np.random.default_rng(5)
        shifted = rng.normal(size=(200, 2)) * 0.5 + np.array([5.0, 5.0])
        pipeline.ingest(shifted)
        fired = False
        for __ in range(4):
            decision = pipeline.check_drift_once()
            assert decision.drifted
            fired = fired or decision.fired
            if fired:
                break
        assert fired
        assert pipeline.swaps == 1
        assert pipeline.model.generation == 1
        # Swap resolved the drift: staleness is back to zero.
        assert pipeline.staleness_seconds() == 0.0
        accounting = pipeline.verify_accounting()
        assert accounting["ok"], accounting

    def test_swap_preserves_population_accounting(self, pipeline_factory):
        pipeline = pipeline_factory()
        rng = np.random.default_rng(6)
        pipeline.ingest(rng.normal(size=(150, 2)) * 0.5)
        pipeline.refit_and_swap()
        assert pipeline.model.n_total == pipeline.initial_n + 150
        pipeline.ingest(rng.normal(size=(25, 2)) * 0.5)
        assert pipeline.model.n_total == pipeline.initial_n + 175
        accounting = pipeline.verify_accounting()
        assert accounting["ok"], accounting


class TestLifecycle:
    def test_background_loop_starts_and_stops(self, pipeline_factory):
        pipeline = pipeline_factory()
        pipeline.start()
        pipeline.start()  # idempotent
        thread = pipeline._thread
        assert thread is not None and thread.is_alive()
        pipeline.stop(join=True)
        assert not thread.is_alive()
        assert pipeline.monitor_errors == 0

    def test_status_is_json_ready(self, pipeline_factory):
        pipeline = pipeline_factory()
        rng = np.random.default_rng(7)
        pipeline.ingest(rng.normal(size=(64, 2)) * 0.5)
        pipeline.check_drift_once()
        status = json.loads(json.dumps(pipeline.status()))
        for key in ("generation", "n_total", "threshold", "ingested_total",
                    "staleness_seconds", "staleness_bound_seconds",
                    "sketch", "accounting", "last_decision"):
            assert key in status
        assert status["accounting"]["ok"]
        assert status["window_fill"] == 64


class TestDriftSides:
    """At p = 0.01, delta = 0.01 the low side needs a window of 528."""

    @pytest.mark.parametrize("window, low", [(256, False), (600, True)])
    def test_status_and_start_warning(self, base_data, tmp_path, caplog, window, low):
        settings = {**FAST_SETTINGS, "drift_delta": 0.01, "monitor_window": window}
        pipeline = StreamingPipeline.from_data(
            base_data, TKDCConfig(**{**FAST_CONFIG, "p": 0.01}),
            settings=StreamSettings(**settings), artifact_dir=tmp_path,
        )
        try:
            assert pipeline.status()["drift_sides"] == {"low": low, "high": True}
            with caplog.at_level(logging.WARNING, logger="repro.streaming"):
                pipeline.start()
            warned = [r for r in caplog.records if "drift_low" in r.getMessage()]
            assert len(warned) == (0 if low else 1)
            decision = pipeline.check_drift_once().as_dict()
            assert (decision["low_testable"], decision["high_testable"]) == (low, True)
        finally:
            pipeline.stop(join=True)


class TestFromClassifier:
    def test_wraps_a_loaded_model(self, stream_config, base_data, tmp_path):
        classifier = TKDCClassifier(stream_config).fit(base_data)
        classifier = prepare_classifier(classifier)
        pipeline = StreamingPipeline.from_classifier(
            classifier,
            settings=StreamSettings(**FAST_SETTINGS),
            artifact_dir=tmp_path,
        )
        assert pipeline.initial_n == base_data.shape[0]
        assert pipeline.sketch.n_seen == 0  # raw data unavailable
        rng = np.random.default_rng(8)
        pipeline.ingest(rng.normal(size=(30, 2)) * 0.5)
        assert pipeline.model.n_total == base_data.shape[0] + 30
        assert pipeline.classify(np.array([[0.0, 0.0]]))[0] is Label.HIGH
        accounting = pipeline.verify_accounting()
        assert accounting["ok"], accounting


class TestLocalReloader:
    def test_missing_artifact_fails_at_load(self, tmp_path):
        result = LocalReloader().reload(tmp_path / "nope.tkdc")
        assert not result.ok and result.stage == "load"
        assert LocalReloader().classifier is None

    def test_good_artifact_swaps(self, stream_config, base_data, tmp_path):
        from repro.io.models import save_model

        classifier = TKDCClassifier(stream_config).fit(base_data)
        path = save_model(tmp_path / "model", classifier)
        reloader = LocalReloader(canary_queries=8)
        result = reloader.reload(path)
        assert result.ok and result.stage == "swapped"
        assert reloader.classifier is not None
        assert result.threshold == pytest.approx(classifier.threshold.value)


class TestAdaptiveWindow:
    def _pipeline(self, pipeline_factory, adaptive=True):
        fake = [100.0]
        pipeline = pipeline_factory(
            settings_overrides={
                "adaptive_window": adaptive, "monitor_window_min": 8,
            },
            clock=lambda: fake[0],
        )
        return pipeline, fake

    def test_window_tracks_ingest_cadence(self, pipeline_factory):
        pipeline, fake = self._pipeline(pipeline_factory)
        rng = np.random.default_rng(31)
        # No cadence yet: the full configured window applies.
        pipeline.check_drift_once()
        assert pipeline.status()["monitor_window_effective"] == 64
        # A slow trickle (10 points/gap) shrinks the effective window to
        # the fresh points actually arriving, so the next check does not
        # re-test 54 stale rows.
        pipeline.ingest(rng.normal(size=(10, 2)) * 0.5)
        fake[0] += 1.0
        decision = pipeline.check_drift_once()
        status = pipeline.status()
        assert status["monitor_window_effective"] == 10
        assert status["check_gap_ewma_seconds"] == pytest.approx(1.0)
        assert decision.checked and decision.window == 10
        # A burst pulls the EWMA (and the window) back up, clamped at
        # the configured maximum.
        pipeline.ingest(rng.normal(size=(500, 2)) * 0.5)
        fake[0] += 1.0
        pipeline.check_drift_once()
        assert pipeline.status()["monitor_window_effective"] == 64

    def test_floor_clamps_tiny_cadence(self, pipeline_factory):
        pipeline, fake = self._pipeline(pipeline_factory)
        rng = np.random.default_rng(32)
        pipeline.check_drift_once()
        pipeline.ingest(rng.normal(size=(2, 2)) * 0.5)
        fake[0] += 1.0
        pipeline.check_drift_once()
        assert pipeline.status()["monitor_window_effective"] == 8

    def test_fixed_window_by_default(self, pipeline_factory):
        pipeline, fake = self._pipeline(pipeline_factory, adaptive=False)
        rng = np.random.default_rng(33)
        pipeline.check_drift_once()
        pipeline.ingest(rng.normal(size=(10, 2)) * 0.5)
        fake[0] += 1.0
        pipeline.check_drift_once()
        assert pipeline.status()["monitor_window_effective"] == 64

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            StreamSettings(**{**FAST_SETTINGS, "monitor_window_min": 4})
        with pytest.raises(ValueError):
            StreamSettings(**{**FAST_SETTINGS, "monitor_window_min": 128})
        with pytest.raises(ValueError):
            StreamSettings(**{**FAST_SETTINGS, "fsync_policy": "maybe"})
        with pytest.raises(ValueError):
            StreamSettings(**{**FAST_SETTINGS, "wal_compact_bytes": 1024,
                              "wal_segment_bytes": 4096})
