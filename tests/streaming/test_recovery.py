"""Crash-recovery tests: WAL replay rebuilds the exact pipeline state.

Crashes are simulated with ``WriteAheadLog.abandon()`` — the handle and
flock are dropped without the final snapshot, exactly the footprint of
a SIGKILL. The soak test covers the real-subprocess version.
"""

import logging

import numpy as np
import pytest

from repro.io.models import save_model
from repro.streaming import (
    StreamingPipeline,
    StreamSettings,
    WalError,
    WalLockedError,
)
from repro.streaming.wal import RECORD_REFIT_TRIGGER, RECORD_SWAP_COMMIT

from .conftest import FAST_SETTINGS


@pytest.fixture
def wal_dir(tmp_path):
    return tmp_path / "wal"


@pytest.fixture
def recovered_pipelines():
    built = []
    yield built
    for pipeline in built:
        pipeline.stop(join=True)


def _recover(built, *args, **kwargs):
    pipeline = StreamingPipeline.recover(*args, **kwargs)
    built.append(pipeline)
    return pipeline


def _settings(**overrides) -> StreamSettings:
    return StreamSettings(**{**FAST_SETTINGS, **overrides})


class TestRecoverAfterCrash:
    def test_conservation_and_counters_survive(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        rng = np.random.default_rng(11)
        for seq in range(1, 6):
            out = pipeline.ingest_batch(
                rng.normal(size=(20, 2)) * 0.5, source="ep1", source_seq=seq
            )
            assert out == {"accepted": 20, "duplicate": False}
        # A duplicate delivery (router retry) is acknowledged as such.
        assert pipeline.ingest_batch(
            np.zeros((4, 2)), source="ep1", source_seq=3
        ) == {"accepted": 0, "duplicate": True}
        expected_total = pipeline.model.n_total
        assert expected_total == pipeline.initial_n + 100
        pipeline.wal.abandon()  # SIGKILL

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.model.n_total == expected_total
        assert recovered.ingested_total == 100
        # Refused batches write no WAL record, so the duplicate count
        # resets across a crash — only acknowledged state is durable.
        assert recovered.duplicates_skipped == 0
        assert recovered.initial_n == pipeline.initial_n
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting
        info = recovered.recovery
        assert info["recovered"] is True
        assert info["points_replayed"] == 100
        assert info["replayed_by_type"] == {"ingest": 5}
        assert info["recovered_torn_records"] == 0
        assert info["used_fallback_classifier"] is True
        # The watermark replays too: the retry is still a duplicate.
        assert recovered.ingest_batch(
            np.zeros((4, 2)), source="ep1", source_seq=5
        ) == {"accepted": 0, "duplicate": True}
        assert recovered.ingest_batch(
            rng.normal(size=(4, 2)), source="ep1", source_seq=6
        )["accepted"] == 4

    def test_sketch_and_window_rebuilt_exactly(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        rng = np.random.default_rng(12)
        pipeline.ingest(rng.normal(size=(60, 2)) * 0.5)
        before = pipeline.sketch.state()
        window_before = np.array(pipeline._window)
        pipeline.wal.abandon()

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        after = recovered.sketch.state()
        np.testing.assert_array_equal(before["points"], after["points"])
        np.testing.assert_array_equal(before["weights"], after["weights"])
        assert before["n_seen"] == after["n_seen"]
        assert before["raw_displacement"] == after["raw_displacement"]
        np.testing.assert_array_equal(
            window_before, np.array(recovered._window)
        )

    def test_clean_stop_then_recover_replays_nothing(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        pipeline.ingest(np.random.default_rng(0).normal(size=(30, 2)) * 0.5)
        expected_total = pipeline.model.n_total
        pipeline.stop(join=True)  # writes the shutdown snapshot

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.recovery["records_replayed"] == 0
        assert recovered.model.n_total == expected_total
        assert recovered.ingested_total == 30

    def test_second_owner_is_locked_out(self, pipeline_factory, wal_dir):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        with pytest.raises(WalLockedError):
            StreamingPipeline.recover(
                wal_dir, settings=pipeline.settings,
                fallback_classifier=pipeline.model.classifier,
            )

    def test_recover_without_fallback_or_snapshot_fails_loudly(
        self, tmp_path, wal_dir
    ):
        from repro.streaming.wal import WriteAheadLog

        WriteAheadLog(wal_dir).close()  # empty log, no snapshot
        with pytest.raises(WalError, match="fallback_classifier"):
            StreamingPipeline.recover(wal_dir, settings=_settings())


class TestNonFiniteReplay:
    """Regression: ingest refuses NaN/inf rows, but logs and checkpoints
    written before it did can hold them; replaying them through that
    check made ``recover`` raise, so the daemon never started."""

    def assert_finite_state(self, recovered, ingested):
        assert recovered.ingested_total == ingested
        assert recovered.model.n_total == recovered.initial_n + ingested
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting
        assert np.isfinite(recovered.model.buffer_view).all()
        assert np.isfinite(np.array(recovered._window)).all()
        assert np.isfinite(recovered.sketch.state()["points"]).all()
        probes = np.random.default_rng(3).uniform(-3.0, 3.0, size=(32, 2))
        result = recovered.model.classify_detailed(probes)
        assert np.isfinite(result.lower).all()

    def test_logged_batch_rows_are_dropped_and_counted(
        self, pipeline_factory, wal_dir, recovered_pipelines, caplog
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        rng = np.random.default_rng(13)
        pipeline.ingest_batch(rng.normal(size=(20, 2)) * 0.5, source="ep1", source_seq=1)
        poisoned = rng.normal(size=(5, 2)) * 0.5
        poisoned[1, 0] = np.nan
        poisoned[3, 1] = np.inf
        # Appended unchecked, as ingest did before it refused such rows.
        pipeline.wal.append_ingest(poisoned, {"source": "ep1", "seq": 2})
        pipeline.wal.append_ingest(np.full((2, 2), np.nan), {})
        pipeline.ingest_batch(rng.normal(size=(10, 2)) * 0.5, source="ep1", source_seq=3)
        pipeline.wal.abandon()

        with caplog.at_level(logging.WARNING, logger="repro.streaming"):
            recovered = _recover(
                recovered_pipelines, wal_dir,
                settings=pipeline.settings, fallback_classifier=fallback,
            )
        self.assert_finite_state(recovered, ingested=33)
        assert recovered.recovery["points_replayed"] == 33
        assert recovered.recovery["replayed_by_type"] == {"ingest": 4}
        assert recovered.status()["replay_rows_dropped"] == 4
        assert "dropped 4 non-finite rows" in caplog.text
        # The poisoned batch's key stays applied: a retry is a duplicate.
        assert recovered.ingest_batch(
            np.zeros((1, 2)), source="ep1", source_seq=2
        )["duplicate"]

    def test_checkpoint_rows_are_dropped_and_counted(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        pipeline.ingest(np.random.default_rng(14).normal(size=(30, 2)) * 0.5)
        poisoned = np.array([[np.nan, 0.0], [0.5, 0.5], [-np.inf, 1.0]])
        # The state ingest reached before it refused such rows.
        with pipeline._lock:
            pipeline.model._append_to_buffer(poisoned)
            pipeline.sketch.append(poisoned)
            pipeline._window.extend(poisoned)
            pipeline.ingested_total += poisoned.shape[0]
        pipeline.stop(join=True)  # the shutdown snapshot holds the rows

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.recovery["records_replayed"] == 0
        self.assert_finite_state(recovered, ingested=31)
        assert recovered.status()["replay_rows_dropped"] == 2
        assert recovered.sketch.n_seen == pipeline.sketch.n_seen


class TestOutOfOrderIngest:
    """Concurrent router forwards can reach the owner out of seq order;
    exact-duplicate detection must not mistake a late lower seq for a
    retry (the old high-water-mark dedup silently dropped it)."""

    def test_late_lower_seq_is_applied_not_dropped(
        self, pipeline_factory, wal_dir
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        rng = np.random.default_rng(31)
        batch = lambda: rng.normal(size=(10, 2)) * 0.5  # noqa: E731
        # seq 2's forward wins the race to the worker...
        assert pipeline.ingest_batch(
            batch(), source="ep1", source_seq=2
        ) == {"accepted": 10, "duplicate": False}
        # ...and seq 1 arriving afterwards is NEW data, not a duplicate.
        assert pipeline.ingest_batch(
            batch(), source="ep1", source_seq=1
        ) == {"accepted": 10, "duplicate": False}
        assert pipeline.ingested_total == 20
        # Retries of either exact seq ARE duplicates.
        for seq in (1, 2):
            assert pipeline.ingest_batch(
                np.zeros((3, 2)), source="ep1", source_seq=seq
            ) == {"accepted": 0, "duplicate": True}
        # The watermark advanced contiguously and the window drained.
        assert pipeline._ingest_watermarks["ep1"] == 2
        assert "ep1" not in pipeline._ingest_pending_seqs
        assert pipeline.verify_accounting()["ok"]

    def test_reorder_window_survives_crash(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        rng = np.random.default_rng(32)
        # seqs 1 and 3 applied; seq 2 still in flight at crash time.
        for seq in (1, 3):
            pipeline.ingest_batch(
                rng.normal(size=(10, 2)) * 0.5, source="ep1", source_seq=seq
            )
        pipeline.wal.abandon()  # SIGKILL

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.ingested_total == 20
        # The retry of applied seq 3 is still a duplicate after replay...
        assert recovered.ingest_batch(
            np.zeros((2, 2)), source="ep1", source_seq=3
        ) == {"accepted": 0, "duplicate": True}
        # ...while the delayed seq 2 lands as new data.
        assert recovered.ingest_batch(
            rng.normal(size=(10, 2)) * 0.5, source="ep1", source_seq=2
        ) == {"accepted": 10, "duplicate": False}
        assert recovered._ingest_watermarks["ep1"] == 3
        assert recovered.verify_accounting()["ok"]

    def test_overflowed_gap_is_collapsed(self, pipeline_factory, wal_dir):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        pipeline.REORDER_WINDOW = 4  # shadow the class default
        rng = np.random.default_rng(33)
        # seq 1 was refused upstream and never arrives; its gap must
        # not pin the pending window open forever.
        for seq in range(2, 8):
            pipeline.ingest_batch(
                rng.normal(size=(2, 2)) * 0.5, source="ep1", source_seq=seq
            )
        assert len(pipeline._ingest_pending_seqs.get("ep1", ())) <= 4
        assert pipeline._ingest_watermarks["ep1"] >= 2

    def test_nonpositive_seq_is_refused(self, pipeline_factory, wal_dir):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        with pytest.raises(ValueError, match="source_seq"):
            pipeline.ingest_batch(
                np.zeros((2, 2)), source="ep1", source_seq=0
            )


class TestSwapReplay:
    def _crash_with_markers(self, pipeline, artifact, n_indexed):
        """Append trigger+commit markers as a mid-swap crash would leave
        them (after the in-memory adopt, before the compacting
        snapshot), then kill the process."""
        generation = pipeline._refit_generation + 1
        pipeline.wal.append_marker(RECORD_REFIT_TRIGGER, {
            "generation": generation,
            "n_snapshot": int(n_indexed),
            "buffered_at_snapshot": 0,
        })
        pipeline.wal.append_marker(RECORD_SWAP_COMMIT, {
            "generation": generation,
            "model_generation": int(pipeline.model.generation) + 1,
            "n_indexed": int(n_indexed),
            "buffered_at_snapshot": 0,
            "artifact": str(artifact),
            "threshold": 1.0,
            "eta": 0.0,
            "eta_applied": 0.0,
        })
        pipeline.wal.abandon()

    def test_committed_swap_is_replayed(
        self, pipeline_factory, wal_dir, tmp_path, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        pipeline.ingest(np.random.default_rng(1).normal(size=(100, 2)) * 0.5)
        artifact = save_model(tmp_path / "swapped.tkdc", fallback)
        # The committed model represents all but 40 buffered points.
        n_indexed = pipeline.model.n_total - 40
        expected_generation = pipeline.model.generation + 1
        self._crash_with_markers(pipeline, artifact, n_indexed)

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.swaps == 1
        assert recovered.refits_triggered == 1
        assert recovered.refits_succeeded == 1
        assert recovered.refits_failed == 0
        assert recovered.model.n_indexed == n_indexed
        assert recovered.model.n_buffered == 40
        assert recovered.model.n_total == recovered.initial_n + 100
        assert recovered.model.generation == expected_generation
        assert recovered._classifier_path == str(artifact)
        assert recovered.recovery["skipped_swaps"] == 0
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting

    def test_missing_artifact_fails_soft(
        self, pipeline_factory, wal_dir, tmp_path, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        pipeline.ingest(np.random.default_rng(2).normal(size=(50, 2)) * 0.5)
        expected_total = pipeline.model.n_total
        self._crash_with_markers(
            pipeline, tmp_path / "deleted.tkdc", expected_total - 10
        )

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        # The swap is skipped, its points stay in the exact buffer, and
        # conservation still holds — no acknowledged point is lost.
        assert recovered.swaps == 0
        assert recovered.rollbacks == 1
        assert recovered.recovery["skipped_swaps"] == 1
        assert recovered.model.n_total == expected_total
        assert recovered.model.n_buffered == 50
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting

    def test_unresolved_trigger_counts_as_failed_refit(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        pipeline.ingest(np.random.default_rng(3).normal(size=(20, 2)) * 0.5)
        pipeline.wal.append_marker(RECORD_REFIT_TRIGGER, {
            "generation": 1, "n_snapshot": 0, "buffered_at_snapshot": 0,
        })
        pipeline.wal.abandon()  # died mid-refit

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.refits_triggered == 1
        assert recovered.refits_failed == 1
        assert recovered.refits_succeeded == 0
        assert recovered.recovery["unresolved_refits"] == 1
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting


class TestRealRefitRoundTrip:
    def test_crash_after_real_swap_recovers_without_fallback(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        """After a genuine refit+swap the artifact path is in the WAL
        snapshot, so recovery needs no fallback model — and the swapped
        artifact carries the sketch's displacement certificate."""
        pipeline = pipeline_factory(wal_dir=wal_dir)
        rng = np.random.default_rng(21)
        # Shift the distribution so the refit trains on real drift.
        pipeline.ingest(rng.normal(size=(400, 2)) * 0.5 + 2.0)
        outcome = pipeline.refit_and_swap()
        assert outcome is not None and outcome.ok
        assert outcome.eta_applied >= 0.0
        expected_total = pipeline.model.n_total
        expected_generation = pipeline.model.generation
        expected_eta = pipeline.model.classifier.stream_eta_applied
        pipeline.wal.abandon()

        recovered = _recover(
            recovered_pipelines, wal_dir, settings=pipeline.settings,
        )
        assert recovered.recovery["used_fallback_classifier"] is False
        assert recovered.model.n_total == expected_total
        assert recovered.model.generation == expected_generation
        assert recovered.swaps == 1
        assert recovered.model.classifier.stream_eta_applied == expected_eta
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting

    def test_torn_tail_is_recovered_and_reported(
        self, pipeline_factory, wal_dir, recovered_pipelines
    ):
        pipeline = pipeline_factory(wal_dir=wal_dir)
        fallback = pipeline.model.classifier
        pipeline.ingest(np.random.default_rng(5).normal(size=(30, 2)) * 0.5)
        acknowledged_total = pipeline.model.n_total
        pipeline.wal.abandon()
        # Tear the tail: an append died partway through its write.
        segment = sorted(wal_dir.glob("wal-*.seg"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b"\x99\x00\x00\x00")  # half an envelope

        recovered = _recover(
            recovered_pipelines, wal_dir,
            settings=pipeline.settings, fallback_classifier=fallback,
        )
        assert recovered.recovery["recovered_torn_records"] == 1
        assert recovered.model.n_total == acknowledged_total
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting
