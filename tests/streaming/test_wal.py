"""Unit + property tests for the checksummed write-ahead log.

The property test exercises the torn-tail contract exhaustively: for
EVERY byte offset inside the final record, truncating there and
reopening must (a) recover every earlier record intact, (b) count
exactly one torn record, and (c) leave the log appendable. Damage
anywhere before the physical tail must raise instead.
"""

import shutil

import numpy as np
import pytest

from repro.streaming.wal import (
    RECORD_INGEST,
    RECORD_REFIT_TRIGGER,
    RECORD_SNAPSHOT,
    RECORD_SWAP_COMMIT,
    SEGMENT_MAGIC,
    WalCorruptionError,
    WalError,
    WalLockedError,
    WriteAheadLog,
)


def _points(rows: int, dim: int = 2, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, dim))


def _hold_until(started, release) -> None:
    started.set()
    release.wait(timeout=30.0)


class TestRoundTrip:
    def test_records_survive_close_and_reopen(self, tmp_path):
        batch = _points(5)
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.empty
            assert wal.append_ingest(batch, {"source": "s", "seq": 3}) == 1
            assert wal.append_marker(
                RECORD_REFIT_TRIGGER, {"generation": 1}
            ) == 2
            assert wal.append_marker(
                RECORD_SWAP_COMMIT, {"generation": 1, "artifact": "x"}
            ) == 3
            assert not wal.empty
        with WriteAheadLog(tmp_path / "wal") as wal:
            records = list(wal.replay())
            assert [r.seq for r in records] == [1, 2, 3]
            assert [r.type for r in records] == [
                RECORD_INGEST, RECORD_REFIT_TRIGGER, RECORD_SWAP_COMMIT,
            ]
            points, meta = records[0].ingest_payload()
            np.testing.assert_array_equal(points, batch)
            assert meta == {"source": "s", "seq": 3}
            assert records[1].marker_payload() == {"generation": 1}
            assert wal.next_seq == 4
            assert wal.recovered_torn_records == 0

    def test_payload_codecs_reject_wrong_types(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_ingest(_points(2))
            record = next(iter(wal.replay()))
        with pytest.raises(WalError, match="not a marker"):
            record.marker_payload()
        with pytest.raises(WalError, match="not snapshot"):
            record.snapshot_payload()

    def test_stats_shape(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_ingest(_points(2))
            stats = wal.stats()
        assert stats["appends"] == 1
        assert stats["segments"] == 1
        assert stats["fsync_policy"] == "always"
        assert stats["size_bytes"] > len(SEGMENT_MAGIC)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(fsync_policy="sometimes"),
        dict(fsync_interval=-1.0),
        dict(segment_bytes=100),
    ])
    def test_constructor_rejects_bad_knobs(self, tmp_path, bad):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal", **bad)

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WalError, match="closed"):
            wal.append_ingest(_points(1))

    def test_marker_type_checked(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            with pytest.raises(ValueError, match="not a marker"):
                wal.append_marker(RECORD_INGEST, {})


class TestLocking:
    def test_second_writer_is_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        try:
            with pytest.raises(WalLockedError):
                WriteAheadLog(tmp_path / "wal")
        finally:
            wal.close()
        # The lock dies with the holder: reopening now succeeds.
        WriteAheadLog(tmp_path / "wal").close()

    def test_abandon_releases_the_lock(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append_ingest(_points(3))
        wal.abandon()  # simulated SIGKILL
        with WriteAheadLog(tmp_path / "wal") as successor:
            assert len(list(successor.replay())) == 1

    def test_forked_child_does_not_hold_the_lock(self, tmp_path):
        # A refit worker is forked while the owner holds the lock. A
        # flock belongs to the open file, so a child keeping its copy
        # would hold the WAL after the owner dies and refuse the
        # successor until the child exits.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        started, release = context.Event(), context.Event()
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append_ingest(_points(3))
        child = context.Process(target=_hold_until, args=(started, release))
        child.start()
        try:
            assert started.wait(timeout=30.0)
            wal.abandon()  # simulated SIGKILL of the owner
            assert child.is_alive()
            with WriteAheadLog(tmp_path / "wal") as successor:
                assert len(list(successor.replay())) == 1
        finally:
            release.set()
            child.join(timeout=30.0)


class TestRotationAndFsync:
    def test_rotation_bounds_segments_and_preserves_order(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_bytes=1024) as wal:
            for i in range(12):
                wal.append_ingest(_points(20, seed=i), {"i": i})
            assert wal.rotations > 0
            assert wal.stats()["segments"] == wal.rotations + 1
        with WriteAheadLog(tmp_path / "wal", segment_bytes=1024) as wal:
            records = list(wal.replay())
            assert [r.seq for r in records] == list(range(1, 13))
            assert [r.ingest_payload()[1]["i"] for r in records] == list(range(12))

    def test_fsync_policy_always_syncs_every_append(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", fsync_policy="always") as wal:
            for i in range(5):
                wal.append_ingest(_points(2, seed=i))
            assert wal.fsyncs == 5

    def test_fsync_policy_off_never_syncs_on_append(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", fsync_policy="off") as wal:
            for i in range(5):
                wal.append_ingest(_points(2, seed=i))
            assert wal.fsyncs == 0
            wal.sync()
            assert wal.fsyncs == 1

    def test_fsync_policy_interval_batches(self, tmp_path):
        fake = [0.0]
        with WriteAheadLog(
            tmp_path / "wal", fsync_policy="interval", fsync_interval=1.0,
            clock=lambda: fake[0],
        ) as wal:
            wal.append_ingest(_points(1))  # -inf -> now: syncs
            wal.append_ingest(_points(1))  # same instant: skipped
            assert wal.fsyncs == 1
            fake[0] = 2.0
            wal.append_ingest(_points(1))
            assert wal.fsyncs == 2


class TestSnapshotCompaction:
    def test_snapshot_truncates_history(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_bytes=1024) as wal:
            for i in range(8):
                wal.append_ingest(_points(20, seed=i))
            assert wal.stats()["segments"] > 1
            wal.write_snapshot({"counter": 41})
            wal.append_ingest(_points(3, seed=99), {"post": True})
            assert wal.stats()["segments"] == 1
        with WriteAheadLog(tmp_path / "wal") as wal:
            records = list(wal.replay())
        assert [r.type for r in records] == [RECORD_SNAPSHOT, RECORD_INGEST]
        assert records[0].snapshot_payload() == {"counter": 41}
        assert records[1].ingest_payload()[1] == {"post": True}

    def test_replay_starts_at_newest_snapshot(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_ingest(_points(2))
            wal.write_snapshot({"gen": 1})
            wal.write_snapshot({"gen": 2})
            records = list(wal.replay())
        assert len(records) == 1
        assert records[0].snapshot_payload() == {"gen": 2}


def _build_reference_log(directory):
    """Three ingest records, then one final marker; returns the byte
    range [start, end) of the final record in the last segment."""
    with WriteAheadLog(directory) as wal:
        for i in range(3):
            wal.append_ingest(_points(4, seed=i), {"i": i})
        path = directory / sorted(p.name for p in directory.glob("wal-*.seg"))[-1]
        start = path.stat().st_size
        wal.append_marker(RECORD_REFIT_TRIGGER, {"generation": 9})
        end = path.stat().st_size
    return path, start, end


class TestTornTailProperty:
    def test_every_truncation_offset_of_the_final_record(self, tmp_path):
        """Crash-at-any-byte: the unacknowledged tail is dropped, every
        acknowledged record survives, and the log stays appendable."""
        reference = tmp_path / "ref"
        segment, start, end = _build_reference_log(reference)
        assert end - start > 8  # envelope + payload: a real sweep
        for cut in range(start, end):
            workdir = tmp_path / f"cut-{cut}"
            shutil.copytree(reference, workdir)
            target = workdir / segment.name
            with open(target, "r+b") as handle:
                handle.truncate(cut)
            with WriteAheadLog(workdir) as wal:
                expected_torn = 0 if cut == start else 1
                assert wal.recovered_torn_records == expected_torn, cut
                records = list(wal.replay())
                assert [r.seq for r in records] == [1, 2, 3], cut
                for i, record in enumerate(records):
                    points, meta = record.ingest_payload()
                    np.testing.assert_array_equal(points, _points(4, seed=i))
                    assert meta == {"i": i}
                # The torn seq was never acknowledged; it is reused.
                assert wal.next_seq == 4, cut
                assert wal.append_ingest(_points(1), {"fresh": True}) == 4
            shutil.rmtree(workdir)

    def test_final_record_crc_damage_is_a_torn_tail(self, tmp_path):
        segment, start, end = _build_reference_log(tmp_path / "wal")
        with open(segment, "r+b") as handle:
            handle.seek(end - 1)
            byte = handle.read(1)
            handle.seek(end - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.recovered_torn_records == 1
            assert [r.seq for r in wal.replay()] == [1, 2, 3]


class TestCorruptionFailsLoudly:
    def test_mid_log_bitflip_raises(self, tmp_path):
        segment, start, __ = _build_reference_log(tmp_path / "wal")
        # Damage the FIRST record's payload: a complete record whose CRC
        # fails before the physical tail is unaccountable loss.
        offset = len(SEGMENT_MAGIC) + 8 + 4
        with open(segment, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError, match="CRC32 mismatch"):
            WriteAheadLog(tmp_path / "wal")

    def test_missing_middle_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_bytes=1024) as wal:
            for i in range(12):
                wal.append_ingest(_points(20, seed=i))
            assert wal.stats()["segments"] >= 3
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        segments[1].unlink()
        with pytest.raises(WalCorruptionError, match="sequence gap"):
            WriteAheadLog(tmp_path / "wal", segment_bytes=1024)

    def test_truncated_non_final_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_bytes=1024) as wal:
            for i in range(12):
                wal.append_ingest(_points(20, seed=i))
            assert wal.stats()["segments"] >= 2
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        with open(segments[0], "r+b") as handle:
            handle.truncate(segments[0].stat().st_size - 3)
        with pytest.raises(WalCorruptionError, match="non-final segment"):
            WriteAheadLog(tmp_path / "wal", segment_bytes=1024)

    def test_bad_magic_raises(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_ingest(_points(2))
        segment = next((tmp_path / "wal").glob("wal-*.seg"))
        data = segment.read_bytes()
        segment.write_bytes(b"NOTAWAL!" + data[8:])
        with pytest.raises(WalCorruptionError, match="magic"):
            WriteAheadLog(tmp_path / "wal")
