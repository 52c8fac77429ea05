"""Durable ingest: an append-only, checksummed write-ahead log.

PR 8's streaming pipeline serves every ingested point exactly — but
only from process memory. A daemon crash silently forgets every point
accepted since the last refit, which breaks the conservation invariant
``n_total == initial + ingested`` the moment the process restarts. The
WAL closes that hole: every state-changing streaming event is appended
here *before* it is applied in memory, so the acknowledgement a client
receives implies the batch survives a crash.

**Record format.** Each record is length-prefixed and CRC32-protected::

    <u32 payload length> <u32 crc32(payload)> <payload>
    payload := <u8 record type> <u64 sequence number> <body>

Segments start with an 8-byte magic (``TKDCWAL1``). Record types:

- ``INGEST`` — one accepted batch; body is a JSON meta header
  (idempotency source/sequence) plus the raw float64 row matrix;
- ``REFIT_TRIGGER`` — a drift-triggered refit launched (informational:
  a trigger with no matching commit died with the process);
- ``SWAP_COMMIT`` — a verified hot swap landed; body names the artifact
  path, the represented population, and the in-flight buffer retained;
- ``SNAPSHOT`` — a pickled full-state checkpoint (counters, sketch,
  exact buffer, idempotency watermarks). Compaction writes one at the
  head of a fresh segment and deletes everything older, so the log is
  bounded by the work since the last snapshot.

**Torn tails vs corruption.** Replay tolerates exactly one failure
mode silently: a *torn final record* — the crash interrupted the last
append, so the bytes from the failed record's start to end-of-file do
not form a complete, checksum-valid record. That tail is truncated,
warned about, and counted in ``recovered_torn_records``. Any checksum
or framing failure *before* the physical tail (a complete record whose
CRC fails mid-log, a sequence-number gap, a missing segment) is data
loss the WAL cannot account for and raises :class:`WalCorruptionError`
— recovery must fail loudly rather than serve an accounting lie.

**Fsync policy.** ``always`` fsyncs every append (the acknowledgement
IS the durability point), ``interval`` fsyncs at most once per
``fsync_interval`` seconds (bounded loss window, near-zero overhead),
``off`` never fsyncs (the OS decides; crash-of-process still loses
nothing, crash-of-kernel may). ``docs/streaming.md`` has the trade-off
table.

A ``wal.lock`` file (BSD ``flock``, auto-released on process death)
guarantees single-writer access: a fleet ingest-owner takeover cannot
double-append while the old owner is still alive.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import struct
import threading
import time
import weakref
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.metrics import record_wal_append

try:  # pragma: no cover - fcntl exists everywhere the fleet runs
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

log = logging.getLogger("repro.streaming")

#: Writer-lock files open in this process. A flock belongs to the open
#: file, which a forked child (a refit worker) shares: its copy would
#: hold the WAL after the owner dies and refuse the successor until the
#: child exits. So every forked child closes its copies at once.
_LOCK_HANDLES = weakref.WeakSet()


def _close_inherited_locks() -> None:
    for handle in list(_LOCK_HANDLES):
        try:
            handle.close()
        except OSError:  # pragma: no cover - best effort in a new child
            pass
    _LOCK_HANDLES.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_locks)

#: Segment file header; a file not starting with this is not a WAL.
SEGMENT_MAGIC = b"TKDCWAL1"

#: Record envelope: payload length, CRC32 of payload.
_ENVELOPE = struct.Struct("<II")
#: Payload prefix: record type, sequence number.
_PREFIX = struct.Struct("<BQ")
#: Ingest body framing: meta length; then rows, dim before the matrix.
_U32 = struct.Struct("<I")

#: Framing sanity cap — a length prefix beyond this mid-log is
#: corruption, not a huge record.
_MAX_RECORD_BYTES = 1 << 30

RECORD_INGEST = 1
RECORD_REFIT_TRIGGER = 2
RECORD_SWAP_COMMIT = 3
RECORD_SNAPSHOT = 4

RECORD_NAMES = {
    RECORD_INGEST: "ingest",
    RECORD_REFIT_TRIGGER: "refit_trigger",
    RECORD_SWAP_COMMIT: "swap_commit",
    RECORD_SNAPSHOT: "snapshot",
}

FSYNC_POLICIES = ("always", "interval", "off")


class WalError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WalCorruptionError(WalError):
    """Mid-log damage replay cannot account for (fail loudly)."""


class WalLockedError(WalError):
    """Another live process holds this WAL's writer lock."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    type: int
    seq: int
    body: bytes

    @property
    def type_name(self) -> str:
        return RECORD_NAMES.get(self.type, f"unknown({self.type})")

    # -- body codecs -------------------------------------------------------

    def ingest_payload(self) -> tuple[np.ndarray, dict]:
        """Decode an INGEST body into ``(points, meta)``."""
        if self.type != RECORD_INGEST:
            raise WalError(f"record {self.seq} is {self.type_name}, not ingest")
        (meta_len,) = _U32.unpack_from(self.body, 0)
        offset = _U32.size
        meta = json.loads(self.body[offset:offset + meta_len].decode("utf-8"))
        offset += meta_len
        rows, dim = struct.unpack_from("<II", self.body, offset)
        offset += 8
        points = np.frombuffer(
            self.body, dtype="<f8", count=rows * dim, offset=offset
        ).reshape(rows, dim).copy()
        return points, meta

    def marker_payload(self) -> dict:
        """Decode a REFIT_TRIGGER / SWAP_COMMIT body (JSON)."""
        if self.type not in (RECORD_REFIT_TRIGGER, RECORD_SWAP_COMMIT):
            raise WalError(f"record {self.seq} is {self.type_name}, not a marker")
        return json.loads(self.body.decode("utf-8"))

    def snapshot_payload(self) -> dict:
        """Decode a SNAPSHOT body (pickled state dict)."""
        if self.type != RECORD_SNAPSHOT:
            raise WalError(f"record {self.seq} is {self.type_name}, not snapshot")
        return pickle.loads(self.body)


def encode_ingest_body(points: np.ndarray, meta: dict | None = None) -> bytes:
    """Serialize one ingest batch: JSON meta + raw float64 matrix."""
    points = np.ascontiguousarray(np.atleast_2d(points), dtype="<f8")
    meta_blob = json.dumps(meta or {}).encode("utf-8")
    rows, dim = points.shape
    return b"".join([
        _U32.pack(len(meta_blob)),
        meta_blob,
        struct.pack("<II", rows, dim),
        points.tobytes(),
    ])


class WriteAheadLog:
    """Single-writer, segment-rotated, checksummed append log.

    Opening scans every existing segment (validating checksums and
    sequence continuity), truncates a torn final record, and positions
    the appender after the last good byte — so construction *is* the
    integrity check. Use :meth:`replay` to read everything at or after
    the newest snapshot.

    Parameters
    ----------
    directory:
        The log directory (created if missing). One WAL per directory.
    fsync_policy:
        ``always`` / ``interval`` / ``off`` — when appends are forced
        to stable storage. With ``always`` the return of :meth:`append`
        is the durability point.
    fsync_interval:
        Minimum seconds between fsyncs under the ``interval`` policy.
    segment_bytes:
        Rotate to a fresh segment file once the current one exceeds
        this size (bounds the blast radius of a torn tail and keeps
        deletion-based compaction cheap).
    """

    def __init__(
        self,
        directory: Path | str,
        fsync_policy: str = "always",
        fsync_interval: float = 0.05,
        segment_bytes: int = 4 << 20,
        clock=time.monotonic,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, got {fsync_policy!r}"
            )
        if fsync_interval < 0:
            raise ValueError(f"fsync_interval must be >= 0, got {fsync_interval}")
        if segment_bytes < 1024:
            raise ValueError(f"segment_bytes must be >= 1024, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync_policy
        self.fsync_interval = fsync_interval
        self.segment_bytes = segment_bytes
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = None
        self._lock_handle = None
        self.closed = False

        self.next_seq = 1
        self.recovered_torn_records = 0
        self.appends = 0
        self.fsyncs = 0
        self.dir_fsyncs = 0
        self.rotations = 0
        self.snapshots_written = 0
        self.bytes_appended = 0
        self._last_fsync = float("-inf")
        #: (path, byte offset) of the newest snapshot record, if any.
        self._snapshot_position: tuple[Path, int] | None = None

        self._acquire_writer_lock()
        try:
            self._scan_existing()
            self._open_current_segment()
        except BaseException:
            self._release_writer_lock()
            raise

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    def _acquire_writer_lock(self) -> None:
        lock_path = self.directory / "wal.lock"
        handle = open(lock_path, "a+b")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                handle.close()
                raise WalLockedError(
                    f"{self.directory} is already owned by a live writer "
                    f"(wal.lock is flocked): {exc}"
                ) from exc
        handle.seek(0)
        handle.truncate()
        handle.write(f"{os.getpid()}\n".encode("ascii"))
        handle.flush()
        self._lock_handle = handle
        _LOCK_HANDLES.add(handle)

    def _release_writer_lock(self) -> None:
        if self._lock_handle is not None:
            # Closing drops the flock; the file itself stays (stale pid
            # contents are harmless — only the flock is authoritative).
            _LOCK_HANDLES.discard(self._lock_handle)
            self._lock_handle.close()
            self._lock_handle = None

    # ------------------------------------------------------------------
    # Opening scan
    # ------------------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob("wal-*.seg"))

    def _scan_existing(self) -> None:
        """Validate every segment; truncate a torn tail; set next_seq."""
        paths = self._segment_paths()
        expected_seq: int | None = None
        for position, path in enumerate(paths):
            is_last = position == len(paths) - 1
            expected_seq = self._scan_segment(path, is_last, expected_seq)
        if expected_seq is not None:
            self.next_seq = expected_seq

    def _scan_segment(
        self, path: Path, is_last: bool, expected_seq: int | None
    ) -> int:
        data = path.read_bytes()
        if len(data) < len(SEGMENT_MAGIC) or not data.startswith(SEGMENT_MAGIC):
            if is_last and len(data) < len(SEGMENT_MAGIC):
                # Crash between creating the file and writing its magic.
                self._truncate_tail(path, 0, "segment header")
                return expected_seq if expected_seq is not None else 1
            raise WalCorruptionError(
                f"{path} does not start with the WAL segment magic"
            )
        offset = len(SEGMENT_MAGIC)
        while offset < len(data):
            parsed = self._parse_record_at(data, offset, path, is_last)
            if parsed is None:  # torn tail; file already truncated
                break
            record, next_offset = parsed
            if expected_seq is not None and record.seq != expected_seq:
                raise WalCorruptionError(
                    f"{path} offset {offset}: sequence gap (expected "
                    f"{expected_seq}, found {record.seq}) — a segment or "
                    "record is missing"
                )
            expected_seq = record.seq + 1
            if record.type == RECORD_SNAPSHOT:
                self._snapshot_position = (path, offset)
            offset = next_offset
        return expected_seq if expected_seq is not None else 1

    def _parse_record_at(
        self, data: bytes, offset: int, path: Path, is_last: bool
    ) -> tuple[WalRecord, int] | None:
        """Parse one record; ``None`` means a torn tail was truncated.

        The torn-tail rule: the failure is tolerable only when the bad
        record's declared extent reaches the physical end of the *last*
        segment — exactly the footprint of an interrupted append.
        Anything else is mid-log corruption.
        """
        def torn(kind: str) -> None:
            self._truncate_tail(path, offset, kind)

        end = len(data)
        if offset + _ENVELOPE.size > end:
            if is_last:
                torn("record header")
                return None
            raise WalCorruptionError(
                f"{path} offset {offset}: truncated record header in a "
                "non-final segment"
            )
        length, crc = _ENVELOPE.unpack_from(data, offset)
        payload_start = offset + _ENVELOPE.size
        payload_end = payload_start + length
        if length > _MAX_RECORD_BYTES:
            if is_last and payload_end >= end:
                torn("oversized length prefix")
                return None
            raise WalCorruptionError(
                f"{path} offset {offset}: implausible record length {length}"
            )
        if payload_end > end:
            if is_last:
                torn("record body")
                return None
            raise WalCorruptionError(
                f"{path} offset {offset}: truncated record body in a "
                "non-final segment"
            )
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) != crc:
            if is_last and payload_end == end:
                torn("checksum mismatch in the final record")
                return None
            raise WalCorruptionError(
                f"{path} offset {offset}: CRC32 mismatch mid-log — the "
                "record is damaged but not the physical tail; refusing to "
                "replay past unaccountable loss"
            )
        if length < _PREFIX.size:
            raise WalCorruptionError(
                f"{path} offset {offset}: record too short for its prefix"
            )
        rtype, seq = _PREFIX.unpack_from(payload, 0)
        if rtype not in RECORD_NAMES:
            raise WalCorruptionError(
                f"{path} offset {offset}: unknown record type {rtype}"
            )
        return WalRecord(rtype, seq, payload[_PREFIX.size:]), payload_end

    def _truncate_tail(self, path: Path, offset: int, kind: str) -> None:
        self.recovered_torn_records += 1
        log.warning(
            "WAL %s: torn final record (%s) at offset %d — truncating the "
            "tail; the interrupted append was never acknowledged",
            path.name, kind, offset,
        )
        with open(path, "r+b") as handle:
            handle.truncate(max(offset, 0))
            handle.flush()
            os.fsync(handle.fileno())
        # The crashed writer may never have made this file's directory
        # entry durable (a zero-length header file is exactly that
        # footprint); pin entry and truncation down together.
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        """fsync the log directory itself.

        Record fsyncs make *contents* durable; segment creation,
        deletion, and truncation also change the directory, and only a
        directory fsync makes those entries survive a power loss. The
        ``always``/``interval`` ack contract depends on the segment the
        ack landed in still being linked after a crash.
        """
        fd = os.open(self.directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self.dir_fsyncs += 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _segment_path_for(self, seq: int) -> Path:
        return self.directory / f"wal-{seq:016d}.seg"

    def _open_current_segment(self) -> None:
        paths = self._segment_paths()
        if paths:
            current = paths[-1]
            # Unbuffered append: every write() reaches the OS, so replay
            # from another descriptor observes it and fsync() is the
            # only durability variable.
            self._handle = open(current, "ab", buffering=0)
            self._current_path = current
        else:
            self._start_segment(self.next_seq)

    def _start_segment(self, first_seq: int) -> None:
        path = self._segment_path_for(first_seq)
        handle = open(path, "ab", buffering=0)
        if handle.tell() == 0:
            handle.write(SEGMENT_MAGIC)
        self._handle = handle
        self._current_path = path
        if self.fsync_policy != "off":
            # Make the new segment's directory entry durable before any
            # acknowledged record lands in it — an fsynced record in an
            # unlinked-after-crash file is still lost data.
            self._fsync_directory()

    def _rotate_locked(self) -> None:
        self._fsync_locked(force=True)
        self._handle.close()
        self._start_segment(self.next_seq)
        self.rotations += 1

    def _fsync_locked(self, force: bool = False) -> None:
        if self._handle is None:
            return
        if force or self.fsync_policy == "always":
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
            self._last_fsync = self._clock()
        elif self.fsync_policy == "interval":
            now = self._clock()
            if now - self._last_fsync >= self.fsync_interval:
                os.fsync(self._handle.fileno())
                self.fsyncs += 1
                self._last_fsync = now
        # "off": never

    def _append_locked(self, rtype: int, body: bytes) -> int:
        if self.closed:
            raise WalError("append on a closed WAL")
        seq = self.next_seq
        payload = _PREFIX.pack(rtype, seq) + body
        blob = _ENVELOPE.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(blob)
        self.next_seq = seq + 1
        self.appends += 1
        self.bytes_appended += len(blob)
        self._fsync_locked()
        if self._handle.tell() > self.segment_bytes:
            self._rotate_locked()
        return seq

    def _append_timed(self, rtype: int, body: bytes) -> int:
        started = time.perf_counter()
        with self._lock:
            fsyncs_before = self.fsyncs
            seq = self._append_locked(rtype, body)
            fsyncs = self.fsyncs - fsyncs_before
        record_wal_append(
            RECORD_NAMES[rtype], time.perf_counter() - started, fsyncs
        )
        return seq

    def append_ingest(
        self, points: np.ndarray, meta: dict | None = None
    ) -> int:
        """Append one accepted batch; returns its WAL sequence number."""
        return self._append_timed(RECORD_INGEST, encode_ingest_body(points, meta))

    def append_marker(self, rtype: int, payload: dict) -> int:
        """Append a refit-trigger or swap-commit marker."""
        if rtype not in (RECORD_REFIT_TRIGGER, RECORD_SWAP_COMMIT):
            raise ValueError(f"not a marker record type: {rtype}")
        return self._append_timed(rtype, json.dumps(payload).encode("utf-8"))

    def sync(self) -> None:
        """Force an fsync regardless of policy."""
        with self._lock:
            self._fsync_locked(force=True)

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------

    def write_snapshot(self, state: dict) -> int:
        """Checkpoint full state and truncate all history before it.

        The snapshot record opens a brand-new segment; once it is
        durable (always fsynced, regardless of policy) every older
        segment is deleted — replay needs nothing before a snapshot
        that contains the whole state by construction.
        """
        body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        started = time.perf_counter()
        with self._lock:
            if self.closed:
                raise WalError("snapshot on a closed WAL")
            fsyncs_before = self.fsyncs
            self._fsync_locked(force=True)
            self._handle.close()
            old_paths = [
                p for p in self._segment_paths() if p != self._segment_path_for(self.next_seq)
            ]
            self._start_segment(self.next_seq)
            seq = self._append_locked(RECORD_SNAPSHOT, body)
            self._fsync_locked(force=True)
            # The snapshot must be durable — contents AND directory
            # entry — before the history it replaces is deleted, and
            # the deletions must be pinned down too or a crash replays
            # pre-snapshot segments against post-snapshot state.
            self._fsync_directory()
            self._snapshot_position = (self._current_path, len(SEGMENT_MAGIC))
            for path in old_paths:
                if path != self._current_path:
                    path.unlink(missing_ok=True)
            self._fsync_directory()
            self.snapshots_written += 1
            fsyncs = self.fsyncs - fsyncs_before
        record_wal_append(
            RECORD_NAMES[RECORD_SNAPSHOT], time.perf_counter() - started, fsyncs
        )
        return seq

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self):
        """Yield every record at or after the newest snapshot, in order.

        The opening scan already validated checksums and truncated any
        torn tail, so replay is a plain decode pass.
        """
        paths = self._segment_paths()
        start_path, start_offset = (
            self._snapshot_position
            if self._snapshot_position is not None
            else (None, len(SEGMENT_MAGIC))
        )
        started = start_path is None
        for position, path in enumerate(paths):
            if not started:
                if path != start_path:
                    continue
                started = True
                offset = start_offset
            else:
                offset = len(SEGMENT_MAGIC)
            data = path.read_bytes()
            while offset < len(data):
                parsed = self._parse_record_at(
                    data, offset, path, position == len(paths) - 1
                )
                if parsed is None:  # pragma: no cover - scan truncated already
                    break
                record, offset = parsed
                yield record

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the log holds no records at all."""
        return self.next_seq == 1

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._segment_paths())

    def stats(self) -> dict:
        """JSON-ready counters for /statz and benchmarks."""
        return {
            "directory": str(self.directory),
            "fsync_policy": self.fsync_policy,
            "next_seq": int(self.next_seq),
            "appends": int(self.appends),
            "fsyncs": int(self.fsyncs),
            "dir_fsyncs": int(self.dir_fsyncs),
            "rotations": int(self.rotations),
            "snapshots_written": int(self.snapshots_written),
            "bytes_appended": int(self.bytes_appended),
            "segments": len(self._segment_paths()),
            "size_bytes": int(self.size_bytes()),
            "recovered_torn_records": int(self.recovered_torn_records),
        }

    def close(self) -> None:
        """Flush, fsync, and release the writer lock. Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            if self._handle is not None:
                try:
                    os.fsync(self._handle.fileno())
                except OSError:  # pragma: no cover - best-effort at exit
                    pass
                self._handle.close()
                self._handle = None
            self._release_writer_lock()

    def abandon(self) -> None:
        """Drop the handle and lock WITHOUT a final fsync (test hook).

        Simulates a process death for crash-recovery tests that cannot
        afford a real subprocess; never call this in production code.
        """
        with self._lock:
            self.closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._release_writer_lock()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
