"""The serving-fleet router: pre-forked workers behind one HTTP front.

``repro serve --workers N`` starts one router process that:

1. loads and sha256-verifies the model once, measures the
   deadline→budget calibration once, and publishes the index to the
   shared-memory plane (:mod:`repro.serve.plane`);
2. pre-forks N worker processes (``repro serve-worker``), each running
   the existing single-process pipeline against the attached tree;
3. routes ``/classify`` to the least-loaded healthy worker with
   per-worker admission slots, failing over once on transport errors so
   a killed worker never drops a request;
4. supervises the fleet: heartbeat probes, immediate respawn of crashed
   or unresponsive workers (the supervision shape of
   :mod:`repro.robustness.supervisor`, applied to processes);
5. aggregates the accounting invariant and ``/metrics`` fleet-wide —
   the router's own :class:`~repro.serve.stats.ServerStats` gives every
   submitted request exactly one terminal outcome *at the router*, so
   ``submitted == completed + shed + rejected + timed_out + errors +
   drained`` holds for the fleet by construction; and
6. runs hot reload as publish-new-segments → canary on one worker →
   roll out → atomic manifest swap → unlink old segments, preserving
   the verify/canary/rollback semantics of :mod:`repro.serve.reload`.

A fleet-level circuit breaker watches *transport* health (connection
failures, worker 5xx): when too many forwards fail, the router sheds
fast with 429 instead of burning sockets against a sick fleet. Worker-
local breakers keep watching classify health exactly as before.
"""

from __future__ import annotations

import json
import logging
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from http.client import HTTPException
from http.server import ThreadingHTTPServer
from pathlib import Path

from repro.io.models import load_model, resolve_model_path
from repro.obs.buildinfo import build_info
from repro.obs.registry import render_prometheus
from repro.serve.breaker import MODE_DEGRADED, CircuitBreaker
from repro.serve.calibrate import calibrate_for_serving
from repro.serve.client import ConnectionPool
from repro.serve.config import ServeConfig
from repro.serve.daemon import _Handler, install_signal_handlers, too_large
from repro.serve.plane import (
    MANIFEST_BASENAME,
    file_sha256,
    publish_classifier,
)
from repro.serve.reload import ReloadResult, prepare_classifier
from repro.serve.stats import ServerStats
from repro.serve.worker import READY_PREFIX
from repro.index.shm import new_generation_id

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle at runtime: pipeline imports serve.reload
    from repro.streaming.pipeline import StreamSettings

log = logging.getLogger("repro.serve")


class ForwardError(RuntimeError):
    """A forward failed at the transport layer (no usable response)."""


class ForwardTimeout(ForwardError):
    """A forward exceeded its socket deadline (worker wedged)."""


class WorkerHandle:
    """Router-side state for one worker process.

    Tracks in-flight load (the per-worker admission slots), health as
    seen by the heartbeat loop, and a :class:`ConnectionPool` of
    keep-alive connections to the worker's ephemeral port.
    """

    def __init__(
        self, index: int, process: subprocess.Popen, port: int, capacity: int
    ) -> None:
        self.index = index
        self.process = process
        self.port = port
        self.pid = process.pid
        self.capacity = capacity
        self.started_at = time.monotonic()
        self.healthy = True
        self.missed = 0
        self.restarts = 0  # carried over by the fleet on respawn
        self._lock = threading.Lock()
        self._in_flight = 0
        self.pool = ConnectionPool("127.0.0.1", port, capacity=capacity)

    # -- admission slots ---------------------------------------------------

    def try_acquire(self) -> bool:
        with self._lock:
            if not self.healthy or self._in_flight >= self.capacity:
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def load(self) -> float:
        with self._lock:
            return self._in_flight / max(self.capacity, 1)


class WorkerFleet:
    """Owns the model plane and the worker processes (all the policy).

    The HTTP front (:class:`FleetServer`) is a thin shell over this
    object, mirroring how ``TKDCServer`` carries the single-process
    policy — so tests can drive fleet behaviour without sockets on the
    router side.
    """

    def __init__(
        self,
        model_path: Path | str,
        config: ServeConfig,
        streaming: bool = False,
        stream_settings: StreamSettings | None = None,
        wal_dir: Path | str | None = None,
    ) -> None:
        if config.workers < 2:
            raise ValueError(
                "WorkerFleet needs workers >= 2; use TKDCServer for "
                "single-process serving"
            )
        self.config = config
        self.streaming = bool(streaming)
        self.stream_settings = stream_settings
        self.wal_dir: Path | None = Path(wal_dir) if wal_dir is not None else None
        self.stats = ServerStats()
        self.breaker = CircuitBreaker(
            window=config.breaker_window,
            min_requests=config.breaker_min_requests,
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
            probes=config.breaker_probes,
            on_transition=self._on_breaker_transition,
        )
        self.draining = threading.Event()
        self._started_at = time.monotonic()
        self._stop = threading.Event()
        self._reload_lock = threading.Lock()
        self._handles_lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self.runtime_dir = Path(tempfile.mkdtemp(prefix="tkdc-fleet-"))
        self.live_manifest = self.runtime_dir / MANIFEST_BASENAME

        # Fleet ingest: one worker owns the WAL; the router stamps every
        # forwarded batch with an idempotency key so a same-seq retry
        # after an owner failure can never double-apply.
        if self.streaming and self.wal_dir is None:
            self.wal_dir = self.runtime_dir / "wal"
            log.info(
                "fleet streaming without --wal-dir: using ephemeral WAL "
                "at %s (gone after shutdown)", self.wal_dir,
            )
        self._ingest_lock = threading.Lock()
        # Elections make adopt-ingest HTTP calls (up to 60s per
        # candidate); they serialize on their own lock so seq stamping
        # under _ingest_lock never waits on a slow candidate.
        self._ingest_election_lock = threading.Lock()
        self._ingest_owner: WorkerHandle | None = None
        self._ingest_epoch = f"router-{os.getpid():x}-{os.urandom(6).hex()}"
        self._ingest_seq = 0

        # Load + verify + calibrate ONCE; workers inherit via manifest.
        self.model_path = resolve_model_path(model_path)
        classifier = prepare_classifier(load_model(self.model_path))
        self.calibration = calibrate_for_serving(
            classifier, config.calibration_queries, seed=config.probe_seed
        )
        self.model_sha256 = file_sha256(self.model_path)
        self.threshold = float(classifier.threshold.value)
        self._published = publish_classifier(
            classifier,
            self.model_path,
            self.model_sha256,
            self.calibration,
            generation=new_generation_id(),
        )
        self.generation = self._published.manifest.generation
        self._published.manifest.save(self.live_manifest)

        self._handles: list[WorkerHandle] = []
        try:
            self._spawn_initial_fleet()
        except BaseException:
            self.stop()
            raise
        self._health_thread = threading.Thread(
            target=self._health_loop, name="tkdc-fleet-health", daemon=True
        )
        self._health_thread.start()
        log.info(
            "fleet up: %d workers on generation %s (model %s)",
            len(self._handles), self.generation, self.model_path,
        )
        if self.streaming:
            # Eager election so the first /ingest does not pay the WAL
            # recovery latency; failures here are retried lazily.
            owner = self._ensure_ingest_owner()
            if owner is None:
                log.warning(
                    "no ingest owner elected at boot; will retry on the "
                    "first /ingest request"
                )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _worker_config_json(self) -> str:
        overrides = asdict(self.config)
        overrides.update(host="127.0.0.1", port=0, workers=1)
        return json.dumps(overrides)

    def _launch(self, index: int) -> subprocess.Popen:
        command = [
            sys.executable, "-m", "repro", "serve-worker",
            "--manifest", str(self.live_manifest),
            "--config-json", self._worker_config_json(),
            "--worker-index", str(index),
        ]
        return subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=None, start_new_session=True
        )

    def _await_ready(self, process: subprocess.Popen) -> int:
        """Parse the worker's readiness line; returns its bound port."""
        assert process.stdout is not None
        fd = process.stdout.fileno()
        os.set_blocking(fd, False)
        buffer = b""
        deadline = time.monotonic() + self.config.worker_startup_timeout
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(
                    f"worker pid {process.pid} exited with "
                    f"rc={process.returncode} before announcing readiness"
                )
            readable, __, __ = select.select([fd], [], [], 0.1)
            if not readable:
                continue
            try:
                chunk = os.read(fd, 4096)
            except BlockingIOError:  # pragma: no cover - select said ready
                continue
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                text = line.decode("utf-8", errors="replace").strip()
                if not text.startswith(READY_PREFIX):
                    continue
                fields = dict(
                    token.split("=", 1)
                    for token in text.split()[1:]
                    if "=" in token
                )
                return int(fields["port"])
        raise TimeoutError(
            f"worker pid {process.pid} not ready within "
            f"{self.config.worker_startup_timeout}s"
        )

    def _spawn_worker(self, index: int) -> WorkerHandle:
        process = self._launch(index)
        try:
            port = self._await_ready(process)
        except BaseException:
            self._terminate_process(process)
            raise
        capacity = 1 + self.config.queue_depth
        return WorkerHandle(index, process, port, capacity)

    def _spawn_initial_fleet(self) -> None:
        # Launch everyone first, then collect readiness: startup cost is
        # one worker's import+attach time, not N of them.
        processes = [self._launch(i) for i in range(self.config.workers)]
        capacity = 1 + self.config.queue_depth
        failure: BaseException | None = None
        for index, process in enumerate(processes):
            try:
                port = self._await_ready(process)
            except BaseException as exc:
                failure = exc
                continue
            self._handles.append(WorkerHandle(index, process, port, capacity))
        if failure is not None:
            for process in processes:
                self._terminate_process(process)
            raise RuntimeError(f"fleet startup failed: {failure}") from failure

    @staticmethod
    def _terminate_process(process: subprocess.Popen) -> None:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()

    def _respawn(self, index: int, old: WorkerHandle, reason: str) -> None:
        log.warning(
            "worker %d (pid %d) %s; respawning", index, old.pid, reason
        )
        old.healthy = False
        old.pool.close()
        self._terminate_process(old.process)
        try:
            replacement = self._spawn_worker(index)
        except Exception as exc:
            log.error(
                "respawn of worker %d failed (%s: %s); will retry on the "
                "next heartbeat", index, type(exc).__name__, exc,
            )
            return
        replacement.restarts = old.restarts + 1
        with self._handles_lock:
            position = self._handles.index(old)
            self._handles[position] = replacement
        with self._ingest_lock:
            if self._ingest_owner is old:
                # The dead owner's flock died with it; the next /ingest
                # (or the eager retry below) elects a successor that
                # replays the WAL before answering.
                self._ingest_owner = None

    # ------------------------------------------------------------------
    # Health supervision
    # ------------------------------------------------------------------

    def _health_loop(self) -> None:
        interval = self.config.heartbeat_interval
        while not self._stop.wait(interval):
            if self.draining.is_set():
                return
            with self._handles_lock:
                handles = list(self._handles)
            for handle in handles:
                if self._stop.is_set() or self.draining.is_set():
                    return
                if handle.process.poll() is not None:
                    self._respawn(
                        handle.index, handle,
                        f"exited rc={handle.process.returncode}",
                    )
                    continue
                if self._probe(handle):
                    handle.missed = 0
                    handle.healthy = True
                elif handle.missed + 1 >= self.config.heartbeat_misses:
                    self._respawn(
                        handle.index, handle,
                        f"missed {handle.missed + 1} heartbeats",
                    )
                else:
                    handle.missed += 1
                    handle.healthy = False

    def _probe(self, handle: WorkerHandle) -> bool:
        try:
            status, __ = self._admin_request(
                handle, "GET", "/healthz", timeout=self.config.heartbeat_interval
            )
        except ForwardError:
            return False
        return status == 200

    def _admin_request(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float = 5.0,
    ) -> tuple[int, dict]:
        """One out-of-band exchange with a worker (fresh connection)."""
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection = handle.pool.connect(timeout)
        except OSError as exc:
            raise ForwardError(f"connect: {exc}") from exc
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except socket.timeout as exc:
            raise ForwardTimeout(str(exc)) from exc
        except (OSError, HTTPException) as exc:
            raise ForwardError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"raw": raw.decode("utf-8", errors="replace")}
        return response.status, decoded

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------

    def _acquire_worker(
        self, exclude: WorkerHandle | None = None
    ) -> WorkerHandle | None:
        with self._handles_lock:
            candidates = [h for h in self._handles if h is not exclude]
        for handle in sorted(candidates, key=WorkerHandle.load):
            if handle.try_acquire():
                return handle
        return None

    def _forward_classify(
        self, handle: WorkerHandle, raw: bytes
    ) -> tuple[int, dict]:
        timeout = self.config.max_deadline + self.config.watchdog_grace + 5.0
        try:
            status, data = handle.pool.request(
                "POST", "/classify", raw,
                {"Content-Type": "application/json"},
                timeout=timeout, retry_safe=True,
            )
        except socket.timeout as exc:
            raise ForwardTimeout(f"worker {handle.index} timed out") from exc
        except (OSError, HTTPException) as exc:
            raise ForwardError(
                f"worker {handle.index}: {type(exc).__name__}: {exc}"
            ) from exc
        try:
            payload = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"raw": data.decode("utf-8", errors="replace")}
        return status, payload

    def _note_transport_failure(self, handle: WorkerHandle) -> None:
        # Route around the worker immediately; the heartbeat loop decides
        # whether it is actually dead (respawn) or just hiccuped
        # (healthy again on the next successful probe).
        handle.healthy = False

    def _retry_after(self) -> float:
        with self._handles_lock:
            capacity = sum(h.capacity for h in self._handles) or 1
            backlog = sum(h.in_flight() for h in self._handles)
        return round(self.config.retry_after * (1.0 + backlog / capacity), 3)

    # ------------------------------------------------------------------
    # Ingest ownership + fan-in
    # ------------------------------------------------------------------

    def _settings_payload(self) -> dict:
        from repro.streaming.pipeline import StreamSettings

        settings = self.stream_settings
        if settings is None:
            settings = StreamSettings()
        return asdict(settings)

    def _ensure_ingest_owner(self) -> WorkerHandle | None:
        """The current ingest owner, electing one if none is live.

        Ownership is enforced by the WAL's flock, not by router state:
        the router merely remembers who last adopted successfully. A
        ``wal_locked`` 409 from a candidate means the previous owner
        process still holds the log — in that case the router keeps
        routing to it rather than splitting the brain.
        """
        if not self.streaming or self.wal_dir is None:
            return None
        owner = self._live_ingest_owner()
        if owner is not None:
            return owner
        with self._ingest_election_lock:
            # Concurrent requests wait here for ONE election; whoever
            # lost the race to this lock finds the winner installed.
            owner = self._live_ingest_owner()
            if owner is not None:
                return owner
            return self._elect_ingest_owner()

    def _live_ingest_owner(self) -> WorkerHandle | None:
        with self._ingest_lock:
            owner = self._ingest_owner
        if (
            owner is not None
            and owner.healthy
            and owner.process.poll() is None
        ):
            return owner
        return None

    def _elect_ingest_owner(self) -> WorkerHandle | None:
        """Run one owner election (the election lock is held).

        Only the owner-pointer reads/writes take ``_ingest_lock``; the
        adopt-ingest round trips happen outside it so ingest requests
        keep stamping seqs while a candidate is slow to answer.
        """
        body = {
            "wal_dir": str(self.wal_dir),
            "settings": self._settings_payload(),
            "start": False,
        }
        with self._handles_lock:
            handles = list(self._handles)
        # Prefer healthy workers but fall through to unprobed ones: a
        # freshly respawned worker may not have passed a heartbeat yet.
        candidates = sorted(handles, key=lambda h: not h.healthy)
        with self._ingest_lock:
            previous = self._ingest_owner
        for handle in candidates:
            if handle.process.poll() is not None:
                continue
            try:
                # Adoption replays the WAL before answering; give it
                # real time rather than the 5s admin default.
                status, payload = self._admin_request(
                    handle, "POST", "/admin/adopt-ingest",
                    body=body, timeout=60.0,
                )
            except ForwardError as exc:
                log.warning(
                    "adopt-ingest to worker %d failed in transport: %s",
                    handle.index, exc,
                )
                continue
            if status == 200:
                with self._ingest_lock:
                    self._ingest_owner = handle
                if handle is not previous:
                    recovery = payload.get("recovery") or {}
                    log.info(
                        "worker %d is the ingest owner for %s "
                        "(status=%s, replayed %s records / %s points)",
                        handle.index, self.wal_dir, payload.get("status"),
                        recovery.get("records_replayed", 0),
                        recovery.get("points_replayed", 0),
                    )
                return handle
            if status == 409 and payload.get("error") == "wal_locked":
                # Someone still holds the flock. If it is our recorded
                # owner and its process is alive, keep using it.
                if (
                    previous is not None
                    and previous.process.poll() is None
                ):
                    with self._ingest_lock:
                        self._ingest_owner = previous
                    return previous
                continue
            log.warning(
                "worker %d refused adopt-ingest: %s %s",
                handle.index, status, payload.get("error") or payload,
            )
        return None

    def handle_ingest(self, raw: bytes) -> tuple[int, dict]:
        """Forward one ingest batch to the elected owner.

        Mirrors the single-process accounting invariant at the router:
        ``ingest_submitted == ingest_completed + ingest_rejected``. The
        router stamps each batch with a ``(source, seq)`` idempotency
        key before forwarding, so the one same-seq retry after an owner
        failure is a no-op if the first attempt reached the WAL.
        """
        stats = self.stats
        stats.bump("ingest_submitted")
        if not self.streaming:
            stats.bump("ingest_rejected")
            return 409, {
                "error": "no_streaming_pipeline",
                "detail": "this fleet was started without --streaming",
            }
        if self.draining.is_set():
            stats.bump("ingest_rejected")
            return 503, {"error": "draining"}
        if len(raw) > self.config.max_request_bytes:
            stats.bump("ingest_rejected")
            return 413, too_large(self.config.max_request_bytes, len(raw))
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            stats.bump("ingest_rejected")
            return 400, {
                "error": "bad_request", "detail": f"invalid JSON: {exc}",
            }
        if not isinstance(body, dict):
            stats.bump("ingest_rejected")
            return 400, {
                "error": "bad_request", "detail": "body must be a JSON object",
            }
        owner = self._ensure_ingest_owner()
        if owner is None:
            stats.bump("ingest_rejected")
            retry = self._retry_after()
            return 503, {
                "error": "no_ingest_owner",
                "detail": "no worker could adopt the ingest WAL",
                "retry_after": retry,
            }
        with self._ingest_lock:
            self._ingest_seq += 1
            body["batch"] = {
                "source": self._ingest_epoch, "seq": self._ingest_seq,
            }
        status, payload, served_by = self._forward_ingest(owner, body)
        if served_by is None:
            stats.bump("ingest_rejected")
            return status, payload
        if status == 200:
            stats.bump("ingest_completed")
            accepted = payload.get("ingested")
            if isinstance(accepted, int) and accepted > 0:
                stats.bump("ingested_points", accepted)
        else:
            stats.bump("ingest_rejected")
        payload.setdefault("worker", served_by.index)
        return status, payload

    def _forward_ingest(
        self, owner: WorkerHandle, body: dict
    ) -> tuple[int, dict, WorkerHandle | None]:
        """Forward with ONE same-seq retry after owner re-election.

        The retry reuses the idempotency key stamped by the caller: if
        the first attempt was durably appended before the owner died,
        the successor's WAL replay restored the watermark and the retry
        answers ``duplicate: true`` instead of double-counting.
        """
        try:
            status, payload = self._admin_request(
                owner, "POST", "/ingest", body=body, timeout=30.0,
            )
            return status, payload, owner
        except ForwardError as exc:
            # Route around the owner; if it was killed, its flock died
            # with it and the election below installs a successor that
            # replays the WAL first. If it merely hiccuped, the election
            # finds it again (already_owner / wal_locked) and the retry
            # runs on a fresh connection.
            first_error = exc
            self._note_transport_failure(owner)
        successor = self._ensure_ingest_owner()
        if successor is None:
            return 503, {
                "error": "no_ingest_owner",
                "detail": f"owner failed ({first_error}); no successor",
            }, None
        try:
            status, payload = self._admin_request(
                successor, "POST", "/ingest", body=body, timeout=30.0,
            )
        except ForwardError as exc:
            self._note_transport_failure(successor)
            return 503, {
                "error": "no_ingest_owner",
                "detail": f"owner failed ({first_error}); retry: {exc}",
            }, None
        log.info(
            "ingest takeover: worker %d -> %d (%s)",
            owner.index, successor.index, first_error,
        )
        return status, payload, successor

    def handle_classify(
        self, raw: bytes, received_at: float
    ) -> tuple[int, dict, dict]:
        """Route one classify; exactly one terminal counter per submit."""
        stats = self.stats
        stats.bump("submitted")
        if self.draining.is_set():
            stats.bump("drained")
            retry = self._retry_after()
            return 503, {"error": "draining", "retry_after": retry}, {
                "Retry-After": retry,
            }
        if len(raw) > self.config.max_request_bytes:
            stats.bump("rejected")
            return 413, too_large(self.config.max_request_bytes, len(raw)), {}
        mode = self.breaker.admit()
        if mode == MODE_DEGRADED:
            # Fleet transport is sick: shed fast instead of queueing
            # sockets against workers that are not answering.
            stats.bump("shed")
            retry = self._retry_after()
            return 429, {
                "error": "fleet_unhealthy",
                "retry_after": retry,
                "breaker": self.breaker.state,
            }, {"Retry-After": retry}
        handle = self._acquire_worker()
        if handle is None:
            stats.bump("shed")
            retry = self._retry_after()
            return 429, {
                "error": "overloaded",
                "retry_after": retry,
            }, {"Retry-After": retry}
        served_by = handle
        try:
            try:
                status, payload = self._forward_classify(handle, raw)
            except ForwardTimeout as exc:
                stats.bump("timed_out")
                self.breaker.record(True, mode)
                return 503, {
                    "error": "watchdog_timeout",
                    "detail": str(exc),
                    "worker": handle.index,
                }, {}
            except ForwardError as exc:
                self._note_transport_failure(handle)
                status, payload, served_by = self._failover(
                    raw, handle, exc, mode
                )
                if served_by is None:
                    return status, payload, {}
        finally:
            handle.release()
        self.breaker.record(status >= 500, mode)
        self._account_terminal(status, payload, received_at)
        payload.setdefault("worker", served_by.index)
        return status, payload, {}

    def _failover(
        self,
        raw: bytes,
        failed: WorkerHandle,
        error: ForwardError,
        mode: str,
    ) -> tuple[int, dict, WorkerHandle | None]:
        """One retry on a different worker after a transport failure.

        Classification is idempotent and the failed attempt never
        produced a response, so the retry cannot double-answer; this is
        what makes a mid-request worker kill invisible to clients.
        """
        fallback = self._acquire_worker(exclude=failed)
        if fallback is None:
            self.stats.bump("errors")
            self.breaker.record(True, mode)
            retry = self._retry_after()
            return 503, {
                "error": "no_worker_available",
                "detail": str(error),
                "retry_after": retry,
            }, None
        try:
            try:
                status, payload = self._forward_classify(fallback, raw)
            except ForwardError as exc:
                self._note_transport_failure(fallback)
                self.stats.bump("errors")
                self.breaker.record(True, mode)
                return 503, {
                    "error": "no_worker_available",
                    "detail": f"{error}; retry: {exc}",
                }, None
        finally:
            fallback.release()
        log.info(
            "failover: worker %d -> %d (%s)",
            failed.index, fallback.index, error,
        )
        return status, payload, fallback

    def _account_terminal(
        self, status: int, payload: dict, received_at: float
    ) -> None:
        stats = self.stats
        if status == 200:
            stats.bump("completed")
            if payload.get("degraded_any"):
                stats.bump("degraded")
            if any(payload.get("uncertain") or ()):
                stats.bump("uncertain")
            stats.observe_latency(time.monotonic() - received_at)
        elif status == 429:
            stats.bump("shed")
        elif status in (400, 413):
            stats.bump("rejected")
        elif status == 503:
            # Worker-side deadline/watchdog expiry (a worker drain 503
            # cannot happen outside a fleet drain, which is caught above).
            stats.bump("timed_out")
        else:
            stats.bump("errors")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        with self._handles_lock:
            healthy = sum(1 for h in self._handles if h.healthy)
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self.config.workers,
            "workers_healthy": healthy,
        }

    def readyz(self) -> tuple[bool, dict]:
        if self.draining.is_set():
            return False, {"status": "draining"}
        with self._handles_lock:
            healthy = sum(1 for h in self._handles if h.healthy)
        if healthy == 0:
            return False, {"status": "no_healthy_workers"}
        return True, {
            "status": "ready",
            "model_path": str(self.model_path),
            "workers_healthy": healthy,
        }

    def _scrape_worker_stats(self, handle: WorkerHandle) -> dict | None:
        try:
            status, payload = self._admin_request(
                handle, "GET", "/statz", timeout=2.0
            )
        except ForwardError:
            return None
        return payload if status == 200 else None

    def statz(self) -> dict:
        snapshot = self.stats.snapshot()
        workers = []
        aggregate: dict[str, int] = {}
        with self._handles_lock:
            handles = list(self._handles)
        for handle in handles:
            info = {
                "index": handle.index,
                "pid": handle.pid,
                "port": handle.port,
                "healthy": handle.healthy,
                "in_flight": handle.in_flight(),
                "capacity": handle.capacity,
                "restarts": handle.restarts,
                "uptime_s": round(time.monotonic() - handle.started_at, 3),
            }
            scraped = self._scrape_worker_stats(handle)
            if scraped is not None:
                info["stats"] = scraped
                for name in ServerStats.COUNTER_NAMES:
                    value = scraped.get(name)
                    if isinstance(value, int):
                        aggregate[name] = aggregate.get(name, 0) + value
            workers.append(info)
        snapshot.update({
            "build": build_info(),
            "breaker": self.breaker.state,
            "breaker_failure_rate": round(self.breaker.failure_rate(), 4),
            "draining": self.draining.is_set(),
            "model_path": str(self.model_path),
            "model_sha256": self.model_sha256,
            "threshold": self.threshold,
            "expansions_per_second": self.calibration.expansions_per_second,
            "calibration_measured": self.calibration.measured,
            "engine": self.calibration.engine,
            "engine_reason": self.calibration.engine_reason,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "fleet": {
                "workers": self.config.workers,
                "workers_healthy": sum(1 for h in handles if h.healthy),
                "generation": self.generation,
                "worker_totals": aggregate,
                "streaming": self.streaming,
                "wal_dir": str(self.wal_dir) if self.wal_dir else None,
                "ingest_owner": (
                    self._ingest_owner.index
                    if self._ingest_owner is not None else None
                ),
                "ingest_epoch": self._ingest_epoch if self.streaming else None,
                "ingest_seq": self._ingest_seq,
            },
            "workers": workers,
        })
        return snapshot

    def metrics_text(self) -> str:
        """Router accounting plus per-worker gauges/counters.

        The router's registry covers the fleet-wide request accounting
        (the cells ``/statz`` reads); worker-local counters are scraped
        and re-exposed under ``tkdc_fleet_worker_*`` so one Prometheus
        target covers the whole fleet.
        """
        lines = [render_prometheus(self.stats.registry).rstrip("\n")]
        with self._handles_lock:
            handles = list(self._handles)
        up_lines, restart_lines, event_lines = [], [], []
        for handle in handles:
            label = f'worker="{handle.index}"'
            up_lines.append(
                f"tkdc_fleet_worker_up{{{label}}} {1 if handle.healthy else 0}"
            )
            restart_lines.append(
                f"tkdc_fleet_worker_restarts_total{{{label}}} {handle.restarts}"
            )
            scraped = self._scrape_worker_stats(handle)
            if scraped is None:
                continue
            for name in ServerStats.COUNTER_NAMES:
                value = scraped.get(name)
                if isinstance(value, int):
                    event_lines.append(
                        f'tkdc_fleet_worker_events_total{{{label},'
                        f'event="{name}"}} {value}'
                    )
        lines += [
            "# HELP tkdc_fleet_worker_up Worker health as seen by the router",
            "# TYPE tkdc_fleet_worker_up gauge",
            *up_lines,
            "# HELP tkdc_fleet_worker_restarts_total Times each worker "
            "slot was respawned",
            "# TYPE tkdc_fleet_worker_restarts_total counter",
            *restart_lines,
            "# HELP tkdc_fleet_worker_events_total Worker-local serve "
            "accounting events",
            "# TYPE tkdc_fleet_worker_events_total counter",
            *event_lines,
        ]
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Reload
    # ------------------------------------------------------------------

    def reload(self, path: Path | str | None = None) -> ReloadResult:
        """Fleet hot reload: publish → canary one worker → roll out →
        atomic manifest swap → unlink the old generation.

        Any failure unlinks the candidate segments and re-attaches any
        already-swapped worker to the live generation — the fleet always
        converges to one generation.
        """
        with self._reload_lock:
            return self._reload_locked(path)

    def _reload_locked(self, path: Path | str | None) -> ReloadResult:
        requested = path if path is not None else self.model_path
        try:
            candidate_path = resolve_model_path(requested)
            classifier = prepare_classifier(load_model(candidate_path))
        except Exception as exc:
            return self._refused(requested, "load", exc)
        calibration = calibrate_for_serving(
            classifier, self.config.calibration_queries,
            seed=self.config.probe_seed,
        )
        generation = new_generation_id()
        published = publish_classifier(
            classifier,
            candidate_path,
            file_sha256(candidate_path),
            calibration,
            generation=generation,
        )
        candidate_manifest = self.runtime_dir / f"MANIFEST-{generation}.json"
        published.manifest.save(candidate_manifest)
        with self._handles_lock:
            targets = [h for h in self._handles if h.healthy]
        if not targets:
            published.unlink()
            candidate_manifest.unlink(missing_ok=True)
            return self._refused(
                candidate_path, "canary", RuntimeError("no healthy workers")
            )
        swapped: list[WorkerHandle] = []
        # Canary is just the first rollout target: if the generation is
        # bad, exactly one worker saw it and it refused the swap.
        for position, handle in enumerate(targets):
            stage = "canary" if position == 0 else "rollout"
            try:
                status, body = self._admin_request(
                    handle, "POST", "/admin/reload",
                    body={"path": str(candidate_manifest)}, timeout=30.0,
                )
            except ForwardError as exc:
                status, body = 0, {"error": str(exc)}
            if status != 200 or not body.get("ok", False):
                self._rollback(swapped)
                published.unlink()
                candidate_manifest.unlink(missing_ok=True)
                return self._refused(
                    candidate_path, stage,
                    RuntimeError(
                        f"worker {handle.index} refused: "
                        f"{body.get('error') or body}"
                    ),
                )
            swapped.append(handle)
        # Every healthy worker is on the new generation: commit. The
        # atomic rename is what respawned workers will read.
        os.replace(candidate_manifest, self.live_manifest)
        old_published = self._published
        self._published = published
        self.generation = generation
        self.model_path = Path(candidate_path)
        self.model_sha256 = published.manifest.model_sha256
        self.threshold = float(classifier.threshold.value)
        self.calibration = calibration
        # Unlink removes the names; workers still mid-request on the old
        # mappings keep them until their views die (POSIX semantics).
        old_published.unlink()
        self.stats.bump("reloads_ok")
        log.info(
            "fleet reload swapped in %s (generation %s) on %d workers",
            candidate_path, generation, len(swapped),
        )
        return ReloadResult(
            ok=True,
            stage="swapped",
            model_path=str(candidate_path),
            threshold=self.threshold,
            expansions_per_second=calibration.expansions_per_second,
            engine=calibration.engine,
            engine_reason=calibration.engine_reason,
        )

    def _rollback(self, swapped: list[WorkerHandle]) -> None:
        for handle in swapped:
            try:
                self._admin_request(
                    handle, "POST", "/admin/reload",
                    body={"path": str(self.live_manifest)}, timeout=30.0,
                )
            except ForwardError as exc:
                log.error(
                    "rollback reload of worker %d failed (%s); heartbeat "
                    "supervision will respawn it on the live generation",
                    handle.index, exc,
                )

    def _refused(
        self, path: Path | str, stage: str, exc: Exception
    ) -> ReloadResult:
        self.stats.bump("reloads_failed")
        log.error(
            "fleet reload REFUSED at %s stage for %s: %s: %s "
            "(generation %s keeps serving)",
            stage, path, type(exc).__name__, exc, self.generation,
        )
        return ReloadResult(
            ok=False,
            stage=stage,
            model_path=str(path),
            error=f"{type(exc).__name__}: {exc}",
        )

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------

    def attach_server(self, server: ThreadingHTTPServer) -> None:
        self._server = server

    def initiate_drain(self) -> None:
        if self.draining.is_set():
            return
        self.draining.set()
        log.info("fleet drain initiated")
        threading.Thread(
            target=self._drain_and_shutdown, name="tkdc-fleet-drain",
            daemon=True,
        ).start()

    def _drain_and_shutdown(self) -> None:
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline and self.stats.in_flight() > 0:
            time.sleep(0.02)
        leftover = self.stats.in_flight()
        if leftover:
            log.warning(
                "fleet drain timeout: %d requests still in flight", leftover
            )
        else:
            log.info("fleet drained cleanly")
        if self._server is not None:
            self._server.shutdown()

    def stop(self) -> None:
        """Tear the fleet down: workers, segments, manifests. Idempotent."""
        self._stop.set()
        with self._handles_lock:
            handles, self._handles = self._handles, []
        for handle in handles:
            handle.pool.close()
            if handle.process.poll() is None:
                try:
                    handle.process.send_signal(signal.SIGTERM)
                except OSError:  # pragma: no cover - already gone
                    pass
        for handle in handles:
            self._terminate_process(handle.process)
        published = getattr(self, "_published", None)
        if published is not None:
            published.unlink()
        shutil.rmtree(self.runtime_dir, ignore_errors=True)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.stats.record_breaker_transition(old, new)
        log.warning("fleet circuit breaker %s -> %s", old, new)


class FleetServer(ThreadingHTTPServer):
    """HTTP front for a :class:`WorkerFleet`.

    Presents the exact endpoint surface of :class:`TKDCServer` (same
    handler class), so every client — the CLI, the smoke script, the
    soak tests — speaks to a fleet without changes.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, fleet: WorkerFleet) -> None:
        self.fleet = fleet
        self.serve_config = fleet.config
        self.stats = fleet.stats
        self.draining = fleet.draining
        super().__init__((fleet.config.host, fleet.config.port), _Handler)
        fleet.attach_server(self)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def healthz(self) -> dict:
        return self.fleet.healthz()

    def readyz(self) -> tuple[bool, dict]:
        return self.fleet.readyz()

    def statz(self) -> dict:
        return self.fleet.statz()

    def metrics_text(self) -> str:
        return self.fleet.metrics_text()

    def reject_oversized(self, length: int) -> tuple[int, dict]:
        self.stats.bump("submitted")
        self.stats.bump("rejected")
        return 413, too_large(self.serve_config.max_request_bytes, length)

    def handle_classify(
        self, raw: bytes, received_at: float
    ) -> tuple[int, dict, dict]:
        return self.fleet.handle_classify(raw, received_at)

    def reject_oversized_ingest(self, length: int) -> tuple[int, dict]:
        self.stats.bump("ingest_submitted")
        self.stats.bump("ingest_rejected")
        return 413, too_large(self.serve_config.max_request_bytes, length)

    def handle_ingest(self, raw: bytes) -> tuple[int, dict]:
        return self.fleet.handle_ingest(raw)

    def handle_adopt_ingest(self, raw: bytes) -> tuple[int, dict]:
        # Ownership is a worker-side protocol; the router is never a
        # valid adoption target.
        return 409, {
            "error": "router_not_adoptable",
            "detail": "POST /admin/adopt-ingest to a worker, not the router",
        }

    def handle_reload(self, raw: bytes) -> tuple[int, dict]:
        path: str | None = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
                path = body.get("path") if isinstance(body, dict) else None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {
                    "error": "bad_request", "detail": f"invalid JSON: {exc}",
                }
        result = self.fleet.reload(path)
        return (200 if result.ok else 500), result.as_dict()

    def reload_model(self, path: str | Path | None = None) -> ReloadResult:
        return self.fleet.reload(path)

    def initiate_drain(self) -> None:
        self.fleet.initiate_drain()


def serve_fleet(
    model_path: str | Path,
    config: ServeConfig,
    install_signals: bool = True,
    streaming: bool = False,
    stream_settings: StreamSettings | None = None,
    wal_dir: Path | str | None = None,
) -> int:
    """Start the router + worker fleet and block until drained.

    The ``repro serve --workers N`` entry point. Returns 0 after a
    graceful shutdown. With ``streaming=True`` the router elects one
    worker as the ingest owner over ``wal_dir`` and forwards ``/ingest``
    there; owner death triggers re-election with WAL replay, so every
    acknowledged batch survives a kill.
    """
    fleet = WorkerFleet(
        model_path, config,
        streaming=streaming, stream_settings=stream_settings, wal_dir=wal_dir,
    )
    try:
        server = FleetServer(fleet)
    except BaseException:
        fleet.stop()
        raise
    if install_signals:
        install_signal_handlers(server)
    print(
        f"tkdc fleet serving {fleet.model_path} on "
        f"http://{config.host}:{server.port} with {config.workers} workers "
        f"(generation {fleet.generation}, threshold={fleet.threshold:.6g}, "
        f"{fleet.calibration.expansions_per_second:.3g} expansions/s, "
        f"engine={fleet.calibration.engine}); "
        "SIGTERM drains, SIGHUP reloads",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        fleet.stop()
    print("tkdc fleet stopped", flush=True)
    return 0
