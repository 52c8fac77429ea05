"""The resilient tKDC serving daemon (stdlib-only HTTP).

Four robustness layers wrap every classification request:

1. **Admission control** — one request classifies at a time, on the
   process's standing classify worker (:class:`ClassifyWorker`; two
   classifying threads in one process only trade the GIL, so more
   parallelism comes from the fleet's processes); up to
   ``queue_depth`` more wait. Anything beyond that is shed
   *immediately* with a structured 429 carrying ``retry_after``, so
   overload degrades throughput instead of latency. Per-request byte
   and row limits reject oversized work before it costs anything.
2. **Deadline propagation** — each request carries ``deadline_ms``
   (bounded by ``max_deadline``). The remaining deadline at execution
   start is translated into a per-query ``max_node_expansions`` anytime
   budget through the startup-calibrated expansions/sec rate, so the
   traversal *finishes early with honest partial answers*
   (``degraded``/``UNCERTAIN`` flags from ``classify_detailed``) rather
   than blowing the deadline. A hard watchdog converts a wedged handler
   into a 503 at ``deadline + watchdog_grace``.
3. **Circuit breaking** — per-request errors and exact-O(n) guard
   fallbacks feed a closed/open/half-open breaker
   (:mod:`repro.serve.breaker`). Open state serves fast degraded
   answers (tiny budget); half-open probes test recovery.
4. **Verified hot reload + graceful drain** — ``SIGHUP`` or
   ``POST /admin/reload`` runs the checksum + canary reload protocol
   (:mod:`repro.serve.reload`); failures roll back. ``SIGTERM`` (or
   ``POST /admin/drain``) stops admitting, waits for in-flight work,
   then shuts the listener down.

``/healthz``, ``/readyz``, and ``/statz`` expose liveness, readiness,
and the full counter set; ``/metrics`` serves the same counters (plus
latency and node-expansion histograms) in Prometheus text format from
the shared metrics registry (see ``docs/observability.md``). Endpoint
reference: ``docs/serving.md``.
"""

from __future__ import annotations

import json
import logging
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro.obs.buildinfo import build_info
from repro.obs.registry import REGISTRY, render_prometheus
from repro.serve.breaker import MODE_DEGRADED, CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.reload import ModelManager
from repro.serve.stats import ServerStats

log = logging.getLogger("repro.serve")

#: Seconds a connection's handler thread waits on a socket read or write
#: (between keep-alive requests, or inside one) before it closes the
#: connection and exits, so an abandoned keep-alive client cannot pin a
#: thread. A pooled client's next safe request is retried once on a fresh
#: connection (:class:`repro.serve.client.ConnectionPool`).
IDLE_TIMEOUT_S = 60.0


def too_large(max_request_bytes: int, received_bytes: int) -> dict:
    """The 413 payload for a body over ``max_request_bytes``."""
    return {
        "error": "request_too_large",
        "max_request_bytes": max_request_bytes,
        "received_bytes": received_bytes,
    }


class AdmissionController:
    """Bounded-queue admission: a capacity gate plus one execution slot.

    ``try_admit`` is the load-shedding decision (capacity = the slot
    plus the queue depth); ``acquire_slot`` is the queue wait for the
    execution slot — the process's one classify worker — bounded by the
    request's own remaining deadline.
    """

    def __init__(self, queue_depth: int) -> None:
        self.capacity = 1 + queue_depth
        self._lock = threading.Lock()
        self._admitted = 0
        self._slot = threading.Lock()

    def try_admit(self) -> bool:
        with self._lock:
            if self._admitted >= self.capacity:
                return False
            self._admitted += 1
            return True

    def acquire_slot(self, timeout: float) -> bool:
        return self._slot.acquire(timeout=max(timeout, 0.0))

    def release(self, slot_held: bool) -> None:
        if slot_held:
            self._slot.release()
        with self._lock:
            self._admitted -= 1

    def admitted(self) -> int:
        with self._lock:
            return self._admitted


class ClassifyWorker:
    """The one standing thread that runs a daemon's classify jobs.

    A traversal makes hundreds of small numpy calls, so two threads
    classifying in one process pass the GIL back and forth on every
    call and finish later than one thread running both in turn. The
    admission controller's single slot keeps at most one job here.

    ``run`` hands a job to the thread and waits at most ``timeout``
    seconds. A job that overruns is abandoned: a replacement thread
    takes the next job, and the generation check makes the wedged
    thread exit if its job ever returns.
    """

    def __init__(self) -> None:
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._generation = 0
        self._start()

    def _start(self) -> None:
        threading.Thread(
            target=self._loop, args=(self._generation,),
            name="tkdc-classify", daemon=True,
        ).start()

    def _loop(self, generation: int) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            job()
            with self._lock:
                if generation != self._generation:
                    return

    def run(self, job, timeout: float) -> bool:
        """Run ``job()`` on the worker; False when it overran ``timeout``."""
        done = threading.Event()

        def wrapped() -> None:
            try:
                job()
            finally:
                done.set()

        self._jobs.put(wrapped)
        if done.wait(timeout):
            return True
        with self._lock:
            if done.is_set():
                return True
            self._generation += 1
            self._start()
        return False

    def stop(self) -> None:
        """Let the idle worker exit (a wedged one exits when it returns)."""
        self._jobs.put(None)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server object; all policy lives there."""

    server: "TKDCServer"
    protocol_version = "HTTP/1.1"
    # Small request/response pairs on keep-alive connections are exactly
    # the Nagle/delayed-ACK interaction case; answer latency should be
    # classify time, not TCP timer time. Matters doubly for the fleet
    # router's extra loopback hop (repro.serve.router).
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """Socket timeout ``StreamRequestHandler.setup`` applies: the idle limit."""
        return IDLE_TIMEOUT_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, str(value))
        if self.close_connection:
            # Tell keep-alive clients to drop this connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, self.server.healthz())
        elif self.path == "/readyz":
            ready, payload = self.server.readyz()
            self._send_json(200 if ready else 503, payload)
        elif self.path == "/statz":
            self._send_json(200, self.server.statz())
        elif self.path == "/metrics":
            self._send_text(
                200, self.server.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        received_at = time.monotonic()
        length = int(self.headers.get("Content-Length") or 0)
        limit = self.server.serve_config.max_request_bytes
        if length > limit:
            # Refuse without reading the oversized body; the unread
            # bytes make the connection unusable, so close it.
            self.close_connection = True
            if self.path == "/classify":
                status, payload = self.server.reject_oversized(length)
            elif self.path == "/ingest":
                status, payload = self.server.reject_oversized_ingest(length)
            else:
                status, payload = 413, too_large(limit, length)
            self._send_json(status, payload)
            return
        # Every path reads its declared body, so the next request on a
        # keep-alive connection starts at its own first byte.
        raw = self.rfile.read(length) if length else b""
        if self.path == "/classify":
            status, payload, headers = self.server.handle_classify(raw, received_at)
            self._send_json(status, payload, headers)
        elif self.path == "/ingest":
            status, payload = self.server.handle_ingest(raw)
            self._send_json(status, payload)
        elif self.path == "/admin/reload":
            status, payload = self.server.handle_reload(raw)
            self._send_json(status, payload)
        elif self.path == "/admin/adopt-ingest":
            status, payload = self.server.handle_adopt_ingest(raw)
            self._send_json(status, payload)
        elif self.path == "/admin/drain":
            self.server.initiate_drain()
            self._send_json(202, {
                "status": "draining",
                "drain_timeout": self.server.serve_config.drain_timeout,
            })
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})


class TKDCServer(ThreadingHTTPServer):
    """Threaded HTTP server wrapping a :class:`ModelManager`.

    One OS thread per connection (stdlib ``ThreadingHTTPServer``);
    classification runs on the one standing :class:`ClassifyWorker`,
    whose slot the admission controller hands out, whatever the thread
    count. All handler logic lives in methods here so
    tests can drive the policy layer without sockets too.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        manager: ModelManager,
        serve_config: ServeConfig | None = None,
        stats: ServerStats | None = None,
    ) -> None:
        config = serve_config if serve_config is not None else manager.config
        self.serve_config = config
        self.manager = manager
        self.stats = stats if stats is not None else manager.stats
        self.admission = AdmissionController(config.queue_depth)
        self.classify_worker = ClassifyWorker()
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
        #: Optional streaming pipeline behind /ingest (attach_pipeline).
        self.pipeline = None
        super().__init__((config.host, config.port), _Handler)

    def attach_pipeline(self, pipeline, start: bool = True) -> None:
        """Enable /ingest: fold points into ``pipeline`` and (optionally)
        start its background drift-check loop.

        The pipeline's reloader should be this server's manager so
        drift-triggered refits swap the *served* model through the
        verified reload path.
        """
        self.pipeline = pipeline
        if start:
            pipeline.start()

    @property
    def port(self) -> int:
        """The actually bound port (resolves port 0 to the ephemeral one)."""
        return self.server_address[1]

    def server_close(self) -> None:
        super().server_close()
        self.classify_worker.stop()

    # ------------------------------------------------------------------
    # Observability endpoints
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    def readyz(self) -> tuple[bool, dict]:
        if self.draining.is_set():
            return False, {"status": "draining"}
        return True, {
            "status": "ready",
            "model_path": str(self.manager.model_path),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition: serve counters + process metrics.

        Merges the server's own registry (request accounting, latency
        histogram) with the process-wide one (traversal, guard, and
        bootstrap instruments recorded by the classifier running inside
        this daemon). Both feed off the same cells ``/statz`` reads, so
        the two endpoints cannot disagree.
        """
        registries = (
            (self.stats.registry,)
            if self.stats.registry is REGISTRY
            else (self.stats.registry, REGISTRY)
        )
        return render_prometheus(*registries)

    def statz(self) -> dict:
        snapshot = self.stats.snapshot()
        snapshot.update({
            "build": build_info(),
            "breaker": self.breaker.state,
            "breaker_failure_rate": round(self.breaker.failure_rate(), 4),
            "draining": self.draining.is_set(),
            "admitted": self.admission.admitted(),
            "queue_capacity": self.admission.capacity,
            "model_path": str(self.manager.model_path),
            "threshold": float(self.manager.classifier.threshold.value),
            "expansions_per_second": self.manager.calibration.expansions_per_second,
            "calibration_measured": self.manager.calibration.measured,
            "engine": self.manager.calibration.engine,
            "engine_reason": self.manager.calibration.engine_reason,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "traversal": self.manager.traversal_snapshot(),
        })
        if self.pipeline is not None:
            snapshot["streaming"] = self.pipeline.status()
        return snapshot

    # ------------------------------------------------------------------
    # Classification pipeline
    # ------------------------------------------------------------------

    def reject_oversized(self, length: int) -> tuple[int, dict]:
        """Terminal accounting for a body refused before it was read."""
        self.stats.bump("submitted")
        self.stats.bump("rejected")
        return 413, too_large(self.serve_config.max_request_bytes, length)

    def reject_oversized_ingest(self, length: int) -> tuple[int, dict]:
        """Terminal accounting for an ingest body refused unread."""
        self.stats.bump("ingest_submitted")
        self.stats.bump("ingest_rejected")
        return 413, too_large(self.serve_config.max_request_bytes, length)

    def handle_ingest(self, raw: bytes) -> tuple[int, dict]:
        """Fold a batch of points into the attached streaming pipeline.

        Accounting: every request increments ``ingest_submitted`` and
        exactly one of ``ingest_completed`` / ``ingest_rejected``;
        accepted rows also bump ``ingested_points``. Draining servers
        refuse ingest like everything else.
        """
        stats = self.stats
        stats.bump("ingest_submitted")
        if self.pipeline is None:
            stats.bump("ingest_rejected")
            return 409, {
                "error": "no_streaming_pipeline",
                "detail": "this server was started without --streaming",
            }
        if self.draining.is_set():
            stats.bump("ingest_rejected")
            return 503, {"error": "draining"}
        if len(raw) > self.serve_config.max_request_bytes:
            stats.bump("ingest_rejected")
            return 413, too_large(self.serve_config.max_request_bytes, len(raw))
        try:
            points, _deadline, body = self._parse_request(raw)
        except _BadRequest as exc:
            stats.bump("ingest_rejected")
            return exc.status, exc.payload
        source: str | None = None
        source_seq: int | None = None
        batch = body.get("batch")
        if batch is not None:
            # Idempotency key stamped by the fleet router: a retried
            # forward after an owner failure reuses the same (source,
            # seq), so the WAL-replayed dedup state makes it a no-op.
            if (
                not isinstance(batch, dict)
                or not isinstance(batch.get("source"), str)
                or not isinstance(batch.get("seq"), int)
            ):
                stats.bump("ingest_rejected")
                return 400, {
                    "error": "bad_request",
                    "detail": "'batch' must be {'source': str, 'seq': int}",
                }
            source, source_seq = batch["source"], batch["seq"]
        try:
            outcome = self.pipeline.ingest_batch(
                points, source=source, source_seq=source_seq
            )
        except ValueError as exc:  # dimensionality mismatch
            stats.bump("ingest_rejected")
            return 400, {"error": "bad_request", "detail": str(exc)}
        accepted = int(outcome["accepted"])
        stats.bump("ingest_completed")
        if accepted:
            stats.bump("ingested_points", accepted)
        status = self.pipeline.status()
        return 200, {
            "ingested": accepted,
            "duplicate": bool(outcome["duplicate"]),
            "durable": self.pipeline.wal is not None,
            "n_total": status["n_total"],
            "generation": status["generation"],
            "staleness_seconds": status["staleness_seconds"],
            "window_fill": status["window_fill"],
        }

    def handle_adopt_ingest(self, raw: bytes) -> tuple[int, dict]:
        """Become the ingest owner for a WAL directory (fleet protocol).

        The router elects one worker as ingest owner by POSTing
        ``{"wal_dir": ..., "settings": {...}, "start": false}`` here; the
        worker recovers the WAL (replaying whatever the previous owner
        acknowledged before dying) and serves ``/ingest`` from then on.
        The WAL's flock makes double ownership impossible: a 409 means
        the previous owner still holds the log. Idempotent for the same
        ``wal_dir``.
        """
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": "bad_request", "detail": f"invalid JSON: {exc}"}
        if not isinstance(body, dict) or "wal_dir" not in body:
            return 400, {
                "error": "bad_request",
                "detail": "body must be a JSON object with 'wal_dir'",
            }
        wal_dir = Path(body["wal_dir"])
        if self.pipeline is not None:
            current = getattr(self.pipeline, "wal", None)
            if current is not None and Path(current.directory) == wal_dir:
                return 200, {
                    "status": "already_owner",
                    "n_total": int(self.pipeline.model.n_total),
                    "generation": int(self.pipeline.model.generation),
                }
            return 409, {
                "error": "pipeline_already_attached",
                "detail": "this server already runs a different pipeline",
            }
        from repro.streaming import StreamingPipeline, StreamSettings
        from repro.streaming.wal import WalLockedError

        try:
            settings = StreamSettings(**(body.get("settings") or {}))
        except (TypeError, ValueError) as exc:
            return 400, {"error": "bad_request", "detail": f"bad settings: {exc}"}
        try:
            pipeline = StreamingPipeline.recover(
                wal_dir,
                settings=settings,
                fallback_classifier=self.manager.classifier,
                reloader=self.manager,
            )
        except WalLockedError as exc:
            return 409, {"error": "wal_locked", "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 - reported to the router
            log.error("adopt-ingest recovery failed: %s: %s",
                      type(exc).__name__, exc)
            return 500, {
                "error": "recovery_failed",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        self.attach_pipeline(pipeline, start=bool(body.get("start", False)))
        return 200, {
            "status": "adopted",
            "recovery": pipeline.recovery,
            "n_total": int(pipeline.model.n_total),
            "generation": int(pipeline.model.generation),
            "ingested_total": int(pipeline.ingested_total),
        }

    def _retry_after(self) -> float:
        backlog = self.admission.admitted() / max(self.admission.capacity, 1)
        return round(self.serve_config.retry_after * (1.0 + backlog), 3)

    def handle_classify(
        self, raw: bytes, received_at: float
    ) -> tuple[int, dict, dict]:
        """The full admission → deadline → breaker → watchdog pipeline.

        Returns ``(status, json_payload, extra_headers)``. Every path
        increments ``submitted`` and exactly one terminal counter — the
        accounting invariant the soak test asserts.
        """
        config = self.serve_config
        stats = self.stats
        stats.bump("submitted")
        if self.draining.is_set():
            stats.bump("drained")
            retry = self._retry_after()
            return 503, {"error": "draining", "retry_after": retry}, {
                "Retry-After": retry,
            }
        if len(raw) > config.max_request_bytes:
            stats.bump("rejected")
            return 413, too_large(config.max_request_bytes, len(raw)), {}

        try:
            points, deadline_s, _body = self._parse_request(raw)
        except _BadRequest as exc:
            stats.bump("rejected")
            return exc.status, exc.payload, {}
        deadline = received_at + deadline_s

        if not self.admission.try_admit():
            stats.bump("shed")
            retry = self._retry_after()
            return 429, {
                "error": "overloaded",
                "retry_after": retry,
                "queue_capacity": self.admission.capacity,
            }, {"Retry-After": retry}
        stats.bump("accepted")

        slot_held = False
        try:
            wait = deadline - time.monotonic()
            if wait <= 0.0 or not self.admission.acquire_slot(wait):
                stats.bump("shed")
                retry = self._retry_after()
                return 429, {
                    "error": "overloaded",
                    "detail": "no execution slot within the request deadline",
                    "retry_after": retry,
                }, {"Retry-After": retry}
            slot_held = True

            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                stats.bump("timed_out")
                return 503, {
                    "error": "deadline_exceeded",
                    "detail": "deadline expired while queued",
                }, {}

            mode = self.breaker.admit()
            budget = (
                config.open_budget
                if mode == MODE_DEGRADED
                else self.manager.budget_for(remaining)
            )
            return self._run_with_watchdog(
                points, budget, mode, remaining, deadline_s, received_at
            )
        finally:
            self.admission.release(slot_held)

    def _run_with_watchdog(
        self,
        points: np.ndarray,
        budget: int,
        mode: str,
        remaining: float,
        deadline_s: float,
        received_at: float,
    ) -> tuple[int, dict, dict]:
        config = self.serve_config
        stats = self.stats
        box: dict[str, object] = {}

        def work() -> None:
            try:
                # With a streaming pipeline attached, serve the
                # combined density (ingested points answered exactly
                # via the snapshot's buffer). Snapshotting inside the
                # watchdogged job keeps a wedged pipeline lock from
                # hanging the handler thread.
                stream = (
                    self.pipeline.serving_view()
                    if self.pipeline is not None else None
                )
                box["value"] = self.manager.classify(
                    points, budget, stream=stream
                )
            except BaseException as exc:  # noqa: BLE001 - reported as 500
                box["error"] = exc

        started = time.monotonic()
        finished = self.classify_worker.run(
            work, remaining + config.watchdog_grace
        )
        elapsed = time.monotonic() - started
        if not finished:
            # The worker is wedged (stall, livelock): it was abandoned
            # and replaced, and holds no admission state once we return.
            stats.bump("timed_out")
            self.breaker.record(True, mode)
            log.warning(
                "watchdog abandoned a classify after %.3fs "
                "(deadline %.3fs + grace %.3fs)",
                elapsed, deadline_s, config.watchdog_grace,
            )
            return 503, {
                "error": "watchdog_timeout",
                "deadline_ms": round(deadline_s * 1000.0, 3),
                "grace_ms": round(config.watchdog_grace * 1000.0, 3),
            }, {}

        error = box.get("error")
        if error is not None:
            if isinstance(error, ValueError):
                # Shape/dimension garbage: the client's fault, says
                # nothing about pipeline health.
                stats.bump("rejected")
                self.breaker.record(False, mode)
                return 400, {
                    "error": "bad_request",
                    "detail": str(error),
                }, {}
            stats.bump("errors")
            self.breaker.record(True, mode)
            log.error("classify failed: %s: %s", type(error).__name__, error)
            return 500, {
                "error": "internal",
                "detail": f"{type(error).__name__}: {error}",
            }, {}

        result, fallbacks = box["value"]  # type: ignore[misc]
        self.breaker.record(fallbacks > 0, mode)
        uncertain = result.uncertain
        stats.bump("completed")
        if result.any_degraded:
            stats.bump("degraded")
        if bool(uncertain.any()):
            stats.bump("uncertain")
        if mode == MODE_DEGRADED:
            stats.bump("breaker_served_degraded")
        stats.observe_latency(time.monotonic() - received_at)
        return 200, {
            "labels": [int(label) for label in result.resolved_labels()],
            "degraded": [bool(flag) for flag in result.degraded],
            "uncertain": [bool(flag) for flag in uncertain],
            "degraded_any": bool(result.any_degraded),
            "threshold": float(result.threshold),
            "budget": budget,
            "exact_fallbacks": fallbacks,
            "mode": mode,
            "breaker": self.breaker.state,
            "elapsed_ms": round(elapsed * 1000.0, 3),
        }, {}

    def _parse_request(self, raw: bytes) -> tuple[np.ndarray, float, dict]:
        config = self.serve_config
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(400, {
                "error": "bad_request", "detail": f"invalid JSON: {exc}",
            }) from exc
        if not isinstance(body, dict) or "points" not in body:
            raise _BadRequest(400, {
                "error": "bad_request",
                "detail": "body must be a JSON object with a 'points' array",
            })
        try:
            points = np.asarray(body["points"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(400, {
                "error": "bad_request",
                "detail": f"'points' is not a numeric matrix: {exc}",
            }) from exc
        if points.ndim != 2 or points.shape[0] == 0:
            raise _BadRequest(400, {
                "error": "bad_request",
                "detail": "'points' must be a non-empty list of equal-length rows",
            })
        if points.shape[0] > config.max_rows:
            raise _BadRequest(413, {
                "error": "too_many_rows",
                "max_rows": config.max_rows,
                "received_rows": int(points.shape[0]),
            })
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is None:
            deadline_s = config.default_deadline
        else:
            if not isinstance(deadline_ms, (int, float)) or not deadline_ms > 0:
                raise _BadRequest(400, {
                    "error": "bad_request",
                    "detail": "'deadline_ms' must be a positive number",
                })
            deadline_s = min(float(deadline_ms) / 1000.0, config.max_deadline)
        return points, deadline_s, body

    # ------------------------------------------------------------------
    # Reload and drain
    # ------------------------------------------------------------------

    def handle_reload(self, raw: bytes) -> tuple[int, dict]:
        path: str | None = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
                path = body.get("path") if isinstance(body, dict) else None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": "bad_request", "detail": f"invalid JSON: {exc}"}
        result = self.manager.reload(path)
        return (200 if result.ok else 500), result.as_dict()

    def reload_model(self, path: str | Path | None = None):
        """Programmatic/SIGHUP entry to the verified reload protocol."""
        return self.manager.reload(path)

    def initiate_drain(self) -> None:
        """Stop admitting, wait for in-flight work, then shut down."""
        if self.draining.is_set():
            return
        self.draining.set()
        if self.pipeline is not None:
            # Stop triggering new refits; a mid-flight one is deadline-
            # bounded and harmless (its swap target outlives the drain).
            self.pipeline.stop(join=False)
        log.info("drain initiated: refusing new work, waiting for in-flight")
        threading.Thread(
            target=self._drain_and_shutdown, name="tkdc-drain", daemon=True
        ).start()

    def _drain_and_shutdown(self) -> None:
        deadline = time.monotonic() + self.serve_config.drain_timeout
        while time.monotonic() < deadline and self.admission.admitted() > 0:
            time.sleep(0.02)
        leftover = self.admission.admitted()
        if leftover:
            log.warning(
                "drain timeout: shutting down with %d requests in flight", leftover
            )
        else:
            log.info("drained cleanly; shutting down")
        self.shutdown()

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.stats.record_breaker_transition(old, new)
        log.warning("circuit breaker %s -> %s", old, new)


class _BadRequest(Exception):
    """Internal: a request refused during parsing (status + payload)."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("detail", "bad request"))
        self.status = status
        self.payload = payload


def install_signal_handlers(server: TKDCServer) -> bool:
    """SIGTERM/SIGINT → graceful drain; SIGHUP → verified hot reload.

    Handlers only set work in motion on daemon threads — never block in
    signal context. Returns False when not running in the main thread
    (signal registration is impossible there); the caller then relies on
    the admin endpoints instead.
    """

    def _drain(signum: int, frame: object) -> None:
        threading.Thread(target=server.initiate_drain, daemon=True).start()

    def _reload(signum: int, frame: object) -> None:
        threading.Thread(target=server.reload_model, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        if hasattr(signal, "SIGHUP"):
            signal.signal(signal.SIGHUP, _reload)
    except ValueError:
        log.warning(
            "not in the main thread: signal handlers unavailable, "
            "use /admin/reload and /admin/drain"
        )
        return False
    return True


def serve(
    model_path: str | Path,
    config: ServeConfig | None = None,
    install_signals: bool = True,
    streaming: bool = False,
    stream_settings=None,
    wal_dir: str | Path | None = None,
) -> int:
    """Load a model, start the daemon, and block until drained.

    The CLI entry point (``repro serve``). Returns 0 after a graceful
    shutdown. With ``config.workers > 1`` this becomes the pre-forked
    fleet router (:mod:`repro.serve.router`) instead of the in-process
    daemon; the endpoint surface is identical either way.

    ``streaming=True`` attaches a drift-aware ingest pipeline behind
    ``POST /ingest``; drift-triggered refits then swap the served model
    through the manager's verified reload path. ``stream_settings`` is a
    :class:`~repro.streaming.pipeline.StreamSettings`. ``wal_dir``
    makes ingest *durable*: batches are write-ahead-logged before they
    are acknowledged, and a restart over the same directory recovers
    every acknowledged point (accounting generation included) before
    serving. In fleet mode the router forwards ``/ingest`` to an
    elected ingest-owner worker over the same WAL (see
    :mod:`repro.serve.router`).
    """
    config = config if config is not None else ServeConfig()
    if config.workers > 1:
        from repro.serve.router import serve_fleet

        return serve_fleet(
            model_path, config, install_signals=install_signals,
            streaming=streaming, stream_settings=stream_settings,
            wal_dir=wal_dir,
        )
    manager = ModelManager(model_path, config)
    server = TKDCServer(manager)
    pipeline = None
    if streaming:
        from repro.streaming import StreamingPipeline, StreamSettings

        settings = stream_settings or StreamSettings()
        if wal_dir is not None:
            pipeline = StreamingPipeline.recover(
                wal_dir,
                settings=settings,
                fallback_classifier=manager.classifier,
                reloader=manager,
            )
        else:
            pipeline = StreamingPipeline.from_classifier(
                manager.classifier,
                settings=settings,
                reloader=manager,
            )
        server.attach_pipeline(pipeline)
    elif wal_dir is not None:
        log.warning("--wal-dir is only meaningful with --streaming; ignoring")
    if install_signals:
        install_signal_handlers(server)
    durability = ""
    if pipeline is not None:
        durability = ", streaming ingest on"
        if pipeline.wal is not None:
            durability += f" (wal={pipeline.wal.directory})"
    print(
        f"tkdc serving {manager.model_path} on "
        f"http://{config.host}:{server.port} "
        f"(threshold={manager.classifier.threshold.value:.6g}, "
        f"{manager.calibration.expansions_per_second:.3g} expansions/s, "
        f"engine={manager.calibration.engine}"
        f"{durability}); "
        "SIGTERM drains, SIGHUP reloads",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        if pipeline is not None:
            pipeline.stop(join=False)
        server.server_close()
    print("tkdc server stopped", flush=True)
    return 0
