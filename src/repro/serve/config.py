"""Configuration for the resilient tKDC serving daemon.

Every robustness behaviour of :mod:`repro.serve.daemon` is a knob here,
so tests can shrink windows and deadlines to milliseconds and the CLI
can expose the production-relevant subset. The config is frozen (like
:class:`~repro.core.config.TKDCConfig`) so a running server's behaviour
cannot drift under it mid-request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ServeConfig:
    """All knobs for :class:`repro.serve.daemon.TKDCServer`.

    Attributes
    ----------
    host / port:
        Bind address. Port 0 binds an ephemeral port (tests); the bound
        port is reported by ``TKDCServer.port``.
    queue_depth:
        Requests that may wait for the process's one execution slot
        (its standing classify worker; more parallelism comes from
        ``workers``). An arrival that finds the slot busy and the queue
        full is shed immediately with a structured 429 — overload
        degrades throughput, never latency.
    retry_after:
        Baseline seconds suggested in 429/503 ``retry_after`` hints;
        scaled up with the current backlog.
    max_request_bytes / max_rows:
        Per-request body-size and query-row ceilings; oversized requests
        are rejected with a structured 413 before any parsing work.
    default_deadline / max_deadline:
        Seconds granted to a request that names no deadline, and the cap
        clamping client-supplied ``deadline_ms`` values.
    watchdog_grace:
        Extra seconds past a request's deadline before the watchdog
        abandons the worker and returns a 503 — the bound that converts
        a wedged handler into a fast structured failure instead of a
        hang.
    budget_safety:
        Fraction of the calibrated expansions/sec rate assumed available
        to one request (headroom for concurrency and cache effects) when
        translating its remaining deadline into a
        ``max_node_expansions`` budget.
    min_budget:
        Floor on the per-request expansion budget, so even a nearly
        expired deadline yields a meaningful partial traversal.
    open_budget:
        The tiny expansion budget used while the circuit breaker is
        open: answers come back fast and explicitly degraded.
    breaker_window / breaker_min_requests / breaker_threshold:
        Sliding window length, minimum observations before the breaker
        may act, and the failure-rate (errors + exact-O(n) fallbacks)
        that opens it.
    breaker_cooldown:
        Seconds the breaker stays open before admitting half-open
        probes.
    breaker_probes:
        Consecutive successful half-open probes required to close.
    drain_timeout:
        Seconds a drain (SIGTERM / ``/admin/drain``) waits for in-flight
        requests before shutting the listener down regardless.
    calibration_queries / canary_queries:
        Probe-workload sizes for the startup expansions/sec calibration
        and the hot-reload canary classification.
    probe_seed:
        Seed for generating both probe workloads from the model.
    workers:
        Serving processes. 1 (the default) is the single-process daemon
        exactly as before; >1 starts the pre-forked fleet behind the
        router (:mod:`repro.serve.router`) with the model shared over
        shared memory. Linux-oriented — see ``docs/serving.md``.
    heartbeat_interval:
        Seconds between router health probes of each worker.
    heartbeat_misses:
        Consecutive failed probes before a worker is declared dead and
        respawned (a crashed process is respawned immediately).
    worker_startup_timeout:
        Seconds the router waits for a spawned worker to announce
        readiness before giving up on it.
    """

    host: str = "127.0.0.1"
    port: int = 7317
    queue_depth: int = 16
    retry_after: float = 0.25
    max_request_bytes: int = 1 << 20
    max_rows: int = 4096
    default_deadline: float = 1.0
    max_deadline: float = 30.0
    watchdog_grace: float = 2.0
    budget_safety: float = 0.5
    min_budget: int = 64
    open_budget: int = 32
    breaker_window: int = 64
    breaker_min_requests: int = 16
    breaker_threshold: float = 0.5
    breaker_cooldown: float = 5.0
    breaker_probes: int = 3
    drain_timeout: float = 10.0
    calibration_queries: int = 256
    canary_queries: int = 32
    probe_seed: int = 0
    workers: int = 1
    heartbeat_interval: float = 0.5
    heartbeat_misses: int = 3
    worker_startup_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.retry_after <= 0:
            raise ValueError(f"retry_after must be positive, got {self.retry_after}")
        if self.max_request_bytes < 1:
            raise ValueError(
                f"max_request_bytes must be >= 1, got {self.max_request_bytes}"
            )
        if self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {self.default_deadline}"
            )
        if self.max_deadline < self.default_deadline:
            raise ValueError(
                f"max_deadline ({self.max_deadline}) must be >= "
                f"default_deadline ({self.default_deadline})"
            )
        if self.watchdog_grace <= 0:
            raise ValueError(
                f"watchdog_grace must be positive, got {self.watchdog_grace}"
            )
        if not 0.0 < self.budget_safety <= 1.0:
            raise ValueError(
                f"budget_safety must be in (0, 1], got {self.budget_safety}"
            )
        if self.min_budget < 1:
            raise ValueError(f"min_budget must be >= 1, got {self.min_budget}")
        if self.open_budget < 1:
            raise ValueError(f"open_budget must be >= 1, got {self.open_budget}")
        if self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1, got {self.breaker_window}"
            )
        if not 1 <= self.breaker_min_requests <= self.breaker_window:
            raise ValueError(
                f"breaker_min_requests must be in [1, breaker_window], "
                f"got {self.breaker_min_requests}"
            )
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                f"breaker_threshold must be in (0, 1], got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be positive, got {self.breaker_cooldown}"
            )
        if self.breaker_probes < 1:
            raise ValueError(
                f"breaker_probes must be >= 1, got {self.breaker_probes}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be positive, got {self.drain_timeout}"
            )
        if self.calibration_queries < 1:
            raise ValueError(
                f"calibration_queries must be >= 1, got {self.calibration_queries}"
            )
        if self.canary_queries < 1:
            raise ValueError(
                f"canary_queries must be >= 1, got {self.canary_queries}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_misses < 1:
            raise ValueError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}"
            )
        if self.worker_startup_timeout <= 0:
            raise ValueError(
                f"worker_startup_timeout must be positive, "
                f"got {self.worker_startup_timeout}"
            )

    def with_updates(self, **changes: object) -> "ServeConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]
