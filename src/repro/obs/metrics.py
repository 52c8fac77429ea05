"""Shared instrument handles for the tKDC pipeline.

Every layer that reports into the process-wide registry declares its
instruments here, so metric names, labels, and buckets live in one
place (and ``docs/observability.md`` documents exactly this file).

Granularity is deliberate: the traversal engines report **per call**
(per-query engine) or **per block** (batch engine), never per node —
that keeps the enabled-path cost to a handful of instrument writes per
thousand queries and the disabled-path cost to one boolean test (see
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.registry import LATENCY_BUCKETS, REGISTRY, WORK_BUCKETS

__all__ = [
    "QUERIES_TOTAL",
    "KERNEL_EVALUATIONS_TOTAL",
    "NODE_EXPANSIONS",
    "TRAVERSAL_ROUNDS",
    "GRID_HITS_TOTAL",
    "GUARD_REPAIRS_TOTAL",
    "GUARD_ESCALATIONS_TOTAL",
    "BOOTSTRAP_ITERATIONS_TOTAL",
    "BOOTSTRAP_BACKOFFS_TOTAL",
    "BOOTSTRAP_FAILURES_TOTAL",
    "CLASSIFY_SECONDS",
    "ENGINE_SELECTED_TOTAL",
    "HBE_SAMPLES",
    "HBE_UNDECIDED_TOTAL",
    "STREAM_INGESTED_TOTAL",
    "DRIFT_CHECKS_TOTAL",
    "REFIT_TOTAL",
    "REFIT_SECONDS",
    "STALENESS_SECONDS",
    "DRIFT_CHECK_SECONDS",
    "WAL_APPENDS_TOTAL",
    "WAL_FSYNCS_TOTAL",
    "WAL_APPEND_SECONDS",
    "WAL_REPLAYED_RECORDS_TOTAL",
    "WAL_TORN_RECORDS_TOTAL",
    "STREAM_RECOVERIES_TOTAL",
    "record_engine_selected",
    "record_hbe_block",
    "record_traversal",
    "record_traversal_block",
    "record_ingest",
    "record_drift_check",
    "record_drift_check_seconds",
    "record_refit",
    "record_staleness",
    "record_wal_append",
    "record_wal_replay",
    "record_stream_recovery",
]

#: Traversals finished, labeled by engine and terminating rule
#: (threshold_high / threshold_low / tolerance / exhausted / budget /
#: exact). This is the registry's view of Figure 12/16's "which rule
#: fired" breakdown.
QUERIES_TOTAL = REGISTRY.counter(
    "tkdc_queries_total",
    "Density-bounding traversals finished, by engine and terminating rule",
    labels=("engine", "rule"),
)

#: Kernel evaluations against training points (the paper's
#: machine-independent cost proxy), by engine.
KERNEL_EVALUATIONS_TOTAL = REGISTRY.counter(
    "tkdc_kernel_evaluations_total",
    "Kernel evaluations against training points, by engine",
    labels=("engine",),
)

#: Distribution of node expansions per query, by engine.
NODE_EXPANSIONS = REGISTRY.histogram(
    "tkdc_node_expansions",
    "Node expansions per density-bounding traversal",
    labels=("engine",),
    buckets=WORK_BUCKETS,
)

#: Frontier rounds per batch-engine block. Every live query pops once a
#: round, so a block runs as many rounds as its slowest query pops, and
#: each round has a fixed numpy-dispatch cost however few queries are
#: live: the machine-independent count behind a small request's cost.
TRAVERSAL_ROUNDS = REGISTRY.histogram(
    "tkdc_traversal_rounds",
    "Frontier rounds per batch-engine block",
    labels=("engine",),
    buckets=WORK_BUCKETS,
)

#: Queries answered by the grid cache before any traversal.
GRID_HITS_TOTAL = REGISTRY.counter(
    "tkdc_grid_hits_total",
    "Queries short-circuited by the grid cache",
)

#: Numeric-guard repairs applied, by guard site.
GUARD_REPAIRS_TOTAL = REGISTRY.counter(
    "tkdc_guard_repairs_total",
    "Invariant-guard repairs applied, by site (node/leaf/accumulator/threshold)",
    labels=("site",),
)

#: Guard escalations (warn/raise/exact-fallback events), by site.
GUARD_ESCALATIONS_TOTAL = REGISTRY.counter(
    "tkdc_guard_escalations_total",
    "Invariant-guard escalations beyond silent repair, by site",
    labels=("site",),
)

#: Threshold-bootstrap progress counters.
BOOTSTRAP_ITERATIONS_TOTAL = REGISTRY.counter(
    "tkdc_bootstrap_iterations_total",
    "Threshold-bootstrap refinement iterations executed",
)
BOOTSTRAP_BACKOFFS_TOTAL = REGISTRY.counter(
    "tkdc_bootstrap_backoffs_total",
    "Threshold-bootstrap sample-size backoffs",
)
BOOTSTRAP_FAILURES_TOTAL = REGISTRY.counter(
    "tkdc_bootstrap_failures_total",
    "Threshold bootstraps that exhausted their budget",
)

#: Engine-selection outcomes: one increment per fit/serving resolution
#: of ``engine="auto"`` (and per explicit configuration, so the family
#: always reflects what is actually serving). Reasons come from
#: :func:`repro.estimators.select.select_engine`.
ENGINE_SELECTED_TOTAL = REGISTRY.counter(
    "tkdc_engine_selected_total",
    "Engine-selection outcomes, by chosen engine and selection reason",
    labels=("engine", "reason"),
)

#: Distribution of LSH density samples (tables consulted) per hbe
#: query, by outcome: "decided" (CI cleared the band), "fallback"
#: (straddle, re-run through the tree), "exhausted" (anytime budget
#: spent, surfaced as degraded).
HBE_SAMPLES = REGISTRY.histogram(
    "tkdc_hbe_samples",
    "LSH density samples drawn per hbe query, by outcome",
    labels=("outcome",),
    buckets=WORK_BUCKETS,
)

#: hbe queries the sampler could not decide, by cause: "straddle"
#: queries go to the tree fallback (still certified), "budget" queries
#: had no anytime allowance left and surface as degraded/UNCERTAIN.
HBE_UNDECIDED_TOTAL = REGISTRY.counter(
    "tkdc_hbe_undecided_total",
    "hbe queries not decided by sampling, by cause",
    labels=("cause",),
)


def record_engine_selected(engine: str, reason: str) -> None:
    """Report one engine-selection outcome (fit or serving calibration)."""
    if REGISTRY.enabled:
        ENGINE_SELECTED_TOTAL.labels(engine, reason).inc()


def record_hbe_block(
    decided_samples: Iterable[float],
    fallback_samples: Iterable[float],
    exhausted_samples: Iterable[float],
) -> None:
    """Report one hbe classification block's per-query sampling outcomes."""
    if not REGISTRY.enabled:
        return
    decided = list(decided_samples)
    fallback = list(fallback_samples)
    exhausted = list(exhausted_samples)
    if decided:
        HBE_SAMPLES.labels("decided").observe_many(decided)
    if fallback:
        HBE_SAMPLES.labels("fallback").observe_many(fallback)
        HBE_UNDECIDED_TOTAL.labels("straddle").inc(len(fallback))
    if exhausted:
        HBE_SAMPLES.labels("exhausted").observe_many(exhausted)
        HBE_UNDECIDED_TOTAL.labels("budget").inc(len(exhausted))


#: Wall-clock duration of TKDCClassifier.classify calls, by engine.
CLASSIFY_SECONDS = REGISTRY.histogram(
    "tkdc_classify_seconds",
    "Wall-clock seconds per TKDCClassifier.classify call",
    labels=("engine",),
    buckets=LATENCY_BUCKETS,
)


def record_traversal(engine: str, rule: str, expansions: int, kernels: int) -> None:
    """Report one finished traversal (per-query engine's return path)."""
    if not REGISTRY.enabled:
        return
    QUERIES_TOTAL.labels(engine, rule).inc()
    NODE_EXPANSIONS.labels(engine).observe(expansions)
    if kernels:
        KERNEL_EVALUATIONS_TOTAL.labels(engine).inc(kernels)


# -- streaming pipeline instruments -----------------------------------

#: Points folded into the streaming pipeline (exact buffer + sketch).
STREAM_INGESTED_TOTAL = REGISTRY.counter(
    "tkdc_stream_ingested_points_total",
    "Points ingested into the streaming pipeline",
)

#: Drift checks run against the served threshold, by outcome:
#: "stable", "drifted" (CI violated, hysteresis pending), "fired"
#: (refit triggered), "skipped" (window still filling / interval gate).
DRIFT_CHECKS_TOTAL = REGISTRY.counter(
    "tkdc_drift_checks_total",
    "Drift checks of the served threshold against the fresh-window CI, by outcome",
    labels=("outcome",),
)

#: Background refit lifecycle events: "triggered", "succeeded",
#: "failed" (no artifact produced), "swapped" (verified swap landed),
#: "rolled_back" (artifact refused by the verified reload path).
REFIT_TOTAL = REGISTRY.counter(
    "tkdc_refit_total",
    "Drift-triggered background refit outcomes",
    labels=("outcome",),
)

#: Wall-clock duration of supervised background refits.
REFIT_SECONDS = REGISTRY.histogram(
    "tkdc_refit_seconds",
    "Wall-clock seconds per supervised background refit",
    buckets=LATENCY_BUCKETS,
)

#: Seconds since the oldest unresolved drift detection (0 = current).
STALENESS_SECONDS = REGISTRY.gauge(
    "tkdc_staleness_seconds",
    "Seconds the served threshold has been in confirmed unresolved drift",
)


#: Wall seconds of the drift test (window densities + decision), the
#: last one and the slowest since start: the per-step detection cost the
#: staleness derivation in docs/streaming.md adds to ``check_interval``.
DRIFT_CHECK_SECONDS = REGISTRY.gauge(
    "tkdc_drift_check_seconds",
    "Wall seconds of the drift test, last and maximum since start",
    labels=("stat",),
)


def record_ingest(points: int) -> None:
    """Report one ingest batch folded into the pipeline."""
    if REGISTRY.enabled and points:
        STREAM_INGESTED_TOTAL.inc(points)


def record_drift_check(outcome: str) -> None:
    """Report one drift check's outcome."""
    if REGISTRY.enabled:
        DRIFT_CHECKS_TOTAL.labels(outcome).inc()


def record_drift_check_seconds(last: float, maximum: float) -> None:
    """Report the last and the slowest drift-test wall time."""
    if REGISTRY.enabled:
        DRIFT_CHECK_SECONDS.labels("last").set(last)
        DRIFT_CHECK_SECONDS.labels("max").set(maximum)


def record_refit(outcome: str, seconds: float | None = None) -> None:
    """Report one refit lifecycle event (and its duration, if finished)."""
    if REGISTRY.enabled:
        REFIT_TOTAL.labels(outcome).inc()
        if seconds is not None:
            REFIT_SECONDS.observe(seconds)


def record_staleness(seconds: float) -> None:
    """Report the current staleness gauge reading."""
    if REGISTRY.enabled:
        STALENESS_SECONDS.set(seconds)


# -- durable ingest (write-ahead log) instruments ----------------------

#: WAL records appended, by record type (ingest / refit_trigger /
#: swap_commit / snapshot).
WAL_APPENDS_TOTAL = REGISTRY.counter(
    "tkdc_wal_appends_total",
    "Write-ahead-log records appended, by record type",
    labels=("type",),
)

#: fsyncs issued by the WAL (policy-dependent: "always" fsyncs every
#: append, "interval" at most once per interval, "off" never).
WAL_FSYNCS_TOTAL = REGISTRY.counter(
    "tkdc_wal_fsyncs_total",
    "fsync calls issued by the write-ahead log",
)

#: Wall-clock duration of one WAL append (including its fsync, when the
#: policy issues one) — the durable-ingest acknowledgement cost.
WAL_APPEND_SECONDS = REGISTRY.histogram(
    "tkdc_wal_append_seconds",
    "Wall-clock seconds per write-ahead-log append (fsync included)",
    labels=("type",),
    buckets=LATENCY_BUCKETS,
)

#: Records replayed from the WAL during crash recovery.
WAL_REPLAYED_RECORDS_TOTAL = REGISTRY.counter(
    "tkdc_wal_replayed_records_total",
    "WAL records replayed during crash recovery, by record type",
    labels=("type",),
)

#: Torn final records truncated while opening a WAL (each one is an
#: interrupted append that was never acknowledged).
WAL_TORN_RECORDS_TOTAL = REGISTRY.counter(
    "tkdc_wal_torn_records_total",
    "Torn final WAL records truncated during recovery",
)

#: Streaming pipelines rebuilt from a WAL after a crash/restart.
STREAM_RECOVERIES_TOTAL = REGISTRY.counter(
    "tkdc_stream_recoveries_total",
    "Streaming pipeline crash recoveries completed from the WAL",
)


def record_wal_append(type_name: str, seconds: float, fsyncs: int) -> None:
    """Report one WAL append (and the fsyncs it issued)."""
    if REGISTRY.enabled:
        WAL_APPENDS_TOTAL.labels(type_name).inc()
        WAL_APPEND_SECONDS.labels(type_name).observe(seconds)
        if fsyncs:
            WAL_FSYNCS_TOTAL.inc(fsyncs)


def record_wal_replay(type_counts: Mapping[str, int], torn_records: int) -> None:
    """Report one WAL replay pass's record mix and torn-tail count."""
    if not REGISTRY.enabled:
        return
    for type_name, count in type_counts.items():
        if count:
            WAL_REPLAYED_RECORDS_TOTAL.labels(type_name).inc(count)
    if torn_records:
        WAL_TORN_RECORDS_TOTAL.inc(torn_records)


def record_stream_recovery() -> None:
    """Report one completed streaming crash recovery."""
    if REGISTRY.enabled:
        STREAM_RECOVERIES_TOTAL.inc()


def record_traversal_block(
    engine: str,
    rule_counts: Mapping[str, int],
    expansions: Iterable[float],
    kernels: int,
    rounds: int | None = None,
) -> None:
    """Report one finished block of traversals (batch engine).

    ``rounds`` is the block's frontier-round count; engines without
    rounds pass none.
    """
    if not REGISTRY.enabled:
        return
    if rounds is not None:
        TRAVERSAL_ROUNDS.labels(engine).observe(rounds)
    for rule, count in rule_counts.items():
        if count:
            QUERIES_TOTAL.labels(engine, rule).inc(count)
    NODE_EXPANSIONS.labels(engine).observe_many(expansions)
    if kernels:
        KERNEL_EVALUATIONS_TOTAL.labels(engine).inc(kernels)
