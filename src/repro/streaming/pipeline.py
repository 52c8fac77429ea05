"""The streaming ingest → drift-refit → verified hot-swap pipeline.

Wires the streaming pieces into one production loop around a serving
:class:`~repro.core.incremental.IncrementalTKDC`:

- :meth:`StreamingPipeline.ingest` folds arriving points into the
  model's exact answer buffer (every inserted point affects the very
  next classification), the bounded mergeable
  :class:`~repro.streaming.sketch.StreamSketch` (refit training data for
  the whole stream), and a fresh-points window (drift evidence);
- a background thread periodically runs the
  :class:`~repro.streaming.monitor.DriftMonitor`'s order-statistic test
  of the served threshold; when drift is confirmed (hysteresis + min
  interval) it launches a crash-isolated refit
  (:func:`repro.streaming.refit.run_refit`) on a sketch snapshot;
- a produced artifact ships through the sha256-verified reload path — a
  :class:`~repro.serve.reload.ModelManager`, a fleet router, or the
  built-in :class:`LocalReloader` (same ``load → canary → swap``
  protocol) — and only a surviving candidate is adopted by the serving
  model, retaining exactly the points that arrived while the refit ran.

**Staleness accounting.** ``staleness_seconds()`` is the age of the
oldest unresolved drift detection; the pipeline's declared worst case
(:meth:`StreamSettings.staleness_bound`) is derived in
``docs/streaming.md`` from the check cadence, the hysteresis depth, and
the supervised refit deadline. **Accounting invariant**
(:meth:`verify_accounting`): every ingested point is represented —
``model.n_total == initial_n + ingested_total`` across any number of
swaps, every triggered refit terminates as succeeded or failed, and
every produced artifact is either swapped or rolled back.

A failed, poisoned, crashed, or corrupted refit never touches the
serving model: failure isolation is the subprocess boundary plus the
verified swap; "rollback" is the absence of the swap.
"""

from __future__ import annotations

import copy
import logging
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.classifier import TKDCClassifier
from repro.core.incremental import IncrementalTKDC
from repro.io.models import load_model, resolve_model_path
from repro.obs.metrics import (
    record_drift_check,
    record_drift_check_seconds,
    record_ingest,
    record_refit,
    record_staleness,
    record_stream_recovery,
    record_wal_replay,
)
from repro.robustness.faults import DriftPlan
from repro.robustness.supervisor import SupervisionPolicy
from repro.serve.reload import ReloadResult, prepare_classifier, run_canary
from repro.streaming.monitor import DriftDecision, DriftMonitor
from repro.streaming.refit import RefitOutcome, run_refit
from repro.streaming.sketch import StreamSketch
from repro.streaming.wal import (
    FSYNC_POLICIES,
    RECORD_INGEST,
    RECORD_REFIT_TRIGGER,
    RECORD_SNAPSHOT,
    RECORD_SWAP_COMMIT,
    WalError,
    WriteAheadLog,
)
from repro.validation import as_insert_rows

log = logging.getLogger("repro.streaming")


@dataclass(frozen=True)
class StreamSettings:
    """Knobs of the ingest → refit → swap loop (all validated).

    Attributes
    ----------
    drift_delta:
        Per-check false-trigger level of the order-statistic CI test.
    monitor_window:
        Fresh points per drift check (the CI's subsample size).
    hysteresis:
        Consecutive violating checks required to trigger a refit.
    check_interval:
        Seconds between background drift checks.
    min_refit_interval:
        Seconds after any refit before the next may trigger (also the
        retry backoff after a failed refit).
    refit_deadline / refit_retries / refit_backoff:
        The supervised refit's per-attempt deadline, bounded retries,
        and backoff (see :class:`~repro.robustness.supervisor.SupervisionPolicy`).
    refit_sample_cap:
        Maximum training rows materialized from the sketch per refit.
    sketch_capacity:
        Weighted points retained by the merge-reduce sketch.
    canary_queries / probe_seed:
        The standalone swap verifier's canary workload (ignored when an
        external reloader is attached — it brings its own).
    swap_grace:
        Seconds budgeted for artifact verification + canary + adopt in
        the declared staleness bound.
    fsync_policy / fsync_interval:
        When WAL appends are forced to stable storage (``always`` /
        ``interval`` / ``off``; see :mod:`repro.streaming.wal`). Only
        consulted when a WAL is attached.
    wal_segment_bytes:
        WAL segment rotation size.
    wal_compact_bytes:
        Write a snapshot + truncate once the WAL exceeds this size even
        without a swap (keeps a swap-free ingest-only log bounded, e.g.
        the fleet's ingest owner which never runs the drift loop).
    adaptive_window:
        Size each drift check's window from the observed check cadence
        (EWMA of points per check gap, clamped to
        ``[monitor_window_min, monitor_window]``) instead of the fixed
        ``monitor_window`` — detection latency stays flat as
        ``check_interval`` shrinks.
    monitor_window_min:
        Floor of the adaptive window (>= 8, the CI's minimum sample).
        Defaults to ``min(64, monitor_window)``.
    """

    drift_delta: float = 0.01
    monitor_window: int = 256
    hysteresis: int = 2
    check_interval: float = 0.25
    min_refit_interval: float = 1.0
    refit_deadline: float = 120.0
    refit_retries: int = 1
    refit_backoff: float = 0.05
    refit_sample_cap: int = 20000
    sketch_capacity: int = 4096
    canary_queries: int = 32
    probe_seed: int = 7
    swap_grace: float = 5.0
    fsync_policy: str = "always"
    fsync_interval: float = 0.05
    wal_segment_bytes: int = 4 << 20
    wal_compact_bytes: int = 64 << 20
    adaptive_window: bool = False
    monitor_window_min: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.drift_delta < 1.0:
            raise ValueError(f"drift_delta must be in (0, 1), got {self.drift_delta}")
        if self.monitor_window < 8:
            raise ValueError(f"monitor_window must be >= 8, got {self.monitor_window}")
        if self.hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {self.hysteresis}")
        for name in (
            "check_interval", "refit_deadline", "swap_grace",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("min_refit_interval", "refit_backoff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.refit_retries < 0:
            raise ValueError(f"refit_retries must be >= 0, got {self.refit_retries}")
        if self.refit_sample_cap < 2:
            raise ValueError(
                f"refit_sample_cap must be >= 2, got {self.refit_sample_cap}"
            )
        if self.sketch_capacity < 2:
            raise ValueError(
                f"sketch_capacity must be >= 2, got {self.sketch_capacity}"
            )
        if self.canary_queries < 1:
            raise ValueError(f"canary_queries must be >= 1, got {self.canary_queries}")
        if self.fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"got {self.fsync_policy!r}"
            )
        if self.fsync_interval < 0:
            raise ValueError(
                f"fsync_interval must be >= 0, got {self.fsync_interval}"
            )
        if self.wal_segment_bytes < 1024:
            raise ValueError(
                f"wal_segment_bytes must be >= 1024, got {self.wal_segment_bytes}"
            )
        if self.wal_compact_bytes < self.wal_segment_bytes:
            raise ValueError(
                "wal_compact_bytes must be >= wal_segment_bytes, got "
                f"{self.wal_compact_bytes} < {self.wal_segment_bytes}"
            )
        if self.monitor_window_min is None:
            object.__setattr__(
                self, "monitor_window_min", min(64, self.monitor_window)
            )
        if not 8 <= self.monitor_window_min <= self.monitor_window:
            raise ValueError(
                "monitor_window_min must be in [8, monitor_window], got "
                f"{self.monitor_window_min} (monitor_window={self.monitor_window})"
            )

    @property
    def staleness_bound(self) -> float:
        """Declared worst-case seconds from drift onset to swap.

        Detection: the violating window must survive ``hysteresis``
        checks, plus one check interval of scheduling slack. Refit:
        every attempt is deadline-bounded, plus the retry backoffs.
        Swap: ``swap_grace``. Derivation in ``docs/streaming.md``.
        """
        detection = (self.hysteresis + 1) * self.check_interval
        backoffs = sum(
            self.refit_backoff * (2 ** max(attempt - 1, 0))
            for attempt in range(1, self.refit_retries + 1)
        )
        refit = (self.refit_retries + 1) * self.refit_deadline + backoffs
        return detection + refit + self.swap_grace


def window_densities(classifier: TKDCClassifier, window: np.ndarray) -> np.ndarray:
    """Density estimates of drift-window points from the classify traversal.

    Each point's estimate is the midpoint of the interval
    :meth:`~repro.core.classifier.TKDCClassifier.classify_detailed`
    decided it on, or its lower bound where the upper one is infinite
    (grid hits). Budget-degraded points fall back to the tolerance-only
    estimator. Why this cannot raise a false drift alarm is argued in
    :mod:`repro.streaming.monitor`.
    """
    result = classifier.classify_detailed(window, engine="batch")
    densities = np.where(
        np.isinf(result.upper), result.lower, 0.5 * (result.lower + result.upper)
    )
    if result.degraded.any():
        densities[result.degraded] = classifier.estimate_density(
            window[result.degraded], engine="batch"
        )
    return densities


def _finite_rows(points: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows of ``points`` with every coordinate finite, and how many were not."""
    keep = np.isfinite(points).all(axis=1)
    return points[keep], int(keep.size - np.count_nonzero(keep))


class LocalReloader:
    """Verified swap for pipelines with no daemon attached.

    The same three-stage protocol as
    :class:`~repro.serve.reload.ModelManager.reload` — sha256-verified
    load, canary classification, swap-by-assignment — minus the serving
    calibration. Anything with ``reload(path) -> ReloadResult`` and a
    ``classifier`` attribute duck-types as the pipeline's swap target.
    """

    def __init__(self, canary_queries: int = 32, probe_seed: int = 7) -> None:
        self.canary_queries = canary_queries
        self.probe_seed = probe_seed
        self.classifier: TKDCClassifier | None = None

    def reload(self, path: Path | str) -> ReloadResult:
        try:
            candidate_path = resolve_model_path(path)
            candidate = load_model(candidate_path)
        except Exception as exc:
            return ReloadResult(
                ok=False, stage="load", model_path=str(path),
                error=f"{type(exc).__name__}: {exc}",
            )
        candidate = prepare_classifier(candidate)
        try:
            run_canary(candidate, self.canary_queries, seed=self.probe_seed)
        except Exception as exc:
            return ReloadResult(
                ok=False, stage="canary", model_path=str(candidate_path),
                error=f"{type(exc).__name__}: {exc}",
            )
        self.classifier = candidate
        return ReloadResult(
            ok=True, stage="swapped", model_path=str(candidate_path),
            threshold=candidate.threshold.value,
        )


class StreamingPipeline:
    """Owns the serving model, the sketch, the monitor, and the loop.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.incremental.IncrementalTKDC`. Its
        automatic synchronous refits are disabled — the pipeline owns
        refits from here on.
    settings:
        :class:`StreamSettings` (defaults are production-shaped; tests
        shrink them).
    reloader:
        The verified swap target: anything with ``reload(path) ->
        ReloadResult``. Defaults to a :class:`LocalReloader`; attach a
        :class:`~repro.serve.reload.ModelManager` (or fleet router) to
        make the daemon serve each new generation too.
    artifact_dir:
        Where refit artifacts are written (a temp dir by default; under
        ``wal_dir/artifacts`` when a WAL is attached, so swap-committed
        artifacts survive a restart and recovery can reload them).
    plan:
        Optional :class:`~repro.robustness.faults.DriftPlan` consulted
        by refit subprocesses (fault injection for tests/benchmarks).
    wal / wal_dir:
        Attach a :class:`~repro.streaming.wal.WriteAheadLog` (or build
        one in ``wal_dir`` from the settings' fsync knobs). With a WAL
        attached every accepted ingest batch is appended — and, under
        ``fsync_policy="always"``, fsynced — *before* it is applied in
        memory, so the acknowledgement implies crash durability. Use
        :meth:`recover` to rebuild the pipeline from an existing WAL.
    clock:
        Injectable monotonic clock.
    """

    #: Out-of-order tolerance for exact-duplicate ingest detection: at
    #: most this many applied-but-non-contiguous seqs are remembered
    #: per source. A seq that never arrives (its batch was refused
    #: before reaching the WAL) would pin the watermark forever; once
    #: the window overflows, the oldest gap is declared permanently
    #: failed and collapsed — by then the router's single same-seq
    #: retry has long since happened or never will.
    REORDER_WINDOW = 4096

    def __init__(
        self,
        model: IncrementalTKDC,
        settings: StreamSettings | None = None,
        reloader=None,
        artifact_dir: Path | str | None = None,
        plan: DriftPlan | None = None,
        seed_data: np.ndarray | None = None,
        wal: WriteAheadLog | None = None,
        wal_dir: Path | str | None = None,
        clock=time.monotonic,
    ) -> None:
        model.classifier  # raises if unfitted
        model.auto_refit = False
        self.model = model
        self.settings = settings or StreamSettings()
        self.reloader = (
            reloader
            if reloader is not None
            else LocalReloader(self.settings.canary_queries, self.settings.probe_seed)
        )
        if wal is None and wal_dir is not None:
            wal = WriteAheadLog(
                wal_dir,
                fsync_policy=self.settings.fsync_policy,
                fsync_interval=self.settings.fsync_interval,
                segment_bytes=self.settings.wal_segment_bytes,
            )
        self.wal = wal
        if artifact_dir is None and wal is not None:
            artifact_dir = wal.directory / "artifacts"
        self._artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.plan = plan
        self._clock = clock
        self._rng = np.random.default_rng(self.settings.probe_seed)
        self._lock = threading.RLock()
        self.sketch = StreamSketch(self.settings.sketch_capacity)
        if seed_data is not None:
            self.sketch.append(seed_data)
        self.monitor = DriftMonitor(
            p=model.config.p,
            delta=self.settings.drift_delta,
            window=self.settings.monitor_window,
            hysteresis=self.settings.hysteresis,
            min_refit_interval=self.settings.min_refit_interval,
            clock=clock,
        )
        self._window: deque[np.ndarray] = deque(maxlen=self.settings.monitor_window)
        self.initial_n = model.n_total
        self._sketch_base = self.sketch.n_seen
        self.ingested_total = 0
        self.duplicates_skipped = 0
        self.refits_triggered = 0
        self.refits_succeeded = 0
        self.refits_failed = 0
        self.swaps = 0
        self.rollbacks = 0
        self.monitor_errors = 0
        self._refit_generation = 0
        self._refit_in_flight = False
        self._drift_since: float | None = None
        self._last_decision: DriftDecision | None = None
        self._last_refit: RefitOutcome | None = None
        self._last_swap: ReloadResult | None = None
        #: Per-source contiguous watermarks for idempotent ingest (the
        #: fleet router stamps each forwarded batch with (epoch, seq)).
        #: A watermark only advances through consecutive seqs; applied
        #: seqs above it wait in :attr:`_ingest_pending_seqs`, so a
        #: lower-seq batch that merely *arrives* late (two concurrent
        #: forwards racing) is never mistaken for a duplicate.
        self._ingest_watermarks: dict[str, int] = {}
        #: Applied-but-not-yet-contiguous seqs per source (the
        #: out-of-order window above each watermark).
        self._ingest_pending_seqs: dict[str, set[int]] = {}
        #: Artifact path of the currently adopted classifier, when it
        #: came from a swapped refit (None for the initial model — the
        #: recovery path falls back to a caller-provided classifier).
        self._classifier_path: str | None = None
        #: Populated by :meth:`recover`; surfaced in status()/"/statz".
        self.recovery: dict | None = None
        #: Non-finite rows :meth:`recover` dropped from a log or
        #: checkpoint written before ingest refused them.
        self.replay_rows_dropped = 0
        #: Adaptive-window cadence estimate (EWMA of points per check gap).
        self._last_check_at: float | None = None
        self._ingested_at_last_check = 0
        self._points_per_gap_ewma: float | None = None
        self._check_gap_ewma: float | None = None
        #: Wall seconds of the last and slowest drift test (window
        #: densities + decision; a fired refit is timed separately).
        self._check_seconds_last: float | None = None
        self._check_seconds_max = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if self.wal is not None and self.wal.empty:
            # A fresh WAL gets a base snapshot immediately: recovery
            # always finds a checkpoint to replay from.
            self._write_wal_snapshot()

    @classmethod
    def from_data(
        cls,
        data: np.ndarray,
        config=None,
        settings: StreamSettings | None = None,
        **kwargs,
    ) -> "StreamingPipeline":
        """Fit the initial model on ``data`` and seed the sketch with it."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        model = IncrementalTKDC(config, auto_refit=False).fit(data)
        return cls(model, settings=settings, seed_data=data, **kwargs)

    @classmethod
    def from_classifier(
        cls,
        classifier: TKDCClassifier,
        settings: StreamSettings | None = None,
        **kwargs,
    ) -> "StreamingPipeline":
        """Wrap an already-loaded model (daemon boot path: raw data is
        unavailable, so the sketch starts empty and refits train on the
        ingested stream only)."""
        population = (
            classifier.coreset_.n
            if classifier.coreset_ is not None
            else classifier.tree.size
        )
        model = IncrementalTKDC(classifier.config, auto_refit=False)
        model.adopt(classifier, n_indexed=int(population))
        return cls(model, settings=settings, **kwargs)

    @classmethod
    def recover(
        cls,
        wal_dir: Path | str,
        settings: StreamSettings | None = None,
        fallback_classifier: TKDCClassifier | None = None,
        reloader=None,
        artifact_dir: Path | str | None = None,
        plan: DriftPlan | None = None,
        clock=time.monotonic,
    ) -> "StreamingPipeline":
        """Rebuild a pipeline from its WAL after a crash or restart.

        Opens the WAL (validating checksums; a torn final record is
        truncated and counted, mid-log corruption raises
        :class:`~repro.streaming.wal.WalCorruptionError`), restores the
        newest snapshot's full state — exact buffer, sketch,
        conservation counters, idempotency watermarks, accounting
        generation — then replays every later record: acknowledged
        ingest batches are re-applied (exact duplicates skipped),
        committed swaps re-adopt their recorded artifact, and a refit
        trigger with no matching commit is accounted as failed (the
        refit died with the process; the monitor will re-detect).

        ``fallback_classifier`` serves two cases: a snapshot taken
        before any swap records no artifact path (the initial model
        lives outside the WAL — pass the daemon's ``--model``), and a
        recorded artifact that no longer loads. Recovery statistics land
        in :attr:`recovery` (and ``/statz``'s ``streaming.recovery``).

        Rows holding NaN or infinity, which ingest refuses but earlier
        versions logged, are dropped from the checkpoint (buffer, sketch,
        drift window) and from replayed batches, un-counted from
        ``ingested_total``, reported as ``replay_rows_dropped`` in
        :meth:`status` and named in one warning.

        A fresh snapshot is written at the end, so the next recovery
        starts from the recovered state rather than re-replaying.
        """
        settings = settings or StreamSettings()
        started = time.perf_counter()
        wal = WriteAheadLog(
            wal_dir,
            fsync_policy=settings.fsync_policy,
            fsync_interval=settings.fsync_interval,
            segment_bytes=settings.wal_segment_bytes,
        )
        try:
            return cls._recover_from(
                wal, settings, fallback_classifier, reloader,
                artifact_dir, plan, clock, started,
            )
        except BaseException:
            wal.close()
            raise

    @classmethod
    def _recover_from(
        cls, wal, settings, fallback_classifier, reloader,
        artifact_dir, plan, clock, started,
    ) -> "StreamingPipeline":
        records = iter(wal.replay())
        state: dict | None = None
        first = next(records, None)
        if first is not None and first.type == RECORD_SNAPSHOT:
            state = first.snapshot_payload()
        elif first is not None:
            # No checkpoint survived (crash before the base snapshot);
            # everything in the log replays over the fallback model.
            records = iter([first, *records])

        used_fallback = False
        if state is not None:
            classifier = None
            path = state.get("classifier_path")
            if path is not None:
                try:
                    classifier = prepare_classifier(
                        load_model(resolve_model_path(path))
                    )
                except Exception as exc:  # noqa: BLE001 - fail soft to fallback
                    log.warning(
                        "recovery: snapshot classifier %s failed to load "
                        "(%s: %s); falling back to the provided model",
                        path, type(exc).__name__, exc,
                    )
            if classifier is None:
                if fallback_classifier is None:
                    raise WalError(
                        "WAL snapshot has no loadable classifier "
                        f"(classifier_path={path!r}) and no "
                        "fallback_classifier was provided"
                    )
                classifier = fallback_classifier
                used_fallback = True
            model = IncrementalTKDC(classifier.config, auto_refit=False)
            model.adopt(
                classifier,
                n_indexed=int(state["n_indexed"]),
                generation=int(state["model_generation"]),
            )
        else:
            if fallback_classifier is None:
                raise WalError(
                    f"WAL at {wal.directory} holds no snapshot and no "
                    "fallback_classifier was provided"
                )
            classifier = fallback_classifier
            used_fallback = True
            population = (
                classifier.coreset_.n
                if classifier.coreset_ is not None
                else classifier.tree.size
            )
            model = IncrementalTKDC(classifier.config, auto_refit=False)
            model.adopt(classifier, n_indexed=int(population))

        pipeline = cls(
            model, settings=settings, reloader=reloader,
            artifact_dir=artifact_dir, plan=plan, wal=wal, clock=clock,
        )
        dropped_from_checkpoint = 0
        if state is not None:
            sketch = dict(state["sketch"])
            if sketch["points"] is not None:
                # The sketch's n_seen still counts every point it folded.
                keep = np.isfinite(sketch["points"]).all(axis=1)
                sketch["points"], sketch["weights"] = (
                    (sketch["points"][keep], sketch["weights"][keep])
                    if keep.any() else (None, None)
                )
            buffer = state["buffer"]
            if buffer is not None:
                buffer, dropped_from_checkpoint = _finite_rows(buffer)
            pipeline.sketch = StreamSketch.restore(sketch)
            # Un-count dropped buffer rows from ingested_total, and move
            # the sketch's base with them so the two still agree.
            pipeline._sketch_base = int(state["sketch_base"]) + dropped_from_checkpoint
            pipeline.initial_n = int(state["initial_n"])
            pipeline.ingested_total = int(state["ingested_total"]) - dropped_from_checkpoint
            pipeline.duplicates_skipped = int(state["duplicates_skipped"])
            pipeline.refits_triggered = int(state["refits_triggered"])
            pipeline.refits_succeeded = int(state["refits_succeeded"])
            pipeline.refits_failed = int(state["refits_failed"])
            pipeline.swaps = int(state["swaps"])
            pipeline.rollbacks = int(state["rollbacks"])
            pipeline._refit_generation = int(state["refit_generation"])
            pipeline._ingest_watermarks = dict(state["watermarks"])
            pipeline._ingest_pending_seqs = {
                s: set(p) for s, p in state.get("pending_seqs", {}).items()
            }
            pipeline._classifier_path = state.get("classifier_path")
            if buffer is not None and buffer.shape[0]:
                pipeline.model.insert(buffer)
            if state["window"] is not None:
                pipeline._window.extend(_finite_rows(state["window"])[0])

        counts: dict[str, int] = {}
        points_replayed = 0
        dropped_from_log = 0
        skipped_swaps = 0
        pending_triggers: dict[int, dict] = {}
        for record in records:
            counts[record.type_name] = counts.get(record.type_name, 0) + 1
            if record.type == RECORD_INGEST:
                points, meta = record.ingest_payload()
                source, seq = meta.get("source"), meta.get("seq")
                if source is not None and seq is not None:
                    seq = int(seq)
                    if seq >= 1:
                        if pipeline._seq_is_duplicate_locked(source, seq):
                            pipeline.duplicates_skipped += 1
                            continue
                        pipeline._mark_seq_applied_locked(source, seq)
                points, dropped = _finite_rows(points)
                dropped_from_log += dropped
                if not points.shape[0]:
                    continue
                pipeline.model.insert(points)
                pipeline.sketch.append(points)
                pipeline._window.extend(points)
                pipeline.ingested_total += points.shape[0]
                points_replayed += points.shape[0]
            elif record.type == RECORD_REFIT_TRIGGER:
                payload = record.marker_payload()
                pipeline.refits_triggered += 1
                pending_triggers[int(payload["generation"])] = payload
            elif record.type == RECORD_SWAP_COMMIT:
                payload = record.marker_payload()
                generation = int(payload["generation"])
                if generation in pending_triggers:
                    del pending_triggers[generation]
                else:  # trigger compacted away; count the refit anyway
                    pipeline.refits_triggered += 1
                pipeline.refits_succeeded += 1
                pipeline._refit_generation = max(
                    pipeline._refit_generation, generation
                )
                candidate = None
                try:
                    candidate = prepare_classifier(
                        load_model(resolve_model_path(payload["artifact"]))
                    )
                except Exception as exc:  # noqa: BLE001 - fail soft
                    log.warning(
                        "recovery: committed artifact %s no longer loads "
                        "(%s: %s); skipping the swap — its points stay in "
                        "the exact buffer, conservation holds",
                        payload["artifact"], type(exc).__name__, exc,
                    )
                if candidate is None:
                    pipeline.rollbacks += 1
                    skipped_swaps += 1
                    continue
                # keep = points not represented by the committed model;
                # derived from totals so that conservation survives an
                # earlier skipped swap too.
                keep = pipeline.model.n_total - int(payload["n_indexed"])
                keep = max(0, min(keep, pipeline.model.n_buffered))
                pipeline.model.adopt(
                    candidate,
                    n_indexed=int(payload["n_indexed"]),
                    keep_last=keep,
                    generation=payload.get("model_generation"),
                )
                pipeline.swaps += 1
                pipeline._classifier_path = payload["artifact"]
        # A trigger whose commit never landed: the refit was in flight
        # when the process died — it failed.
        unresolved = len(pending_triggers)
        pipeline.refits_failed += unresolved
        if pending_triggers:
            pipeline._refit_generation = max(
                pipeline._refit_generation, *pending_triggers
            )

        pipeline.replay_rows_dropped = dropped_from_checkpoint + dropped_from_log
        if pipeline.replay_rows_dropped:
            log.warning(
                "recovery: dropped %d non-finite rows (%d from the checkpoint "
                "buffer, %d from replayed ingest batches) that an earlier "
                "version accepted; they are no longer counted as ingested",
                pipeline.replay_rows_dropped, dropped_from_checkpoint,
                dropped_from_log,
            )
        pipeline.recovery = {
            "recovered": state is not None,
            "records_replayed": int(sum(counts.values())),
            "replayed_by_type": counts,
            "points_replayed": int(points_replayed),
            "recovered_torn_records": int(wal.recovered_torn_records),
            "skipped_swaps": int(skipped_swaps),
            "unresolved_refits": int(unresolved),
            "used_fallback_classifier": bool(used_fallback),
            "seconds": float(time.perf_counter() - started),
        }
        record_wal_replay(counts, wal.recovered_torn_records)
        if state is not None or counts:
            # A first boot over a brand-new empty WAL restores nothing;
            # only count runs that actually carried state forward.
            record_stream_recovery()
        pipeline._write_wal_snapshot()
        log.info(
            "recovered streaming pipeline from %s: %d records (%d points) "
            "replayed in %.3fs, %d torn, %d skipped swaps, %d unresolved "
            "refits",
            wal.directory, pipeline.recovery["records_replayed"],
            points_replayed, pipeline.recovery["seconds"],
            wal.recovered_torn_records, skipped_swaps, unresolved,
        )
        return pipeline

    # ------------------------------------------------------------------
    # Ingest + serve
    # ------------------------------------------------------------------

    def ingest(self, points: np.ndarray) -> int:
        """Fold new points into buffer, sketch, and drift window."""
        return int(self.ingest_batch(points)["accepted"])

    def _seq_is_duplicate_locked(self, source: str, seq: int) -> bool:
        """Exact-duplicate check for one idempotency key (lock held).

        A batch is a duplicate only if that *exact* seq was already
        applied: at or below the source's contiguous watermark, or in
        the out-of-order window above it. Concurrent forwards from the
        router can reach this worker out of seq order, so a lower seq
        arriving after a higher one is new data, not a retry.
        """
        if seq <= self._ingest_watermarks.get(source, 0):
            return True
        return seq in self._ingest_pending_seqs.get(source, ())

    def _mark_seq_applied_locked(self, source: str, seq: int) -> None:
        """Record an applied seq; advance the watermark only through
        consecutive values (lock held)."""
        pending = self._ingest_pending_seqs.setdefault(source, set())
        pending.add(seq)
        watermark = self._ingest_watermarks.get(source, 0)
        while watermark + 1 in pending:
            watermark += 1
            pending.discard(watermark)
        while len(pending) > self.REORDER_WINDOW:
            # Window overflow: the lowest gap's batch is never coming
            # (see REORDER_WINDOW); jump the watermark over it.
            watermark = min(pending)
            pending.discard(watermark)
            while watermark + 1 in pending:
                watermark += 1
                pending.discard(watermark)
        self._ingest_watermarks[source] = watermark
        if not pending:
            del self._ingest_pending_seqs[source]

    def ingest_batch(
        self,
        points: np.ndarray,
        source: str | None = None,
        source_seq: int | None = None,
    ) -> dict:
        """Durable, idempotent ingest of one batch.

        With a WAL attached the batch is appended (and, per the fsync
        policy, made durable) *before* it touches the in-memory state —
        returning from this method is the acknowledgement contract.

        ``(source, source_seq)`` is an optional idempotency key with
        *exact-duplicate* semantics: a batch is refused only when that
        precise seq was already applied — at or below the source's
        contiguous watermark, or in the bounded out-of-order window
        above it (:attr:`REORDER_WINDOW`). The fleet router retries a
        forwarded batch with the same key after an owner failure, so a
        retry that raced a successful append cannot double-ingest; and
        because concurrent forwards can arrive here out of seq order, a
        late lower-seq batch is applied, not dropped. Sequence numbers
        are assigned per source from 1 upward, each used exactly once
        (``source_seq`` must be >= 1). A row of the wrong dimensionality
        or holding NaN or infinity raises ``ValueError`` before anything
        is logged or applied.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        rows = int(points.shape[0])
        if rows == 0:
            return {"accepted": 0, "duplicate": False}
        # Checked before the WAL append would make a bad row durable.
        points = as_insert_rows(points, self.model.classifier.kernel.dim, "ingest")
        keyed = source is not None and source_seq is not None
        if keyed:
            source_seq = int(source_seq)
            if source_seq < 1:
                raise ValueError(
                    f"source_seq must be a positive integer, got {source_seq}"
                )
        with self._lock:
            if keyed and self._seq_is_duplicate_locked(source, source_seq):
                self.duplicates_skipped += 1
                return {"accepted": 0, "duplicate": True}
            if self.wal is not None:
                meta = (
                    {"source": source, "seq": source_seq} if keyed else {}
                )
                self.wal.append_ingest(points, meta)
            if keyed:
                self._mark_seq_applied_locked(source, source_seq)
            self.model.insert(points)
            self.sketch.append(points)
            self._window.extend(points)
            self.ingested_total += rows
            compact_due = (
                self.wal is not None
                and self.wal.size_bytes() > self.settings.wal_compact_bytes
            )
        record_ingest(rows)
        if compact_due:
            # Swap-free ingest (e.g. the fleet's ingest owner) would
            # otherwise grow the log without bound; checkpoint + truncate.
            self._write_wal_snapshot()
        return {"accepted": rows, "duplicate": False}

    # ------------------------------------------------------------------
    # WAL checkpointing
    # ------------------------------------------------------------------

    def _wal_state_locked(self) -> dict:
        """Full pipeline state for a WAL snapshot (caller holds the lock).

        The adopted classifier itself is NOT pickled — snapshots record
        its artifact path (swapped refits live under the durable
        ``artifact_dir``); the initial, never-swapped model has no path
        and :meth:`recover` falls back to a caller-provided classifier.
        """
        rows = self.model.buffer_view
        return {
            "version": 1,
            "model_generation": int(self.model.generation),
            "n_indexed": int(self.model.n_indexed),
            "buffer": rows.copy() if rows.shape[0] else None,
            "classifier_path": self._classifier_path,
            "initial_n": int(self.initial_n),
            "ingested_total": int(self.ingested_total),
            "duplicates_skipped": int(self.duplicates_skipped),
            "refits_triggered": int(self.refits_triggered),
            "refits_succeeded": int(self.refits_succeeded),
            "refits_failed": int(self.refits_failed),
            "swaps": int(self.swaps),
            "rollbacks": int(self.rollbacks),
            "refit_generation": int(self._refit_generation),
            "sketch": self.sketch.state(),
            "sketch_base": int(self._sketch_base),
            "watermarks": dict(self._ingest_watermarks),
            "pending_seqs": {
                s: set(p) for s, p in self._ingest_pending_seqs.items()
            },
            "window": np.array(self._window) if self._window else None,
        }

    def _write_wal_snapshot(self) -> None:
        """Checkpoint state into the WAL and truncate replayed history.

        Holds the pipeline lock across capture *and* truncation, so a
        concurrent acknowledged append can never fall between the
        snapshot's state and the records it deletes.
        """
        wal = self.wal
        if wal is None or wal.closed:
            return
        with self._lock:
            wal.write_snapshot(self._wal_state_locked())

    def classify(self, queries: np.ndarray) -> np.ndarray:
        """Serve labels counting every ingested point exactly."""
        with self._lock:
            return self.model.classify(queries)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        with self._lock:
            return self.model.predict(queries)

    def serving_view(self) -> IncrementalTKDC:
        """A consistent snapshot of the served model for lock-free serving.

        Shallow-copies the incremental model under the pipeline lock, so
        the classifier reference, the counts, the scaled buffer and the
        tree holding the absorbed rows are captured atomically and the
        shifted-threshold algebra stays coherent across a mid-request
        swap. The daemon then runs a budgeted classify *outside* the
        lock. The view shares the scaled buffer rows and the absorbed
        tree: an ingest only writes past the live count, an absorb
        installs a new tree, and a refit or :meth:`IncrementalTKDC.adopt`
        installs a new array and tree. It holds no raw rows (an adopt
        slides those in place), so it serves classify and nothing that
        reads ``buffer_view``.
        """
        with self._lock:
            view = copy.copy(self.model)
        view._buffer_array = None
        return view

    # ------------------------------------------------------------------
    # Drift check + refit + swap
    # ------------------------------------------------------------------

    def check_drift_once(self) -> DriftDecision:
        """One synchronous monitor pass; refits and swaps if it fires.

        The background loop calls this on its cadence; tests call it
        directly for deterministic control flow.
        """
        with self._lock:
            self._update_cadence_locked()
            effective = self._effective_window_locked()
            if len(self._window) < effective:
                low_testable, high_testable = self.monitor.testable_sides(effective)
                decision = DriftDecision(
                    checked=False, drifted=False, fired=False,
                    reason="window_filling", window=len(self._window),
                    low_testable=low_testable, high_testable=high_testable,
                )
                self._last_decision = decision
                record_drift_check("skipped")
                self._publish_staleness_locked()
                return decision
            # The test runs under the pipeline lock. It is one classify
            # traversal of the window (milliseconds), and holding the
            # lock keeps it from being convoyed on the GIL behind
            # threads that ingest or classify through this pipeline:
            # measured outside the lock, a 4 ms check took 2-10 s of
            # wall time next to a busy classify loop.
            started = time.perf_counter()
            classifier = self.model.classifier
            densities = window_densities(classifier, np.array(self._window))
            threshold = classifier.threshold.value
            decision = self.monitor.observe(
                densities, threshold, tolerance=classifier.config.epsilon * threshold,
                window=effective if self.settings.adaptive_window else None,
            )
            elapsed = time.perf_counter() - started
            self._check_seconds_last = elapsed
            self._check_seconds_max = max(self._check_seconds_max, elapsed)
            record_drift_check_seconds(elapsed, self._check_seconds_max)
            self._last_decision = decision
            if decision.drifted and self._drift_since is None:
                self._drift_since = self._clock()
            elif decision.checked and not decision.drifted:
                self._drift_since = None
            record_drift_check(
                "fired" if decision.fired
                else "drifted" if decision.drifted
                else "stable"
            )
            self._publish_staleness_locked()
        if decision.fired:
            self.refit_and_swap()
        return decision

    def _update_cadence_locked(self) -> None:
        """Fold one observed check gap into the cadence EWMAs."""
        now = self._clock()
        if self._last_check_at is not None:
            alpha = 0.2
            gap = max(now - self._last_check_at, 0.0)
            points = self.ingested_total - self._ingested_at_last_check
            self._check_gap_ewma = (
                gap if self._check_gap_ewma is None
                else (1.0 - alpha) * self._check_gap_ewma + alpha * gap
            )
            self._points_per_gap_ewma = (
                float(points) if self._points_per_gap_ewma is None
                else (1.0 - alpha) * self._points_per_gap_ewma + alpha * points
            )
        self._last_check_at = now
        self._ingested_at_last_check = self.ingested_total

    def _effective_window_locked(self) -> int:
        """The drift window this check should use.

        Fixed ``monitor_window`` unless ``adaptive_window`` is on, in
        which case the window tracks the points actually arriving per
        check gap (EWMA), clamped to ``[monitor_window_min,
        monitor_window]`` — a fast check cadence then checks small fresh
        windows instead of re-testing a mostly-stale large one.
        """
        settings = self.settings
        if not settings.adaptive_window or self._points_per_gap_ewma is None:
            return settings.monitor_window
        return int(min(
            settings.monitor_window,
            max(settings.monitor_window_min, round(self._points_per_gap_ewma)),
        ))

    def refit_and_swap(self) -> RefitOutcome | None:
        """Run one supervised refit and, if it survives, the verified swap.

        Blocking (the caller is the background thread); classification
        and ingest stay live throughout — the pipeline lock is held only
        around the snapshot and the final adopt.
        """
        with self._lock:
            if self._refit_in_flight:
                return None
            self._refit_in_flight = True
            self._refit_generation += 1
            generation = self._refit_generation
            self.refits_triggered += 1
            # Snapshot counters and sketch atomically vs ingest: every
            # point at or before this moment is in the snapshot, every
            # later point stays in the exact buffer across the swap.
            n_snapshot = self.model.n_total
            buffered_at_snapshot = self.model.n_buffered
            snapshot = self.sketch.training_sample(
                self.settings.refit_sample_cap, self._rng
            )
            sketch_info = self.sketch.snapshot()
            if self.wal is not None and not self.wal.closed:
                self.wal.append_marker(RECORD_REFIT_TRIGGER, {
                    "generation": generation,
                    "n_snapshot": int(n_snapshot),
                    "buffered_at_snapshot": int(buffered_at_snapshot),
                })
        record_refit("triggered")
        log.info(
            "refit generation %d triggered: %d sketch rows for %d stream points",
            generation, snapshot.shape[0], n_snapshot,
        )
        try:
            policy = SupervisionPolicy(
                timeout=self.settings.refit_deadline,
                max_retries=self.settings.refit_retries,
                backoff=self.settings.refit_backoff,
            )
            out_path = self.artifact_dir / f"model-gen-{generation:04d}.tkdc"
            outcome = run_refit(
                snapshot, self.model.config, out_path, generation,
                policy=policy, plan=self.plan,
                sketch_displacement=sketch_info["raw_displacement"],
                sketch_n=sketch_info["n_seen"],
            )
            with self._lock:
                self._last_refit = outcome
            if not outcome.ok:
                with self._lock:
                    self.refits_failed += 1
                record_refit("failed", outcome.seconds)
                self.monitor.note_refit()  # min interval = retry backoff
                log.error(
                    "refit generation %d FAILED (%s); serving model untouched",
                    generation, outcome.error,
                )
                return outcome
            with self._lock:
                self.refits_succeeded += 1
            record_refit("succeeded", outcome.seconds)
            swap = self.reloader.reload(outcome.model_path)
            with self._lock:
                self._last_swap = swap
            if not swap.ok:
                with self._lock:
                    self.rollbacks += 1
                record_refit("rolled_back")
                self.monitor.note_refit()
                log.error(
                    "refit generation %d artifact REFUSED at %s stage (%s); "
                    "previous model keeps serving",
                    generation, swap.stage, swap.error,
                )
                return outcome
            candidate = getattr(self.reloader, "classifier", None)
            if candidate is None:  # reloader without a live handle
                candidate = prepare_classifier(load_model(outcome.model_path))
            with self._lock:
                keep = self.model.n_buffered - buffered_at_snapshot
                self.model.adopt(candidate, n_indexed=n_snapshot, keep_last=keep)
                self.swaps += 1
                self._drift_since = None
                self._classifier_path = str(outcome.model_path)
                if self.wal is not None and not self.wal.closed:
                    self.wal.append_marker(RECORD_SWAP_COMMIT, {
                        "generation": generation,
                        "model_generation": int(self.model.generation),
                        "n_indexed": int(n_snapshot),
                        "buffered_at_snapshot": int(buffered_at_snapshot),
                        "artifact": str(outcome.model_path),
                        "threshold": float(outcome.threshold),
                        "eta": float(outcome.eta),
                        "eta_applied": float(outcome.eta_applied),
                    })
                self._publish_staleness_locked()
            # Compaction rides every successful swap: the snapshot
            # embodies the new generation, so the replayed-history
            # prefix (including this swap's markers) is truncated.
            self._write_wal_snapshot()
            record_refit("swapped")
            self.monitor.note_refit()
            log.info(
                "refit generation %d swapped in (threshold=%.6g, kept %d "
                "in-flight points buffered)",
                generation, outcome.threshold, keep,
            )
            return outcome
        finally:
            with self._lock:
                self._refit_in_flight = False

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background drift-check thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            window = self._effective_window_locked()
            if not self.monitor.testable_sides(window)[0]:
                log.warning(
                    "drift monitor: the low side (drift_low) cannot fire at "
                    "window %d with p=%g, delta=%g; raise monitor_window (--drift-window)",
                    window, self.monitor.p, self.monitor.delta,
                )
            self._thread = threading.Thread(
                target=self._monitor_loop, name="tkdc-drift-monitor", daemon=True
            )
            self._thread.start()

    def stop(self, join: bool = True) -> None:
        """Signal the loop to stop; optionally wait for it.

        With a WAL attached, a final snapshot is written and the log is
        closed (fsync + lock release) — a clean shutdown recovers with
        zero records to replay.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and join:
            # A refit may be mid-flight; its attempts are deadline-bounded.
            thread.join(timeout=self.settings.staleness_bound + 5.0)
        with self._lock:
            self._thread = None
        if self.wal is not None and not self.wal.closed:
            self._write_wal_snapshot()
            self.wal.close()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.settings.check_interval):
            try:
                self.check_drift_once()
            except Exception:  # noqa: BLE001 - the loop must never die
                with self._lock:
                    self.monitor_errors += 1
                log.exception("drift check failed; serving unaffected")

    # ------------------------------------------------------------------
    # Accounting + status
    # ------------------------------------------------------------------

    @property
    def artifact_dir(self) -> Path:
        with self._lock:
            if self._artifact_dir is None:
                self._artifact_dir = Path(
                    tempfile.mkdtemp(prefix="tkdc-refit-")
                )
            self._artifact_dir.mkdir(parents=True, exist_ok=True)
            return self._artifact_dir

    def staleness_seconds(self) -> float:
        """Age of the oldest unresolved drift detection (0 = current)."""
        with self._lock:
            if self._drift_since is None:
                return 0.0
            return max(self._clock() - self._drift_since, 0.0)

    def _publish_staleness_locked(self) -> None:
        record_staleness(
            0.0 if self._drift_since is None
            else max(self._clock() - self._drift_since, 0.0)
        )

    def verify_accounting(self) -> dict:
        """Check the pipeline's conservation invariants (JSON-ready).

        - every ingested point is represented by the serving model:
          ``model.n_total == initial_n + ingested_total``;
        - the sketch saw exactly the ingested stream;
        - every triggered refit terminated (succeeded/failed) unless one
          is in flight right now;
        - every produced artifact was swapped or rolled back.
        """
        with self._lock:
            expected_total = self.initial_n + self.ingested_total
            model_total = self.model.n_total
            sketch_ingested = self.sketch.n_seen - self._sketch_base
            in_flight = self._refit_in_flight
            open_refits = self.refits_triggered - (
                self.refits_succeeded + self.refits_failed
            )
            pending_swaps = self.refits_succeeded - (self.swaps + self.rollbacks)
            refits_balanced = open_refits == 0 or (in_flight and open_refits == 1)
            swaps_balanced = pending_swaps == 0 or (in_flight and pending_swaps == 1)
            ok = (
                model_total == expected_total
                and sketch_ingested == self.ingested_total
                and refits_balanced
                and swaps_balanced
            )
            return {
                "ok": bool(ok),
                "expected_total": int(expected_total),
                "model_total": int(model_total),
                "ingested_total": int(self.ingested_total),
                "sketch_ingested": int(sketch_ingested),
                "refits_triggered": int(self.refits_triggered),
                "refits_succeeded": int(self.refits_succeeded),
                "refits_failed": int(self.refits_failed),
                "swaps": int(self.swaps),
                "rollbacks": int(self.rollbacks),
                "refit_in_flight": bool(in_flight),
            }

    def status(self) -> dict:
        """JSON-ready pipeline state for /statz and the CLI."""
        with self._lock:
            last_decision = (
                None if self._last_decision is None else self._last_decision.as_dict()
            )
            last_refit = (
                None if self._last_refit is None else self._last_refit.as_dict()
            )
            last_swap = None if self._last_swap is None else self._last_swap.as_dict()
            effective = int(self._effective_window_locked())
            low_testable, high_testable = self.monitor.testable_sides(effective)
            return {
                "generation": int(self.model.generation),
                "n_total": int(self.model.n_total),
                "n_buffered": int(self.model.n_buffered),
                "absorbed_rows": int(self.model.n_absorbed),
                "exact_tail_rows": int(self.model.n_buffered - self.model.n_absorbed),
                "threshold": float(self.model.classifier.threshold.value),
                "ingested_total": int(self.ingested_total),
                "window_fill": len(self._window),
                "staleness_seconds": (
                    0.0 if self._drift_since is None
                    else max(self._clock() - self._drift_since, 0.0)
                ),
                "staleness_bound_seconds": self.settings.staleness_bound,
                "monitor_errors": int(self.monitor_errors),
                "monitor_window_effective": effective,
                "drift_sides": {"low": low_testable, "high": high_testable},
                "check_gap_ewma_seconds": (
                    None if self._check_gap_ewma is None
                    else float(self._check_gap_ewma)
                ),
                "drift_check_seconds": {
                    "last": self._check_seconds_last,
                    "max": float(self._check_seconds_max),
                },
                "duplicates_skipped": int(self.duplicates_skipped),
                "replay_rows_dropped": int(self.replay_rows_dropped),
                "sketch": self.sketch.snapshot(),
                "accounting": self.verify_accounting(),
                "wal": None if self.wal is None else self.wal.stats(),
                "recovery": self.recovery,
                "last_decision": last_decision,
                "last_refit": last_refit,
                "last_swap": last_swap,
            }
