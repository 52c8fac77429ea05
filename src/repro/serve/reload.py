"""Model lifecycle for the daemon: load, verified hot reload, rollback.

A long-running server cannot afford ``load → crash`` semantics for a
bad model file. :class:`ModelManager` owns the live classifier and
enforces a three-stage reload protocol:

1. **Integrity** — the candidate file is loaded through
   :func:`repro.io.models.load_model`, which verifies the sha256 footer
   and format magic *before unpickling*; a truncated or bit-flipped
   file raises :class:`~repro.io.models.ModelIntegrityError` and the
   reload is refused.
2. **Canary** — the candidate classifies a generated probe workload
   (budgeted, in-process) and the result is sanity-checked: correct
   shape, valid labels, ordered finite bounds, finite threshold. A model
   that deserializes but cannot classify is refused.
3. **Swap** — only after both stages pass is the live reference
   replaced (a single attribute assignment under a lock — in-flight
   requests keep the classifier object they already grabbed), and the
   deadline→budget calibration is re-measured for the new model.

Any failure leaves the previous model serving ("rollback" is the
absence of the swap), increments ``reloads_failed``, and is reported in
the returned :class:`ReloadResult` so the admin endpoint and logs can
alert.
"""

from __future__ import annotations

import copy
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.classifier import TKDCClassifier
from repro.core.result import ClassificationResult, Label
from repro.core.stats import TraversalStats
from repro.io.models import load_model, resolve_model_path
from repro.serve.calibrate import (
    BudgetCalibration,
    calibrate_for_serving,
    probe_queries,
)
from repro.serve.config import ServeConfig
from repro.serve.stats import ServerStats

log = logging.getLogger("repro.serve")

#: TraversalStats.extras key counting exact-O(n) guard fallbacks (see
#: repro.core.bounds.EXACT_FALLBACKS_KEY; duplicated literal to avoid a
#: heavy import chain here).
_FALLBACKS_KEY = "guard_exact_fallbacks"

#: Valid label values a canary classification may produce.
_VALID_LABELS = frozenset(int(label) for label in Label)


class CanaryError(RuntimeError):
    """A candidate model deserialized but failed its canary checks."""


def run_canary(candidate: TKDCClassifier, n_queries: int, seed: int) -> None:
    """Held-out probe classification a candidate must survive.

    Shared by :class:`ModelManager` and the streaming pipeline's
    standalone swap path, so a refit product faces the same canary
    whether or not a daemon is attached. Raises :class:`CanaryError`
    (or whatever the classify itself raises) on any failure.
    """
    probes = probe_queries(candidate, n_queries, seed=seed)
    clone = copy.copy(candidate)
    clone._stats = TraversalStats()
    result = clone.classify_detailed(probes)
    n = probes.shape[0]
    shapes = (
        result.labels.shape == (n,)
        and result.lower.shape == (n,)
        and result.upper.shape == (n,)
    )
    if not shapes:
        raise CanaryError(f"canary returned wrong shapes for {n} probes")
    if not all(int(label) in _VALID_LABELS for label in result.labels):
        raise CanaryError("canary produced labels outside LOW/HIGH/UNCERTAIN")
    lower = np.asarray(result.lower, dtype=float)
    upper = np.asarray(result.upper, dtype=float)
    if not (np.all(np.isfinite(lower)) and np.all(lower >= 0.0)):
        raise CanaryError("canary produced non-finite or negative lower bounds")
    if not np.all(lower <= upper):
        raise CanaryError("canary produced inverted density bounds")
    threshold = float(result.threshold)
    if not (np.isfinite(threshold) and threshold >= 0.0):
        raise CanaryError(f"canary threshold is invalid: {threshold}")
    if bool(np.all(result.invalid)):
        raise CanaryError("canary flagged every probe row invalid")


def prepare_classifier(classifier: TKDCClassifier) -> TKDCClassifier:
    """Pin serving-safe config and pre-build shared read-only state.

    Used by the single-process manager and the fleet router alike, so a
    model serves under identical semantics in both modes.
    """
    if not classifier.is_fitted:
        raise ValueError("model file contains an unfitted classifier")
    # flag: bad rows become UNCERTAIN instead of batch-level errors;
    # n_jobs=1: request parallelism comes from the worker fleet, not a
    # per-request process pool.
    classifier.config = classifier.config.with_updates(
        query_policy="flag", n_jobs=1
    )
    # Build the flat tree once before threads share the object.
    classifier.tree.flatten()
    return classifier


@dataclass(frozen=True)
class ReloadResult:
    """Outcome of one reload attempt (JSON-ready via ``as_dict``)."""

    ok: bool
    stage: str  #: "swapped", or the stage that refused: "load"/"canary"
    model_path: str
    error: str | None = None
    threshold: float | None = None
    expansions_per_second: float | None = None
    engine: str | None = None
    engine_reason: str | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "stage": self.stage,
            "model_path": self.model_path,
            "error": self.error,
            "threshold": self.threshold,
            "expansions_per_second": self.expansions_per_second,
            "engine": self.engine,
            "engine_reason": self.engine_reason,
        }


class ModelManager:
    """Owns the live classifier, its calibration, and the reload protocol.

    ``classify`` is safe to call from many handler threads at once: the
    live classifier is grabbed once per request (reference assignment is
    atomic), and per-request budgets are applied to a shallow *clone*
    with its own config and stats object — the shared index arrays are
    read-only — so concurrent requests with different budgets never race
    on configuration, and per-request fallback counts are exact.
    """

    def __init__(
        self,
        model_path: Path | str,
        config: ServeConfig,
        stats: ServerStats | None = None,
        classifier: TKDCClassifier | None = None,
        calibration: BudgetCalibration | None = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else ServerStats()
        self._lock = threading.RLock()
        self._traversal_totals = TraversalStats()
        #: Test seam: called with the query matrix before every classify;
        #: fault-injection tests make it stall or raise deterministically.
        self.classify_hook: Callable[[np.ndarray], None] | None = None
        if classifier is None:
            self.model_path = resolve_model_path(model_path)
            classifier = load_model(self.model_path)
        else:
            self.model_path = Path(model_path)
        self._classifier = self._prepare(classifier)
        # Fleet workers inject the router-measured calibration (shipped
        # via the shm manifest) so the fleet boots with one measurement
        # and every worker maps deadlines to budgets identically.
        if calibration is not None:
            self.calibration = calibration
            # A worker that inherits the router's calibration must also
            # resolve engine="auto" exactly the way the router did —
            # label parity across the fleet depends on it.
            self._classifier.engine_selected_ = calibration.engine
            self._classifier.engine_reason_ = calibration.engine_reason
        else:
            self.calibration = calibrate_for_serving(
                self._classifier, config.calibration_queries, seed=config.probe_seed
            )
        log.info(
            "model %s loaded: threshold=%.6g, %.3g expansions/s (%s), engine=%s (%s)",
            self.model_path, self._classifier.threshold.value,
            self.calibration.expansions_per_second,
            "measured" if self.calibration.measured else "fallback",
            self.calibration.engine, self.calibration.engine_reason,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def classifier(self) -> TKDCClassifier:
        return self._classifier

    def budget_for(self, remaining_seconds: float) -> int:
        return self.calibration.budget_for(
            remaining_seconds, self.config.budget_safety, self.config.min_budget
        )

    def classify(
        self, points: np.ndarray, budget: int | None, stream=None
    ) -> tuple[ClassificationResult, int]:
        """Budgeted detailed classification; returns (result, fallbacks).

        ``fallbacks`` counts exact-O(n) guard fallbacks this request
        triggered — the breaker's structural-failure signal.

        ``stream`` (an :class:`~repro.core.incremental.IncrementalTKDC`
        snapshot from ``StreamingPipeline.serving_view()``) routes the
        request through the combined-density streaming path, which folds
        every ingested point's exact buffer contribution into the
        decision (``docs/streaming.md``). The snapshot carries its own
        classifier reference so counts and threshold stay coherent
        mid-swap.

        The budget and a fresh :class:`TraversalStats` go to
        ``classify_detailed`` as arguments: the live classifier's config
        and counters are never touched by a request.
        """
        if self.classify_hook is not None:
            self.classify_hook(points)
        stats = TraversalStats()
        target = stream if stream is not None else self._classifier
        result = target.classify_detailed(points, max_expansions=budget, stats=stats)
        fallbacks = int(stats.extras.get(_FALLBACKS_KEY, 0.0))
        with self._lock:
            self._traversal_totals.merge(stats)
        if fallbacks:
            self.stats.bump("exact_fallbacks", fallbacks)
        return result, fallbacks

    def traversal_snapshot(self) -> dict[str, float]:
        with self._lock:
            return self._traversal_totals.snapshot()

    # ------------------------------------------------------------------
    # Reload
    # ------------------------------------------------------------------

    def reload(self, path: Path | str | None = None) -> ReloadResult:
        """Run the verify-then-swap protocol; never disturbs the live model
        on failure."""
        requested = path if path is not None else self.model_path
        try:
            candidate_path = resolve_model_path(requested)
            candidate = load_model(candidate_path)
        except Exception as exc:
            return self._refused(requested, "load", exc)
        candidate = self._prepare(candidate)
        try:
            self._canary(candidate)
        except Exception as exc:
            return self._refused(candidate_path, "canary", exc)
        calibration = calibrate_for_serving(
            candidate, self.config.calibration_queries, seed=self.config.probe_seed
        )
        with self._lock:
            self._classifier = candidate
            self.calibration = calibration
            self.model_path = Path(candidate_path)
        self.stats.bump("reloads_ok")
        log.info(
            "hot reload swapped in %s (threshold=%.6g, %.3g expansions/s, engine=%s)",
            candidate_path, candidate.threshold.value,
            calibration.expansions_per_second, calibration.engine,
        )
        return ReloadResult(
            ok=True,
            stage="swapped",
            model_path=str(candidate_path),
            threshold=candidate.threshold.value,
            expansions_per_second=calibration.expansions_per_second,
            engine=calibration.engine,
            engine_reason=calibration.engine_reason,
        )

    def _refused(
        self, path: Path | str, stage: str, exc: Exception
    ) -> ReloadResult:
        self.stats.bump("reloads_failed")
        log.error(
            "hot reload REFUSED at %s stage for %s: %s: %s "
            "(previous model %s keeps serving)",
            stage, path, type(exc).__name__, exc, self.model_path,
        )
        return ReloadResult(
            ok=False,
            stage=stage,
            model_path=str(path),
            error=f"{type(exc).__name__}: {exc}",
        )

    def _prepare(self, classifier: TKDCClassifier) -> TKDCClassifier:
        """Pin serving-safe config and pre-build shared read-only state."""
        return prepare_classifier(classifier)

    def _canary(self, candidate: TKDCClassifier) -> None:
        """Held-out probe classification a candidate must survive."""
        run_canary(
            candidate, self.config.canary_queries, seed=self.config.probe_seed
        )
