"""Algorithm 1: the end-to-end tKDC classifier.

``fit`` builds the spatial index, bootstraps probabilistic threshold
bounds (Algorithm 3), scores every training point with those bounds, and
refines the working threshold to the exact ``p``-quantile of the bounded
training densities. ``classify`` then answers queries by bounding each
query's density against the refined threshold, short-circuiting via the
grid cache and the pruning rules.

Example
-------
>>> import numpy as np
>>> from repro import TKDCClassifier, TKDCConfig
>>> rng = np.random.default_rng(0)
>>> train = rng.normal(size=(2000, 2))
>>> clf = TKDCClassifier(TKDCConfig(p=0.05)).fit(train)
>>> labels = clf.classify(np.array([[0.0, 0.0], [6.0, 6.0]]))
>>> [label.name for label in labels]
['HIGH', 'LOW']
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np

from repro.core.batch_bounds import bound_densities
from repro.core.bounds import bound_density
from repro.core.config import ENGINES, TKDCConfig
from repro.coresets.base import Coreset, build_coreset
from repro.estimators.hbe import HbeIndex
from repro.estimators.select import select_engine
from repro.core.grid import GridCache, cell_bound
from repro.core.result import (
    ClassificationResult,
    DensityBounds,
    Label,
    ThresholdEstimate,
)
from repro.core.stats import TraversalStats
from repro.core.threshold import bootstrap_threshold_bounds
from repro.index.kdtree import KDTree
from repro.kernels.base import Kernel
from repro.kernels.factory import kernel_for_data
from repro.obs.explain import explain_traces
from repro.obs.metrics import (
    CLASSIFY_SECONDS,
    GRID_HITS_TOTAL,
    record_engine_selected,
    record_hbe_block,
    record_traversal_block,
)
from repro.obs.trace import TraceRecorder
from repro.quantile.order_stats import quantile_of_sorted
from repro.robustness.faults import (
    WORKER_CRASH,
    WORKER_STALL,
    FaultInjector,
    FaultPlan,
)
from repro.robustness.supervisor import SupervisionPolicy, supervised_map
from repro.validation import as_finite_matrix, as_query_matrix


class NotFittedError(RuntimeError):
    """Raised when a classifier method requires a prior ``fit`` call."""


#: Label lookup for vectorized int->Label mapping (index = int value).
_LABELS = np.array([Label.LOW, Label.HIGH, Label.UNCERTAIN], dtype=object)

#: Per-worker state for the multiprocess classify path. Populated in the
#: parent *before* the fork so workers inherit the classifier (index
#: arrays included) through copy-on-write pages instead of a per-worker
#: pickle — shipping a 50k-point flat tree through ``initargs`` used to
#: cost more than the traversal it parallelized.
_WORKER_STATE: dict = {}

#: Query-count floor below which ``classify`` ignores ``n_jobs`` and
#: stays in-process: pool setup plus result pickling costs a few tens of
#: milliseconds, which a small batch can never amortize.
_PARALLEL_MIN_QUERIES = 4096

#: Chunks handed out per worker by the parallel path. More than one
#: chunk per worker lets the pool rebalance when pruning makes some
#: query regions much cheaper than others; too many chunks re-introduces
#: per-chunk dispatch overhead.
_CHUNKS_PER_WORKER = 4

#: One-time flag for the no-multiprocessing serial-degradation warning.
_NO_POOL_WARNED = False


def _enact_worker_fault(plan: FaultPlan, chunk_index: int, attempt: int) -> None:
    """Make this worker die or hang if the fault plan says so.

    ``os._exit`` models a hard crash (segfault, OOM kill) — no cleanup,
    no exception crosses the pipe. An ``Event`` that is never set models
    a stall (swap storm, adversarial query): the worker blocks forever
    and only the supervisor's deadline can reclaim the chunk.
    """
    fault = plan.worker_fault(chunk_index, attempt)
    if fault == WORKER_CRASH:
        os._exit(17)
    elif fault == WORKER_STALL:
        threading.Event().wait()


def _classify_chunk(
    chunk_index: int, attempt: int, scaled_chunk: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Classify one chunk in a worker; stats come back for merging.

    Stats cross the process boundary as the lossless
    :meth:`TraversalStats.to_dict` form (core counters plus the full
    ``extras`` dict), so worker-side bookkeeping like exact-fallback and
    budget-stop counts survives aggregation verbatim.
    """
    plan = _WORKER_STATE.get("fault_plan")
    if plan is not None:
        _enact_worker_fault(plan, chunk_index, attempt)
    stats = TraversalStats()
    highs = _WORKER_STATE["classifier"]._classify_scaled_block(
        scaled_chunk, _WORKER_STATE["threshold"], stats, engine="batch"
    )
    return highs, stats.to_dict()


def _init_worker(
    classifier: "TKDCClassifier", threshold: float, fault_plan: FaultPlan | None
) -> None:
    """Spawn-context initializer: receive the state fork gets for free."""
    _WORKER_STATE["classifier"] = classifier
    _WORKER_STATE["threshold"] = threshold
    _WORKER_STATE["fault_plan"] = fault_plan


#: ``classify_detailed``'s default ``max_expansions``: the configured
#: ``config.max_node_expansions``.
CONFIG_BUDGET = "config"


class TKDCClassifier:
    """Thresholded kernel density classification (the paper's tKDC).

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.TKDCConfig`; defaults reproduce the
        paper's Table 1 settings (``p = eps = delta = 0.01``).

    Attributes (populated by :meth:`fit`)
    -------------------------------------
    threshold:
        The :class:`~repro.core.result.ThresholdEstimate` for ``t(p)``.
    training_scores_:
        Self-contribution-corrected density estimates for every training
        point (coarse for points far from the threshold, ``eps``-precise
        near it — exactly the guarantee classification needs).
    training_labels_:
        HIGH/LOW labels for the training points, as used by the paper's
        outlier-detection workload.
    coreset_:
        The :class:`~repro.coresets.base.Coreset` the index was built
        over, or ``None`` when classifying against the full training
        set (``config.coreset is None``).
    stats:
        :class:`~repro.core.stats.TraversalStats` accumulated over all
        work done so far (training and queries).
    """

    def __init__(self, config: TKDCConfig | None = None) -> None:
        self.config = config or TKDCConfig()
        self._kernel: Kernel | None = None
        self._tree: KDTree | None = None
        self._grid: GridCache | None = None
        self._threshold: ThresholdEstimate | None = None
        self._stats = TraversalStats()
        self.training_scores_: np.ndarray | None = None
        self.training_labels_: np.ndarray | None = None
        self.coreset_: Coreset | None = None
        self._rule_eta = 0.0
        self._hbe: HbeIndex | None = None
        self.engine_selected_: str | None = None
        self.engine_reason_: str | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, data: np.ndarray) -> "TKDCClassifier":
        """Train on ``data``: index, threshold bootstrap, full scoring pass."""
        data = as_finite_matrix(data, "training data")
        n = data.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 training points, got {n}")
        config = self.config
        rng = np.random.default_rng(config.seed)

        self._kernel = self._make_kernel(data)
        scaled = self._kernel.scale(data)
        self.coreset_ = None
        if config.coreset is not None:
            k = config.coreset_size
            if k is None:
                k = max(1, round(config.coreset_fraction * n))
            self.coreset_ = build_coreset(
                scaled, self._kernel, config.coreset, min(k, n),
                delta=config.coreset_delta, rng=rng,
            )
            self._tree = KDTree(
                self.coreset_.points,
                leaf_size=config.leaf_size,
                split_rule=config.split_rule,
                weights=self.coreset_.weights,
            )
        else:
            self._tree = KDTree(
                scaled, leaf_size=config.leaf_size, split_rule=config.split_rule
            )

        # The grid cache stays built over the FULL training set even
        # under compression: it lower-bounds the full-data density f_X
        # directly, so its HIGH shortcut remains a certified statement
        # regardless of how coarse the sketch's certificate is. The
        # bootstrap's final round shares it only when its tree indexes
        # the same points (no coreset).
        self._grid = None
        if (
            config.use_grid
            and data.shape[1] <= config.grid_max_dim
            and cell_bound(self._kernel, data.shape[1]) > 0.0
        ):
            self._grid = GridCache(scaled, self._kernel)

        bootstrap = bootstrap_threshold_bounds(
            data,
            make_kernel=self._make_kernel,
            config=config,
            stats=self._stats,
            rng=rng,
            full_tree=self._tree,
            full_kernel=self._kernel,
            eta=self.eta,
            full_grid=self._grid if self.coreset_ is None else None,
        )
        t_lower, t_upper = bootstrap.lower, bootstrap.upper

        if config.refine_threshold:
            scores = self._score_training_points(scaled, t_lower, t_upper)
            # Corrected densities are non-negative by construction
            # (f_X(x) >= K(0)/n: x's own contribution), so a negative
            # quantile can only be sketch underestimation in the tails
            # (best-effort compression); snap it to the achievable
            # floor rather than shipping a threshold no density can be
            # below.
            refined = max(quantile_of_sorted(np.sort(scores), config.p), 0.0)
            # Section 3.6: the bootstrap's bounds are probabilistic — with
            # probability delta they miss the true threshold, detectable
            # because the refined quantile escapes the bracket. Back the
            # escaped side off and re-score once (the scoring pass is
            # cheap relative to silently classifying against a bad t).
            if not t_lower <= refined <= t_upper:
                self._stats.extras["threshold_rescores"] = (
                    self._stats.extras.get("threshold_rescores", 0.0) + 1.0
                )
                if refined < t_lower:
                    t_lower = refined / config.h_backoff
                else:
                    t_upper = refined * config.h_backoff
                scores = self._score_training_points(scaled, t_lower, t_upper)
                refined = max(quantile_of_sorted(np.sort(scores), config.p), 0.0)
            self._threshold = ThresholdEstimate(
                value=refined,
                lower=min(t_lower, refined),
                upper=max(t_upper, refined),
                p=config.p,
            )
            self.training_scores_ = scores
            self.training_labels_ = np.where(scores > refined, Label.HIGH, Label.LOW)
        else:
            self._threshold = ThresholdEstimate(
                value=0.5 * (t_lower + t_upper), lower=t_lower, upper=t_upper, p=config.p
            )
            self.training_scores_ = None
            self.training_labels_ = None
        # Widening the pruning rules by eta is only worthwhile while it
        # preserves the certification condition eta < eps * t_l; a
        # certificate coarser than that would zero out every prune (the
        # tolerance width eps*t - 2*eta goes negative), so classification
        # degrades to best-effort against the compressed estimate instead.
        eta = self.eta
        self._rule_eta = (
            eta if 0.0 < eta < config.epsilon * self._threshold.lower else 0.0
        )
        # Resolve engine="auto" once per fit (dimension rule; the serving
        # calibrator may re-resolve with a measured expansion rate) and
        # drop any hbe index built for a previous training set.
        self._hbe = None
        self.engine_selected_, self.engine_reason_ = select_engine(
            data.shape[1], config.kernel, config
        )
        if config.engine == "auto" and self.engine_selected_ == "hbe":
            # The dimension rule says hash, but hashing is only useful if
            # its LOW decisions are certifiable: a workload whose
            # threshold sits below what one hash-invisible point can
            # contribute (degenerate bandwidth — e.g. Scott's rule far
            # above ~10 dimensions turns the KDE into a nearest-neighbour
            # spike field) would route every would-be LOW to the tree
            # fallback, making the hbe engine pure overhead.
            if not self.hbe_low_certifiable():
                self.engine_selected_ = "batch"
                self.engine_reason_ = "degenerate_bandwidth"
                self._hbe = None
        record_engine_selected(self.engine_selected_, self.engine_reason_)
        return self

    def _make_kernel(self, data: np.ndarray) -> Kernel:
        return kernel_for_data(
            data,
            name=self.config.kernel,
            scale=self.config.bandwidth_scale,
            normalize=self.config.normalize_densities,
        )

    def _score_training_points(
        self, scaled: np.ndarray, t_lower: float, t_upper: float
    ) -> np.ndarray:
        """Bound every training point's density (Algorithm 1's Dx loop).

        The threshold bounds live in *self-contribution-corrected*
        density space (Equation 1 subtracts ``K(0)/n``), while the
        traversal bounds raw densities. Pruning therefore compares raw
        bounds against the threshold bounds shifted up by the
        self-contribution, with the tolerance width still anchored at
        the unshifted ``eps * t_l`` — otherwise, on datasets where
        ``K(0)/n`` rivals ``t(p)`` (isolated heavy-tail outliers), the
        coarse pruned scores scramble ranks across the threshold and
        corrupt the refined quantile.
        """
        assert self._tree is not None and self._kernel is not None
        config = self.config
        n = scaled.shape[0]
        self_contribution = self._kernel.max_value / n
        scores = np.empty(n)
        remaining = np.arange(n)
        if self._grid is not None:
            # The grid shortcut must likewise clear the threshold
            # *after* the self-contribution correction.
            grid_scores = self._grid.density_lower_bounds(scaled) - self_contribution
            certain = grid_scores > t_upper * (1.0 + config.epsilon)
            self._stats.grid_hits += int(np.count_nonzero(certain))
            scores[certain] = grid_scores[certain]
            remaining = np.flatnonzero(~certain)
        if remaining.size == 0:
            return scores
        # Gate the eta widening on the *current* bracket (it may have
        # been backed off since fit computed the classification gate).
        rule_eta = self.eta if 0.0 < self.eta < config.epsilon * t_lower else 0.0
        if config.engine == "batch":
            result = bound_densities(
                self._tree.flatten(), self._kernel, scaled[remaining],
                t_lower, t_upper, config.epsilon, self._stats,
                use_threshold_rule=config.use_threshold_rule,
                use_tolerance_rule=config.use_tolerance_rule,
                threshold_shift=self_contribution,
                eta=rule_eta,
                block_size=config.batch_block_size,
                guard_policy=config.guard_policy,
            )
            scores[remaining] = result.midpoint - self_contribution
        else:
            for i in remaining:
                result = bound_density(
                    self._tree, self._kernel, scaled[i], t_lower, t_upper,
                    config.epsilon, self._stats,
                    use_threshold_rule=config.use_threshold_rule,
                    use_tolerance_rule=config.use_tolerance_rule,
                    threshold_shift=self_contribution,
                    eta=rule_eta,
                    guard_policy=config.guard_policy,
                )
                scores[i] = result.midpoint - self_contribution
        return scores

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._threshold is not None

    @property
    def threshold(self) -> ThresholdEstimate:
        """The estimated classification threshold ``t(p)``."""
        self._require_fitted()
        assert self._threshold is not None
        return self._threshold

    @property
    def kernel(self) -> Kernel:
        """The fitted kernel (Scott's-rule bandwidth on the training data)."""
        self._require_fitted()
        assert self._kernel is not None
        return self._kernel

    @property
    def tree(self) -> KDTree:
        """The k-d tree over bandwidth-scaled training points."""
        self._require_fitted()
        assert self._tree is not None
        return self._tree

    @property
    def stats(self) -> TraversalStats:
        """Work counters accumulated across training and queries."""
        return self._stats

    @property
    def eta(self) -> float:
        """Certified sup-norm density error of the compressed index.

        0 when classifying against the full training set; ``math.inf``
        when the coreset construction could not certify (non-Lipschitz
        kernel under merge-reduce).
        """
        return self.coreset_.eta if self.coreset_ is not None else 0.0

    @property
    def eta_applied(self) -> float:
        """The eta actually widening the pruning rules (0 = best-effort).

        Equals :attr:`eta` exactly when the certificate is fine enough to
        keep certification (``eta < epsilon * t_lower``); otherwise 0,
        meaning labels describe the compressed estimate rather than the
        full-data density.
        """
        self._require_fitted()
        return self._rule_eta

    def widen_threshold_bracket(self, eta: float) -> float:
        """Fold a stream-sketch displacement certificate into the bracket.

        A drift-triggered refit trains on a :class:`StreamSketch`
        materialization, not the raw stream — so the fitted threshold's
        uncertainty must additionally absorb the sketch's certified
        sup-norm KDE error ``eta`` (the quantile of the true stream
        density lies within ``±eta`` of the sketch density's quantile in
        density space). This widens ``threshold.lower/upper`` by ``eta``
        (clamping lower at 0) and re-gates the coreset pruning eta
        against the new, smaller lower bound.

        Returns the eta actually applied (0 when ``eta`` is 0 or not
        finite — a non-Lipschitz kernel yields an uninformative ``inf``
        certificate, recorded but not applied). The applied value is
        stored as ``stream_eta_applied_`` and rides the saved artifact,
        so the swapped model's manifest can surface it.
        """
        self._require_fitted()
        if eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {eta}")
        self.stream_eta_ = float(eta)
        if eta == 0.0 or not np.isfinite(eta):
            self.stream_eta_applied_ = 0.0
            return 0.0
        old = self._threshold
        self._threshold = ThresholdEstimate(
            value=old.value,
            lower=max(old.lower - eta, 0.0),
            upper=old.upper + eta,
            p=old.p,
        )
        coreset_eta = self.eta
        self._rule_eta = (
            coreset_eta
            if 0.0 < coreset_eta < self.config.epsilon * self._threshold.lower
            else 0.0
        )
        self.stream_eta_applied_ = float(eta)
        return float(eta)

    @property
    def stream_eta_applied(self) -> float:
        """Stream-sketch eta folded into the bracket (0 when none was)."""
        return float(getattr(self, "stream_eta_applied_", 0.0))

    @property
    def certified(self) -> bool:
        """Whether labels carry the full-data ``±eps * t`` guarantee.

        Always True without compression. Under compression, True exactly
        when the coreset certificate is applied to the pruning rules
        (see :attr:`eta_applied`); note the uniform construction's
        certificate is itself probabilistic (per query, level
        ``1 - coreset_delta``).
        """
        self._require_fitted()
        if self.coreset_ is None:
            return True
        # eta == 0 means the sketch reproduces the KDE exactly (k >= n,
        # or merge-reduce over duplicate-only data): certified trivially.
        return self.eta == 0.0 or self._rule_eta > 0.0

    def classify(
        self,
        queries: np.ndarray,
        engine: str | None = None,
        n_jobs: int | None = None,
        trace=None,
    ) -> np.ndarray:
        """Classify query points as HIGH/LOW density (paper Algorithm 1).

        Returns an array of :class:`~repro.core.result.Label`. Points
        whose exact density lies within ``±eps * t(p)`` of the threshold
        may receive either label (Problem 1's approximate semantics).

        Parameters
        ----------
        engine:
            ``"batch"`` (vectorized multi-query traversal, the default)
            or ``"per-query"`` (the reference engine). ``None`` defers
            to ``config.engine``. Both engines produce the same labels.
        n_jobs:
            Worker processes for the batch engine (``None`` defers to
            ``config.n_jobs``; -1 uses every core). Ignored by the
            per-query engine.
        trace:
            Optional :class:`~repro.obs.trace.TraceRecorder` receiving
            each query's bound trajectory, terminating rule, and final
            label, indexed by row in ``queries``. Tracing is purely
            additive (labels are bit-identical with it on) and forces
            the in-process path — worker-side recorders cannot cross a
            process boundary, so ``n_jobs`` is ignored while tracing.
            Flagged-invalid rows are never traversed and get no trace.

        Under ``config.query_policy == "flag"``, non-finite query rows
        are never traversed and come back as ``Label.UNCERTAIN``.
        """
        self._require_fitted()
        queries, invalid = self._as_query_matrix(queries)
        if not invalid.any():
            highs = self._classify_mask(queries, engine, n_jobs, trace=trace)
            labels = _LABELS[highs.astype(np.intp)]
        else:
            labels = np.full(queries.shape[0], Label.UNCERTAIN, dtype=object)
            valid = np.flatnonzero(~invalid)
            block_trace = None if trace is None else trace.view(valid)
            highs = self._classify_mask(
                queries[valid], engine, n_jobs, trace=block_trace
            )
            labels[valid] = _LABELS[highs.astype(np.intp)]
        if trace is not None:
            for query_trace in trace.traces() if hasattr(trace, "traces") else ():
                query_trace.label = int(labels[query_trace.query_index])
        return labels

    def trace_classify(
        self, queries: np.ndarray, engine: str | None = None
    ) -> tuple[np.ndarray, TraceRecorder]:
        """Classify with per-query tracing on; returns (labels, recorder).

        Convenience wrapper: builds a fresh
        :class:`~repro.obs.trace.TraceRecorder`, classifies in-process
        with it attached, and hands both back. The labels are
        bit-identical to a :meth:`classify` call without tracing.
        """
        recorder = TraceRecorder(engine=self._resolve_engine(engine))
        labels = self.classify(queries, engine=engine, trace=recorder)
        return labels, recorder

    def explain(
        self,
        queries: np.ndarray,
        engine: str | None = None,
        limit: int = 10,
        max_steps: int = 12,
    ) -> str:
        """Classify ``queries`` and render why each got its label.

        Re-runs the classification with tracing enabled and returns the
        human-readable account produced by
        :func:`repro.obs.explain.explain_traces`: a rule tally plus, for
        the first ``limit`` queries, the bound trajectory against the
        threshold band and the rule that terminated the traversal.
        Backs the ``repro explain`` CLI command.
        """
        self._require_fitted()
        __, recorder = self.trace_classify(queries, engine=engine)
        threshold = self.threshold.value
        band = (
            threshold * (1.0 - self.config.epsilon),
            threshold * (1.0 + self.config.epsilon),
        )
        return explain_traces(
            recorder.traces(), thresholds=band, limit=limit, max_steps=max_steps
        )

    def classify_detailed(
        self,
        queries: np.ndarray,
        engine: str | None = None,
        *,
        max_expansions: int | None | str = CONFIG_BUDGET,
        stats: TraversalStats | None = None,
    ) -> ClassificationResult:
        """Classify with full degradation diagnostics (always in-process).

        Returns a :class:`~repro.core.result.ClassificationResult`
        carrying, per query, the density interval the label was decided
        on and whether the answer is best-effort: the query hit the
        ``config.max_node_expansions`` anytime budget, a guard collapsed
        it to an exact fallback, or its input row was flagged invalid
        under ``query_policy="flag"``. Degraded bounds are always valid
        (possibly vacuous); :meth:`ClassificationResult.resolved_labels`
        turns the genuinely undecidable ones into ``Label.UNCERTAIN``.

        Runs serially regardless of ``config.n_jobs`` — the diagnostic
        path favours complete per-query information over throughput; use
        :meth:`classify` for large parallel batches.

        ``max_expansions`` overrides the budget for this call (``None``:
        unbounded); ``stats`` receives this call's counters instead of
        :attr:`stats`. The serving daemon passes both per request, so a
        request needs no copy of the classifier.
        """
        self._require_fitted()
        matrix, invalid = self._as_query_matrix(queries)
        config = self.config
        if stats is None:
            stats = self._stats
        threshold = self.threshold.value
        engine = self._resolve_engine(engine)
        q = matrix.shape[0]
        lower = np.zeros(q)
        upper = np.full(q, math.inf)
        labels = np.full(q, Label.LOW, dtype=object)
        degraded = invalid.copy()

        valid_rows = np.flatnonzero(~invalid)
        if valid_rows.size:
            scaled = self.kernel.scale(matrix[valid_rows])
            remaining = np.arange(valid_rows.size)
            if self._grid is not None:
                # The grid shortcut certifies HIGH from a lower bound
                # alone, so those rows keep an infinite upper bound.
                grid_bounds = self._grid.density_lower_bounds(scaled)
                certain = grid_bounds > threshold * (1.0 + config.epsilon)
                stats.grid_hits += int(np.count_nonzero(certain))
                rows = valid_rows[certain]
                lower[rows] = grid_bounds[certain]
                labels[rows] = Label.HIGH
                remaining = np.flatnonzero(~certain)
            budget = (
                config.max_node_expansions
                if max_expansions == CONFIG_BUDGET
                else max_expansions
            )
            if remaining.size and engine == "hbe":
                decision = self._hbe_decide(
                    scaled[remaining], threshold, stats, budget,
                )
                eta = self._rule_eta
                decided = decision.decided
                rows = valid_rows[remaining[decided]]
                lower[rows] = np.maximum(decision.ci_lo[decided] - eta, 0.0)
                upper[rows] = decision.ci_hi[decided] + eta
                labels[rows] = _LABELS[decision.high[decided].astype(np.intp)]
                exhausted = decision.exhausted
                rows = valid_rows[remaining[exhausted]]
                # Sample budget spent with no decision: the estimate
                # carries no certified interval, so report the vacuous
                # one — exactly the tree engines' anytime contract
                # (degraded + straddling bounds -> UNCERTAIN under
                # resolved_labels()).
                lower[rows] = 0.0
                upper[rows] = math.inf
                labels[rows] = _LABELS[
                    (decision.mean[exhausted] > threshold).astype(np.intp)
                ]
                degraded[rows] = True
                fallback = decision.fallback_rows
                if budget is not None and fallback.size:
                    budget = max(
                        int(budget)
                        - int(decision.samples[fallback[0]])
                        * config.hbe_sample_cost,
                        1,
                    )
                remaining = remaining[fallback]
                engine = "batch"
            if remaining.size:
                eta = self._rule_eta
                faults = self._traversal_injector()
                rows = valid_rows[remaining]
                if engine == "batch":
                    result = bound_densities(
                        self.tree.flatten(), self.kernel, scaled[remaining],
                        threshold, threshold, config.epsilon, stats,
                        use_threshold_rule=config.use_threshold_rule,
                        use_tolerance_rule=config.use_tolerance_rule,
                        eta=eta,
                        block_size=config.batch_block_size,
                        max_expansions=budget,
                        guard_policy=config.guard_policy,
                        faults=faults,
                    )
                    lower[rows] = np.maximum(result.lower - eta, 0.0)
                    upper[rows] = result.upper + eta
                    labels[rows] = _LABELS[
                        (result.midpoint > threshold).astype(np.intp)
                    ]
                    degraded[rows] = result.degraded
                else:
                    for local, row in zip(remaining, rows):
                        result = bound_density(
                            self.tree, self.kernel, scaled[local],
                            threshold, threshold, config.epsilon, stats,
                            use_threshold_rule=config.use_threshold_rule,
                            use_tolerance_rule=config.use_tolerance_rule,
                            eta=eta,
                            max_expansions=budget,
                            guard_policy=config.guard_policy,
                            faults=faults,
                        )
                        lower[row] = max(result.lower - eta, 0.0)
                        upper[row] = result.upper + eta
                        labels[row] = (
                            Label.HIGH if result.midpoint > threshold else Label.LOW
                        )
                        degraded[row] = result.degraded
        return ClassificationResult(
            labels=labels, lower=lower, upper=upper,
            degraded=degraded, invalid=invalid, threshold=threshold,
        )

    def _classify_mask(
        self,
        queries: np.ndarray,
        engine: str | None = None,
        n_jobs: int | None = None,
        trace=None,
    ) -> np.ndarray:
        """Boolean HIGH mask for validated queries (shared classify core)."""
        engine = self._resolve_engine(engine)
        n_jobs = self._resolve_n_jobs(n_jobs)
        scaled = self.kernel.scale(queries)
        threshold = self.threshold.value
        with CLASSIFY_SECONDS.labels(engine).time():
            # Below the floor, pool startup dominates any traversal
            # saving; fall back to the serial batch path (see
            # bench_batch_traversal). Tracing also stays in-process: a
            # recorder cannot follow chunks across a process boundary.
            if (
                engine == "batch"
                and n_jobs > 1
                and scaled.shape[0] >= _PARALLEL_MIN_QUERIES
                and trace is None
            ):
                return self._classify_parallel(scaled, threshold, n_jobs)
            return self._classify_scaled_block(
                scaled, threshold, self._stats, engine, trace=trace
            )

    def _classify_scaled_block(
        self,
        scaled: np.ndarray,
        threshold: float,
        stats: TraversalStats,
        engine: str,
        trace=None,
    ) -> np.ndarray:
        """Grid shortcut + density-bounding traversal for a scaled block."""
        config = self.config
        highs = np.zeros(scaled.shape[0], dtype=bool)
        remaining = np.arange(scaled.shape[0])
        if self._grid is not None and scaled.shape[0] > 0:
            grid_bounds = self._grid.density_lower_bounds(scaled)
            certain = grid_bounds > threshold * (1.0 + config.epsilon)
            grid_hits = int(np.count_nonzero(certain))
            stats.grid_hits += grid_hits
            if grid_hits:
                GRID_HITS_TOTAL.inc(grid_hits)
            highs[certain] = True
            remaining = np.flatnonzero(~certain)
            if trace is not None:
                for row in np.flatnonzero(certain):
                    trace.stop(
                        int(row), "grid",
                        f_lower=float(grid_bounds[row]), f_upper=math.inf,
                        expansions=0,
                    )
        if remaining.size == 0:
            return highs
        budget = config.max_node_expansions
        if engine == "hbe":
            decision = self._hbe_decide(
                scaled[remaining], threshold, stats, budget, trace=trace,
                trace_rows=remaining,
            )
            decided = decision.decided
            highs[remaining[decided]] = decision.high[decided]
            # Budget-exhausted rows get the best-effort midpoint label,
            # matching the tree engines' anytime semantics (the degraded
            # flag surfaces through classify_detailed, not here).
            exhausted = decision.exhausted
            highs[remaining[exhausted]] = decision.mean[exhausted] > threshold
            fallback = decision.fallback_rows
            if fallback.size == 0:
                return highs
            if budget is not None:
                budget = max(
                    int(budget)
                    - int(decision.samples[fallback[0]]) * config.hbe_sample_cost,
                    1,
                )
            remaining = remaining[fallback]
            engine = "batch"
        faults = self._traversal_injector()
        if engine == "batch":
            result = bound_densities(
                self.tree.flatten(), self.kernel, scaled[remaining],
                threshold, threshold, config.epsilon, stats,
                use_threshold_rule=config.use_threshold_rule,
                use_tolerance_rule=config.use_tolerance_rule,
                eta=self._rule_eta,
                block_size=config.batch_block_size,
                max_expansions=budget,
                guard_policy=config.guard_policy,
                faults=faults,
                trace=None if trace is None else trace.view(remaining),
            )
            highs[remaining] = result.midpoint > threshold
        else:
            for i in remaining:
                result = bound_density(
                    self.tree, self.kernel, scaled[i], threshold, threshold,
                    config.epsilon, stats,
                    use_threshold_rule=config.use_threshold_rule,
                    use_tolerance_rule=config.use_tolerance_rule,
                    eta=self._rule_eta,
                    max_expansions=config.max_node_expansions,
                    guard_policy=config.guard_policy,
                    faults=faults,
                    trace=trace,
                    trace_index=int(i),
                )
                highs[i] = result.midpoint > threshold
        return highs

    def _traversal_injector(self) -> FaultInjector | None:
        """A fresh injector for one traversal pass, or None in production."""
        plan = self.config.fault_plan
        if plan is None or not plan.targets_traversal:
            return None
        return FaultInjector(plan)

    def _classify_parallel(
        self, scaled: np.ndarray, threshold: float, n_jobs: int
    ) -> np.ndarray:
        """Chunk the scaled queries across a supervised process pool.

        Dispatch is per-chunk with deadlines, bounded retries, and an
        in-process serial fallback (see
        :mod:`repro.robustness.supervisor`): a crashed or stalled
        worker delays its chunks but can never lose them or hang the
        batch. Prefers a fork context (workers inherit the index through
        copy-on-write), falls back to spawn with an explicit
        initializer pickle, and degrades to the serial path — with a
        one-time warning — when no start method works at all.
        """
        n_jobs = min(n_jobs, scaled.shape[0])
        config = self.config
        context, needs_init = self._parallel_context()
        if context is None:
            return self._classify_scaled_block(
                scaled, threshold, self._stats, engine="batch"
            )
        self.tree.flatten()  # build once pre-fork so workers share it
        # Several chunks per worker (not one) so the pool rebalances
        # around pruning-induced cost skew across query regions, capped
        # so each chunk still fills at least one vectorized block.
        n_chunks = min(
            n_jobs * _CHUNKS_PER_WORKER,
            max(n_jobs, scaled.shape[0] // config.batch_block_size),
        )
        chunks = np.array_split(scaled, n_chunks)
        plan = config.fault_plan
        if plan is not None and not plan.targets_workers:
            plan = None
        policy = SupervisionPolicy(
            timeout=config.worker_timeout,
            max_retries=config.worker_retries,
            backoff=config.worker_backoff,
        )

        def serial_fallback(
            index: int, chunk: np.ndarray
        ) -> tuple[np.ndarray, dict]:
            # Worker faults are a pool phenomenon; the in-process
            # fallback runs the same traversal clean.
            stats = TraversalStats()
            highs = self._classify_scaled_block(
                chunk, threshold, stats, engine="batch"
            )
            return highs, stats.to_dict()

        _WORKER_STATE["classifier"] = self
        _WORKER_STATE["threshold"] = threshold
        _WORKER_STATE["fault_plan"] = plan
        try:
            results, report = supervised_map(
                _classify_chunk, chunks, n_jobs, policy, serial_fallback, context,
                initializer=_init_worker if needs_init else None,
                initargs=(self, threshold, plan) if needs_init else (),
            )
        finally:
            _WORKER_STATE.clear()
        for key, value in report.as_extras().items():
            self._stats.extras[key] = self._stats.extras.get(key, 0.0) + value
        for __, worker_stats in results:
            self._stats.merge(TraversalStats.from_dict(worker_stats))
        return np.concatenate([highs for highs, __ in results])

    def _parallel_context(self) -> tuple[object, bool]:
        """Pick a multiprocessing start method: fork, spawn, or give up.

        Returns ``(context, needs_initializer)``; a ``None`` context
        means no start method is usable and the caller must run
        serially (warned once per process).
        """
        global _NO_POOL_WARNED
        try:
            return multiprocessing.get_context("fork"), False
        except ValueError:
            pass
        try:
            # Spawn cannot inherit _WORKER_STATE; workers rebuild it
            # from an initializer pickle of the classifier instead.
            return multiprocessing.get_context("spawn"), True
        except ValueError:
            if not _NO_POOL_WARNED:
                _NO_POOL_WARNED = True
                warnings.warn(
                    "no usable multiprocessing start method (fork and spawn both "
                    "unavailable); classify is degrading to the serial in-process "
                    "path despite n_jobs > 1",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None, False

    def _resolve_engine(self, engine: str | None) -> str:
        engine = self.config.engine if engine is None else engine
        if engine == "auto":
            engine, __ = self.auto_selection()
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        return engine

    def hbe_low_certifiable(self) -> bool:
        """Whether the hbe engine's LOW decisions can certify here.

        True when no single hash-invisible training point could exceed
        the lower threshold band on its own (see
        :meth:`~repro.estimators.hbe.HbeIndex.low_visibility_bound`).
        When False the sampler would route every would-be LOW to the
        tree fallback, so selecting hbe is pure overhead; fit-time auto
        selection and the serving calibrator both consult this. Builds
        the hbe index on first call (cached).
        """
        self._require_fitted()
        band_lo = self._threshold.value * (1.0 - self.config.epsilon)
        return self._ensure_hbe().low_visibility_bound() <= band_lo - self._rule_eta

    def auto_selection(self) -> tuple[str, str]:
        """The concrete ``(engine, reason)`` ``engine="auto"`` resolves to.

        Uses the selection stored at fit time; recomputes from the
        fitted dimensionality when absent (models pickled before the
        attribute existed). For a concretely configured engine the
        reason is ``"configured"``.
        """
        selected = getattr(self, "engine_selected_", None)
        reason = getattr(self, "engine_reason_", None)
        if selected is None or reason is None or selected == "auto":
            selected, reason = select_engine(
                self.kernel.dim, self.config.kernel, self.config
            )
        return selected, reason

    def _ensure_hbe(self) -> HbeIndex:
        """The lazily built hbe index over the (possibly coreset) tree points.

        Built from ``config.seed`` and the tree's point order — both
        deterministic — so every process that holds the same fitted
        model (fleet workers included) reconstructs an identical index
        and answers identically.
        """
        hbe = getattr(self, "_hbe", None)
        if hbe is None:
            config = self.config
            tree = self.tree
            hbe = HbeIndex(
                tree.points,
                tree.point_weights,
                self.kernel,
                tables=config.hbe_tables,
                width=config.hbe_bucket_width,
                depth=config.hbe_hash_depth,
                seed=config.seed,
                delta=config.hbe_delta if config.hbe_delta is not None else config.delta,
                min_samples=config.hbe_min_samples,
                batch_tables=config.hbe_batch_tables,
                sample_cost=config.hbe_sample_cost,
                margin=config.hbe_margin,
            )
            self._hbe = hbe
        return hbe

    def _hbe_decide(
        self,
        block: np.ndarray,
        threshold: float,
        stats: TraversalStats,
        budget: int | None,
        trace=None,
        trace_rows: np.ndarray | None = None,
    ):
        """Run the hbe sampling stage over one scaled block.

        Charges every table consulted into ``stats.node_expansions`` (at
        ``hbe_sample_cost`` units each) so expansion-rate calibration and
        deadline budgets stay coherent across engines, reports the
        block's outcomes to the metrics registry, and records traces for
        the queries the sampler settled. Fallback rows are *not* traced
        or counted here — the tree engine they re-run through does both.
        """
        config = self.config
        eta = self._rule_eta
        decision = self._ensure_hbe().decide_block(
            block, threshold, config.epsilon, eta=eta, budget=budget,
        )
        decided = decision.decided
        exhausted = decision.exhausted
        fallback = decision.fallback_rows
        settled = decided | exhausted
        stats.node_expansions += decision.samples_total * config.hbe_sample_cost
        stats.kernel_evaluations += decision.samples_total
        stats.queries += int(np.count_nonzero(settled))
        extras = stats.extras
        high_count = int(np.count_nonzero(decided & decision.high))
        low_count = int(np.count_nonzero(decided & ~decision.high))
        exhausted_count = int(np.count_nonzero(exhausted))
        for key, value in (
            ("hbe_samples", float(decision.samples_total)),
            ("hbe_decided_high", float(high_count)),
            ("hbe_decided_low", float(low_count)),
            ("hbe_fallbacks", float(fallback.size)),
            ("hbe_exhausted", float(exhausted_count)),
        ):
            if value:
                extras[key] = extras.get(key, 0.0) + value
        record_hbe_block(
            decision.samples[decided],
            decision.samples[fallback],
            decision.samples[exhausted],
        )
        record_traversal_block(
            "hbe",
            {"hbe_high": high_count, "hbe_low": low_count,
             "budget": exhausted_count},
            decision.samples[settled] * config.hbe_sample_cost,
            decision.samples_total,
        )
        if trace is not None and trace_rows is not None:
            cost = config.hbe_sample_cost
            for local in np.flatnonzero(settled):
                if decided[local]:
                    rule = "hbe_high" if decision.high[local] else "hbe_low"
                else:
                    rule = "budget"
                trace.stop(
                    int(trace_rows[local]), rule,
                    f_lower=float(max(decision.ci_lo[local] - eta, 0.0)),
                    f_upper=float(decision.ci_hi[local] + eta),
                    expansions=int(decision.samples[local]) * cost,
                )
        return decision

    def _resolve_n_jobs(self, n_jobs: int | None) -> int:
        n_jobs = self.config.n_jobs if n_jobs is None else n_jobs
        if n_jobs == 0 or n_jobs < -1:
            raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
        cores = os.cpu_count() or 1
        # More workers than cores is strictly slower for this CPU-bound
        # traversal (they time-slice one another plus pay fork/pickle
        # overhead), so a larger request clamps to the machine.
        return cores if n_jobs == -1 else min(n_jobs, cores)

    def measure_expansion_rate(
        self, queries: np.ndarray, repeats: int = 1, engine: str = "batch"
    ) -> tuple[float, int]:
        """Measure work units per second on this host for one engine.

        Runs the standard classify pipeline over ``queries`` (fresh
        stats, in-process, current config) ``repeats`` times and returns
        ``(expansions_per_second, expansions_observed)``. The serving
        layer uses the rate to translate a request deadline into a
        per-query ``max_node_expansions`` anytime budget (see
        :mod:`repro.serve.calibrate`); anything that needs a
        machine-specific cost model can reuse it.

        The measurement deliberately includes grid-cache shortcuts and
        pruning: the rate describes expansions per wall-clock second of
        the *real* pipeline, which is exactly the quantity a deadline
        must be converted through. The hbe engine charges its LSH
        samples into the same counter (at ``hbe_sample_cost`` units
        each), so passing ``engine="hbe"`` yields that pipeline's rate
        in the identical currency. A calibration workload whose queries
        all short-circuit yields ``expansions_observed == 0``; callers
        must treat the rate as unusable then (the serving layer falls
        back to a conservative floor).
        """
        self._require_fitted()
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        engine = self._resolve_engine(engine)
        matrix, invalid = self._as_query_matrix(queries)
        valid = matrix[~invalid]
        if valid.shape[0] == 0:
            return 0.0, 0
        scaled = self.kernel.scale(valid)
        stats = TraversalStats()
        start = time.perf_counter()
        for __ in range(repeats):
            self._classify_scaled_block(
                scaled, self.threshold.value, stats, engine=engine
            )
        elapsed = time.perf_counter() - start
        if stats.node_expansions <= 0 or elapsed <= 0.0:
            return 0.0, int(stats.node_expansions)
        return stats.node_expansions / elapsed, int(stats.node_expansions)

    def predict(
        self,
        queries: np.ndarray,
        engine: str | None = None,
        n_jobs: int | None = None,
    ) -> np.ndarray:
        """Like :meth:`classify` but returning a plain int array (1 = HIGH).

        Flagged-invalid rows (``query_policy="flag"``) come back as
        ``int(Label.UNCERTAIN)`` (2).
        """
        self._require_fitted()
        queries, invalid = self._as_query_matrix(queries)
        if not invalid.any():
            return self._classify_mask(queries, engine, n_jobs).astype(np.int64)
        predictions = np.full(queries.shape[0], int(Label.UNCERTAIN), dtype=np.int64)
        valid = np.flatnonzero(~invalid)
        predictions[valid] = self._classify_mask(
            queries[valid], engine, n_jobs
        ).astype(np.int64)
        return predictions

    def decision_bounds(
        self, queries: np.ndarray, engine: str | None = None
    ) -> list[DensityBounds]:
        """The density intervals classification would act on.

        Coarse away from the threshold (the pruning rules stop early),
        ``eps * t``-tight near it. Under certified compression the
        traversal's intervals are widened by the applied ``eta`` so they
        remain valid for the *full-data* density; in best-effort mode
        they describe the compressed estimate.

        Flagged-invalid rows (``query_policy="flag"``) come back with the
        vacuous interval ``[0, inf)``.
        """
        self._require_fitted()
        queries, invalid = self._as_query_matrix(queries)
        if invalid.any():
            bounds = [DensityBounds(0.0, math.inf)] * queries.shape[0]
            valid = np.flatnonzero(~invalid)
            for row, item in zip(valid, self.decision_bounds(queries[valid], engine)):
                bounds[row] = item
            return bounds
        scaled = self.kernel.scale(queries)
        threshold = self.threshold.value
        eta = self._rule_eta
        # The hbe sampler answers band membership, not eps-precise
        # intervals; bounds requests route through the batch tree.
        if self._resolve_engine(engine) in ("batch", "hbe"):
            result = bound_densities(
                self.tree.flatten(), self.kernel, scaled, threshold, threshold,
                self.config.epsilon, self._stats,
                use_threshold_rule=self.config.use_threshold_rule,
                use_tolerance_rule=self.config.use_tolerance_rule,
                eta=eta,
                block_size=self.config.batch_block_size,
            )
            return [
                DensityBounds(max(lower - eta, 0.0), upper + eta)
                for lower, upper in zip(result.lower, result.upper)
            ]
        results: list[DensityBounds] = []
        for i in range(queries.shape[0]):
            bounds = bound_density(
                self.tree, self.kernel, scaled[i], threshold, threshold,
                self.config.epsilon, self._stats,
                use_threshold_rule=self.config.use_threshold_rule,
                use_tolerance_rule=self.config.use_tolerance_rule,
                eta=eta,
            )
            results.append(
                DensityBounds(max(bounds.lower - eta, 0.0), bounds.upper + eta)
            )
        return results

    def estimate_density(
        self, queries: np.ndarray, engine: str | None = None
    ) -> np.ndarray:
        """``eps * t``-precise density estimates (tolerance rule only).

        Unlike :meth:`classify`, this disables the threshold rule so the
        returned values are uniformly precise — the mode downstream
        statistical use cases (p-values, likelihood ratios) need.

        Flagged-invalid rows (``query_policy="flag"``) come back as NaN.
        """
        self._require_fitted()
        queries, invalid = self._as_query_matrix(queries)
        if invalid.any():
            densities = np.full(queries.shape[0], np.nan)
            valid = np.flatnonzero(~invalid)
            densities[valid] = self.estimate_density(queries[valid], engine)
            return densities
        scaled = self.kernel.scale(queries)
        threshold = self.threshold.value
        # With the applied eta shrinking the tolerance width to
        # eps*t - 2*eta, the compressed midpoint still lands within
        # eps*t/2 of the full-data density: width/2 + eta <= eps*t/2.
        # hbe routes through the batch tree: sampling cannot deliver
        # the tolerance rule's uniform precision.
        if self._resolve_engine(engine) in ("batch", "hbe"):
            result = bound_densities(
                self.tree.flatten(), self.kernel, scaled, threshold, threshold,
                self.config.epsilon, self._stats,
                use_threshold_rule=False,
                use_tolerance_rule=True,
                eta=self._rule_eta,
                block_size=self.config.batch_block_size,
            )
            return result.midpoint
        densities = np.empty(queries.shape[0])
        for i in range(queries.shape[0]):
            result = bound_density(
                self.tree, self.kernel, scaled[i], threshold, threshold,
                self.config.epsilon, self._stats,
                use_threshold_rule=False,
                use_tolerance_rule=True,
                eta=self._rule_eta,
            )
            densities[i] = result.midpoint
        return densities

    def _as_query_matrix(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validate a query batch under the configured input policy.

        Returns ``(matrix, invalid_rows)`` — the shared hardening
        contract of :func:`repro.validation.as_query_matrix`, applied
        identically by both traversal engines: non-finite rows raise
        under ``query_policy="raise"`` and come back flagged (and
        zero-filled, never traversed) under ``"flag"``; shape and dtype
        errors always raise.
        """
        return as_query_matrix(
            queries, self.kernel.dim, policy=self.config.query_policy
        )

    def _require_fitted(self) -> None:
        if self._threshold is None:
            raise NotFittedError("this TKDCClassifier has not been fitted; call fit() first")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self.is_fitted else "unfitted"
        return f"TKDCClassifier(p={self.config.p}, eps={self.config.epsilon}, {state})"
