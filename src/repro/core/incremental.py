"""Incremental density classification over a growing dataset.

The paper's classifier is batch-trained; production pipelines (e.g. the
MacroBase-style explanation engines the paper cites) see data arrive
continuously. This wrapper keeps tKDC usable in that setting:

- new points are buffered, and every classification counts each of
  them *exactly*. Whole steps of :data:`_ABSORB_STEP` buffered rows are
  routed into the leaves of a copy of the model's k-d tree
  (:meth:`~repro.index.kdtree.KDTree.absorb`), so the traversal bounds
  and prunes them like indexed points. Only the tail past the last
  whole step (fewer than ``_ABSORB_STEP`` rows) is summed brute force,
  one blocked :meth:`~repro.kernels.base.Kernel.sums_at` per request.
  A request's cost therefore stops growing with the buffer: a serving
  process that never refits pays O(rows x step) exact evaluations plus
  a traversal over a tree that grows with the buffer;
- the pruning threshold for the tree's part (indexed points plus
  absorbed rows) is algebraically shifted per query by that query's
  exact tail sum, so the decision is against the combined density —
  the accuracy guarantee relative to the current model's threshold is
  preserved — and every request's rows share one batched traversal
  (:func:`~repro.core.batch_bounds.bound_densities` with per-query
  thresholds);
- once the buffer outgrows ``refit_fraction`` of the indexed set, the
  model is retrained from scratch (new bandwidth, index, and threshold,
  per the paper's training procedure) — unless ``auto_refit=False``,
  in which case refits are owned by an external controller (the
  streaming pipeline's drift-triggered background refit,
  :mod:`repro.streaming.pipeline`) which installs new models through
  :meth:`adopt`.

The one approximation is *threshold staleness*: between refits the
quantile threshold is the one estimated at the last fit. Density
estimates themselves always include every inserted point.

Classification honours the full robustness contract of
:class:`~repro.core.classifier.TKDCClassifier`: queries are validated
under ``config.query_policy``, traversals run under
``config.guard_policy`` and ``config.max_node_expansions``, injected
fault plans fire, and budget-degraded straddling queries surface as
``Label.UNCERTAIN`` instead of a silently best-effort HIGH/LOW.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_bounds import bound_densities
from repro.core.classifier import CONFIG_BUDGET, TKDCClassifier
from repro.core.config import TKDCConfig
from repro.core.result import ClassificationResult, Label
from repro.core.stats import TraversalStats
from repro.index.flat import FlatTree
from repro.validation import as_insert_rows

#: Initial preallocated buffer rows (grown geometrically afterwards).
_MIN_BUFFER_CAPACITY = 256

#: Buffered rows are routed into the model's tree in whole steps of this
#: many rows; only the rows past the last whole step are summed exactly.
#: A smaller step shortens that tail but absorbs more often (each absorb
#: copies the tree's arrays). On the perfbench serve-ingest model
#: (50,000 points, d = 2, 2-vCPU host), a 64-row request at 28,000
#: buffered rows cost 1.04x / 1.05x / 1.16x its cost on an empty buffer at
#: steps of 512 / 1,024 / 2,048, and an in-process loop of one 32-row
#: insert and three 64-row requests up to 28,000 rows spent 0.50 / 0.25 /
#: 0.14 s in inserts. In six interleaved runs of that loop, 1,024 beat
#: 2,048 every time (median 10.0 s against 10.5 s).
_ABSORB_STEP = 1024


class IncrementalTKDC:
    """tKDC over a stream of inserts with automatic refits.

    Parameters
    ----------
    config:
        Configuration forwarded to the underlying
        :class:`~repro.core.classifier.TKDCClassifier`.
    refit_fraction:
        Retrain once the buffer exceeds this fraction of the indexed
        point count (default 0.25).
    auto_refit:
        When False, :meth:`insert` never retrains; refits are driven
        externally (see :meth:`adopt`). The answer path is unaffected.

    Example
    -------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> model = IncrementalTKDC(TKDCConfig(p=0.05, seed=0))
    >>> model.fit(rng.normal(size=(2000, 2)))           # doctest: +ELLIPSIS
    <repro.core.incremental.IncrementalTKDC object at ...>
    >>> model.insert(rng.normal(size=(100, 2)))
    >>> model.classify([[0.0, 0.0]])[0].name
    'HIGH'
    """

    def __init__(
        self,
        config: TKDCConfig | None = None,
        refit_fraction: float = 0.25,
        auto_refit: bool = True,
    ) -> None:
        if refit_fraction <= 0:
            raise ValueError(f"refit_fraction must be positive, got {refit_fraction}")
        self.config = config or TKDCConfig()
        self.refit_fraction = refit_fraction
        self.auto_refit = auto_refit
        self._classifier: TKDCClassifier | None = None
        self._indexed: np.ndarray | None = None
        self._n_indexed = 0
        # Preallocated insert buffer: rows [0, _buffer_count) are live.
        # Grown geometrically so k inserts cost O(total rows) amortized
        # instead of the O(k * total) of per-classify concatenation.
        self._buffer_array: np.ndarray | None = None
        self._buffer_count = 0
        # The buffer rows in bandwidth-scaled space, kept beside the raw
        # rows so a classify does not rescale the whole buffer. Only rows
        # past the live count are ever written in place, so a snapshot may
        # share it; a refit's new bandwidth brings a new array.
        self._scaled_array: np.ndarray | None = None
        # The model's tree with the first `_absorbed` buffered rows routed
        # into its leaves (the model's own flat tree while none are). An
        # absorb installs a new tree and never changes the old one, so a
        # snapshot may share it.
        self._absorbed = 0
        self._absorbed_tree: FlatTree | None = None
        self.refits = 0
        #: Bumped by :meth:`adopt`; lets external controllers tell which
        #: model generation produced an answer.
        self.generation = 0

    @property
    def classifier(self) -> TKDCClassifier:
        """The currently fitted underlying model."""
        if self._classifier is None:
            raise RuntimeError("IncrementalTKDC is not fitted; call fit() first")
        return self._classifier

    @property
    def n_indexed(self) -> int:
        """Points the current spatial index represents.

        After :meth:`adopt` this is the population count the adopted
        model was trained to represent (its index may hold a weighted
        coreset of fewer rows); the shifted-threshold algebra only needs
        the represented count.
        """
        return self._n_indexed

    @property
    def n_buffered(self) -> int:
        """Points inserted since the last (re)fit."""
        return self._buffer_count

    @property
    def n_total(self) -> int:
        """All points the model currently represents."""
        return self.n_indexed + self.n_buffered

    @property
    def n_absorbed(self) -> int:
        """Buffered rows routed into the tree (whole steps of the buffer)."""
        return self._absorbed

    @property
    def stats(self) -> TraversalStats:
        return self.classifier.stats

    @property
    def buffer_view(self) -> np.ndarray:
        """Zero-copy view of the live buffered rows."""
        if self._buffer_array is None or self._buffer_count == 0:
            return np.empty((0, self.classifier.kernel.dim))
        return self._buffer_array[: self._buffer_count]

    @property
    def scaled_buffer_view(self) -> np.ndarray:
        """The live buffered rows in the current kernel's scaled space."""
        if self._scaled_array is None or self._buffer_count == 0:
            return np.empty((0, self.classifier.kernel.dim))
        return self._scaled_array[: self._buffer_count]

    def fit(self, data: np.ndarray) -> "IncrementalTKDC":
        """(Re)train from scratch on ``data``; clears the buffer."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self._classifier = TKDCClassifier(self.config).fit(data)
        self._indexed = data
        self._n_indexed = data.shape[0]
        self._buffer_array = None
        self._scaled_array = None
        self._buffer_count = 0
        self._absorb()
        return self

    def adopt(
        self,
        classifier: TKDCClassifier,
        n_indexed: int,
        keep_last: int = 0,
        generation: int | None = None,
    ) -> "IncrementalTKDC":
        """Swap in an externally trained model (verified hot swap target).

        The streaming pipeline refits in a crash-isolated subprocess and
        ships the product through the sha256-verified reload path; the
        surviving classifier lands here. ``n_indexed`` is the number of
        stream points the new model represents (its threshold's
        population), and ``keep_last`` retains that many of the *most
        recent* buffered rows — the points that arrived while the refit
        was running and are therefore not in the new model.

        ``generation`` installs an absolute generation number instead of
        incrementing — WAL recovery uses it so a restarted daemon resumes
        the pre-crash accounting generation rather than silently starting
        over from 1.

        Raw training data is not retained, so automatic refits are
        unavailable after adoption (the external controller owns them).
        """
        if not classifier.is_fitted:
            raise ValueError("adopt() requires a fitted classifier")
        if n_indexed < 1:
            raise ValueError(f"n_indexed must be >= 1, got {n_indexed}")
        if generation is not None and generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        if not 0 <= keep_last <= self._buffer_count:
            raise ValueError(
                f"keep_last must be in [0, {self._buffer_count}], got {keep_last}"
            )
        if self._buffer_array is not None and keep_last:
            start = self._buffer_count - keep_last
            if start:
                # Slide the retained tail to the front of the same
                # preallocated array (no reallocation on swap).
                self._buffer_array[:keep_last] = self._buffer_array[
                    start : self._buffer_count
                ].copy()
        self._classifier = classifier
        self._indexed = None
        self._n_indexed = int(n_indexed)
        self._buffer_count = keep_last
        # The adopted model's bandwidth may differ: rescale the kept rows.
        self._scaled_array = None
        if self._buffer_array is not None:
            self._scaled_array = np.empty_like(self._buffer_array)
            self._scaled_array[:keep_last] = classifier.kernel.scale(self.buffer_view)
        self._absorb()
        if generation is None:
            self.generation += 1
        else:
            self.generation = int(generation)
        return self

    def insert(self, points: np.ndarray) -> None:
        """Add new observations; refits automatically when due.

        Raises ``ValueError``, storing nothing, for rows of the wrong
        dimensionality or holding NaN or infinity.
        """
        if self._classifier is None:
            raise RuntimeError("IncrementalTKDC is not fitted; call fit() first")
        self._append_to_buffer(as_insert_rows(points, self._classifier.kernel.dim, "insert"))
        if (
            self.auto_refit
            and self._indexed is not None
            and self._buffer_count > self.refit_fraction * self.n_indexed
        ):
            merged = np.concatenate([self._indexed, self.buffer_view])
            self.refits += 1
            self.fit(merged)

    def _append_to_buffer(self, points: np.ndarray) -> None:
        rows, dim = points.shape
        needed = self._buffer_count + rows
        if self._buffer_array is None:
            capacity = max(2 * rows, _MIN_BUFFER_CAPACITY)
            self._buffer_array = np.empty((capacity, dim))
            self._scaled_array = np.empty((capacity, dim))
        elif needed > self._buffer_array.shape[0]:
            capacity = max(2 * needed, 2 * self._buffer_array.shape[0])
            grown = np.empty((capacity, dim))
            grown[: self._buffer_count] = self._buffer_array[: self._buffer_count]
            self._buffer_array = grown
            grown = np.empty((capacity, dim))
            grown[: self._buffer_count] = self._scaled_array[: self._buffer_count]
            self._scaled_array = grown
        self._buffer_array[self._buffer_count : needed] = points
        self._scaled_array[self._buffer_count : needed] = self._classifier.kernel.scale(points)
        self._buffer_count = needed
        if needed - self._absorbed >= _ABSORB_STEP:
            self._absorb()

    def _absorb(self) -> None:
        """Route the buffer's whole steps into a new copy of the model's tree.

        Always from the model's own tree, so the result depends only on
        the model and the buffered rows, never on how inserts were
        batched.
        """
        absorbed = self._buffer_count // _ABSORB_STEP * _ABSORB_STEP
        self._absorbed_tree = self.classifier.tree.absorb(
            self.scaled_buffer_view[:absorbed], mass=self._n_indexed
        )
        self._absorbed = absorbed

    def classify_detailed(
        self,
        queries: np.ndarray,
        *,
        max_expansions: int | None | str = CONFIG_BUDGET,
        stats: TraversalStats | None = None,
    ) -> ClassificationResult:
        """Combined-density classification with degradation diagnostics.

        For each query the unabsorbed tail of the buffer is summed
        exactly and the tree's part (indexed points plus absorbed rows)
        is bounded against a correspondingly shifted threshold, so the
        decision is equivalent to classifying the full current dataset's
        density against the model threshold. All rows
        of one call share a single batched traversal, each pruned
        against its own shifted threshold. The returned bounds are on
        the *combined* density and compare against
        :attr:`ClassificationResult.threshold` exactly like
        :meth:`TKDCClassifier.classify_detailed` — the serving daemon
        routes streaming requests through this path with the same
        payload shape as batch ones. ``max_expansions`` and ``stats`` are
        :meth:`TKDCClassifier.classify_detailed`'s per-call budget and
        counter sink.
        """
        clf = self.classifier
        if stats is None:
            stats = clf.stats
        if max_expansions == CONFIG_BUDGET:
            max_expansions = clf.config.max_node_expansions
        matrix, invalid = clf._as_query_matrix(queries)
        config = clf.config
        kernel = clf.kernel
        threshold = clf.threshold.value
        # The tree answers for the indexed points and the absorbed rows;
        # the coreset slack covers only the indexed part of its mass.
        n_tree = self.n_indexed + self._absorbed
        eta = clf._rule_eta * (self.n_indexed / n_tree)
        n_total = self.n_total

        n_queries = matrix.shape[0]
        # np.full would coerce the IntEnum to a plain int on the way in;
        # slice-assignment into an object array keeps the Label objects.
        labels = np.empty(n_queries, dtype=object)
        labels[:] = Label.LOW
        lower = np.zeros(n_queries)
        upper = np.full(n_queries, np.inf)
        # Invalid rows keep the vacuous [0, inf) bounds and count as
        # degraded, so resolved_labels() surfaces them as UNCERTAIN.
        degraded = invalid.copy()
        valid_rows = np.flatnonzero(~invalid)
        if valid_rows.size == 0:
            return ClassificationResult(
                labels=labels, lower=lower, upper=upper,
                degraded=degraded, invalid=invalid, threshold=threshold,
            )
        scaled = kernel.scale(matrix[valid_rows])
        tail = self.scaled_buffer_view[self._absorbed :]
        buffer_sums = kernel.sums_at(tail, scaled)
        stats.kernel_evaluations += tail.shape[0] * valid_rows.size
        # With f_tree the tree's density and buffer_sum the exact tail's:
        # f_total = (n_tree * f_tree + buffer_sum) / n_total > t
        #   <=>  f_tree > (t * n_total - buffer_sum) / n_tree.
        shifted = (threshold * n_total - buffer_sums) / n_tree
        # Where the exact tail alone already pushes the density over t,
        # the tree's part can only add to it.
        cleared = shifted <= 0.0
        rows = valid_rows[cleared]
        labels[rows] = Label.HIGH
        lower[rows] = buffer_sums[cleared] / n_total
        stats.queries += rows.size
        traversed = np.flatnonzero(~cleared)
        if traversed.size:
            shifted = shifted[traversed]
            result = bound_densities(
                self._absorbed_tree, kernel, scaled[traversed], shifted, shifted,
                config.epsilon, stats,
                use_threshold_rule=config.use_threshold_rule,
                use_tolerance_rule=config.use_tolerance_rule,
                tolerance_reference=threshold,
                eta=eta,
                block_size=config.batch_block_size,
                max_expansions=max_expansions,
                guard_policy=config.guard_policy,
                faults=clf._traversal_injector(),
            )
            rows = valid_rows[traversed]
            sums = buffer_sums[traversed]
            # Map the indexed-part bounds back to combined-density space
            # (the same affine shift, so straddle-vs-threshold tests are
            # equivalent to the shifted-threshold decision).
            lower[rows] = (n_tree * np.maximum(result.lower - eta, 0.0) + sums) / n_total
            upper[rows] = (n_tree * (result.upper + eta) + sums) / n_total
            degraded[rows] = result.degraded
            labels[rows[result.midpoint > shifted]] = Label.HIGH
        return ClassificationResult(
            labels=labels, lower=lower, upper=upper,
            degraded=degraded, invalid=invalid, threshold=threshold,
        )

    def classify(self, queries: np.ndarray) -> np.ndarray:
        """Labels against the combined (indexed + buffered) density.

        Same contract as :meth:`TKDCClassifier.classify`: returns an
        object array of :class:`~repro.core.result.Label`. Rows flagged
        invalid under ``query_policy="flag"`` and budget-degraded
        traversals still straddling their (shifted) threshold come back
        ``Label.UNCERTAIN``.
        """
        return self.classify_detailed(queries).resolved_labels()

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Int64 labels for :meth:`classify` (1 = HIGH, UNCERTAIN = 2).

        Same contract as :meth:`TKDCClassifier.predict`.
        """
        return np.array(
            [int(label) for label in self.classify(queries)], dtype=np.int64
        )
