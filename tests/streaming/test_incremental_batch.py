"""The batched streaming classify against the per-row loop it replaced.

:meth:`IncrementalTKDC.classify_detailed` bounds every row of a request
in one :func:`~repro.core.batch_bounds.bound_densities` call, each row
pruned against its own shifted threshold. The oracle below is the
per-row :func:`~repro.core.bounds.bound_density` loop that path used
before, with the per-row ``einsum`` sum over the buffer rows not yet
absorbed into the tree (the whole buffer below one absorb step): labels,
``degraded``/``invalid`` flags and every
:class:`~repro.core.stats.TraversalStats` counter must be identical,
and bounds may differ only by the vector-vs-scalar summation drift.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import TKDCConfig
from repro.core.batch_bounds import bound_densities
from repro.core.bounds import bound_density
from repro.core.incremental import _ABSORB_STEP, IncrementalTKDC
from repro.core.result import Label
from repro.core.stats import TraversalStats
from repro.robustness.faults import FaultPlan

#: Vector and scalar leaf sums round differently; bounds agree to this.
BOUND_RTOL = 1e-12


def absorbed_kdtree(model: IncrementalTKDC):
    """The model's tree with the absorbed rows, as a per-query-engine tree.

    A copy of the :class:`~repro.index.kdtree.KDTree` whose arrays are
    swapped for the absorbed flat tree's (the splits and depths are
    shared); its ``Node`` objects are linked from the new arrays.
    """
    tree = model.classifier.tree
    absorbed = tree.absorb(
        model.scaled_buffer_view[: model.n_absorbed], mass=model.n_indexed
    )
    joint = copy.copy(tree)
    joint._flat = absorbed
    joint._root = None
    joint.points = absorbed.points
    joint.point_weights = absorbed.point_weights
    joint._weight_prefix = (
        None if absorbed.point_weights is None
        else np.concatenate(([0.0], np.cumsum(absorbed.point_weights)))
    )
    return joint


def per_row_oracle(model: IncrementalTKDC, queries: np.ndarray):
    """One heap traversal per row (the pre-batch classify_detailed)."""
    clf = model.classifier
    matrix, invalid = clf._as_query_matrix(queries)
    config = clf.config
    kernel = clf.kernel
    threshold = clf.threshold.value
    absorbed = model.n_absorbed
    tree = absorbed_kdtree(model) if absorbed else clf.tree
    n_indexed, n_total = model.n_indexed + absorbed, model.n_total
    eta = clf._rule_eta * (model.n_indexed / n_indexed)
    n_queries = matrix.shape[0]
    labels = np.empty(n_queries, dtype=object)
    labels[:] = Label.LOW
    lower = np.zeros(n_queries)
    upper = np.full(n_queries, np.inf)
    degraded = invalid.copy()
    valid_rows = np.flatnonzero(~invalid)
    if valid_rows.size == 0:
        return labels, lower, upper, degraded, invalid
    scaled = kernel.scale(matrix[valid_rows])
    tail = model.buffer_view[absorbed:]
    buffer = kernel.scale(tail) if tail.shape[0] else None
    faults = clf._traversal_injector()
    for local, row in enumerate(valid_rows):
        query = scaled[local]
        buffer_sum = 0.0
        if buffer is not None:
            # The per-row einsum sum (independent of Kernel.sums_at).
            diffs = buffer - query
            buffer_sum = float(np.sum(kernel.value(np.einsum("ij,ij->i", diffs, diffs))))
            clf.stats.kernel_evaluations += buffer.shape[0]
        shifted = (threshold * n_total - buffer_sum) / n_indexed
        if shifted <= 0.0:
            labels[row] = Label.HIGH
            lower[row] = buffer_sum / n_total
            clf.stats.queries += 1
            continue
        result = bound_density(
            tree, kernel, query, shifted, shifted, config.epsilon, clf.stats,
            use_threshold_rule=config.use_threshold_rule,
            use_tolerance_rule=config.use_tolerance_rule,
            tolerance_reference=threshold,
            eta=eta,
            max_expansions=config.max_node_expansions,
            guard_policy=config.guard_policy,
            faults=faults,
        )
        lo = max(result.lower - eta, 0.0)
        up = result.upper + eta
        lower[row] = (n_indexed * lo + buffer_sum) / n_total
        upper[row] = (n_indexed * up + buffer_sum) / n_total
        degraded[row] = result.degraded
        labels[row] = Label.HIGH if result.midpoint > shifted else Label.LOW
    return labels, lower, upper, degraded, invalid


def assert_matches_oracle(model: IncrementalTKDC, queries: np.ndarray) -> None:
    stats = model.stats
    stats.reset()
    labels, lower, upper, degraded, invalid = per_row_oracle(model, queries)
    expected_stats = stats.to_dict()
    stats.reset()
    result = model.classify_detailed(queries)
    assert list(result.labels) == list(labels)
    np.testing.assert_array_equal(result.degraded, degraded)
    np.testing.assert_array_equal(result.invalid, invalid)
    assert stats.to_dict() == expected_stats
    np.testing.assert_allclose(result.lower, lower, rtol=BOUND_RTOL, atol=0.0)
    np.testing.assert_allclose(result.upper, upper, rtol=BOUND_RTOL, atol=0.0)


def fitted(**overrides) -> IncrementalTKDC:
    # A wide epsilon and small leaves make every stop reason occur on
    # spread queries: both threshold prunes, tolerance prunes and, under
    # a 20-expansion budget, budget stops.
    rng = np.random.default_rng(3)
    config = TKDCConfig(**{"p": 0.05, "seed": 0, "epsilon": 0.2, "leaf_size": 4,
                           **overrides})
    return IncrementalTKDC(config, auto_refit=False).fit(rng.normal(size=(3000, 2)))


def spread_queries(count: int, seed: int = 4) -> np.ndarray:
    """Queries over the data's bounding box, so most rows traverse."""
    return np.random.default_rng(seed).uniform(-4.0, 4.0, size=(count, 2))


@pytest.mark.parametrize("budget", [None, 20])
@pytest.mark.parametrize("buffered", [0, 32, 2000])
def test_matches_per_row_loop(buffered, budget):
    model = fitted(max_node_expansions=budget)
    if buffered:
        model.insert(np.random.default_rng(5).normal(size=(buffered, 2)))
    assert model.n_buffered == buffered
    assert_matches_oracle(model, spread_queries(96))
    stats = model.stats
    assert stats.threshold_prunes_high and stats.threshold_prunes_low
    if budget is None:
        assert stats.tolerance_prunes
    else:
        assert stats.extras["budget_stops"]


def test_buffer_spanning_several_sum_blocks():
    # 9,000 buffered rows put whole absorb steps into the tree and leave
    # an exact tail; the oracle traverses the absorbed tree row by row.
    model = fitted()
    model.insert(np.random.default_rng(5).normal(size=(9000, 2)))
    assert model.n_absorbed == 9000 // _ABSORB_STEP * _ABSORB_STEP
    assert_matches_oracle(model, spread_queries(96))
    result = model.classify_detailed(spread_queries(96))
    assert (result.labels == Label.HIGH).any() and (result.labels == Label.LOW).any()


def test_rule_eta_covers_the_indexed_part_only():
    # A certified coreset slack bounds the indexed part's error; the
    # absorbed rows are exact, so the tree's eta shrinks by their share.
    model = fitted()
    model.classifier._rule_eta = 0.05 * model.classifier.threshold.value
    model.insert(np.random.default_rng(5).normal(size=(2 * _ABSORB_STEP + 100, 2)))
    assert_matches_oracle(model, spread_queries(96))


def test_flagged_nan_row_and_buffer_cleared_row():
    model = fitted(query_policy="flag")
    spot = np.array([7.0, 7.0])
    model.insert(spot + np.random.default_rng(6).normal(scale=0.01, size=(32, 2)))
    queries = spread_queries(40)
    queries[3] = np.nan
    queries[7] = spot
    threshold = model.classifier.threshold.value
    kernel = model.classifier.kernel
    buffer_sum = kernel.sum_at(kernel.scale(model.buffer_view), kernel.scale(spot[None])[0])
    assert threshold * model.n_total - buffer_sum <= 0.0  # the buffer alone clears t
    assert_matches_oracle(model, queries)
    result = model.classify_detailed(queries)
    assert result.invalid[3] and result.degraded[3]
    assert result.labels[7] is Label.HIGH and result.upper[7] == np.inf


@pytest.mark.parametrize("mode", ["nan", "invert", "inf"])
def test_repair_guard_with_fault_plan(mode):
    # Bound ordinal 0 is the first traversed row's root in both engines;
    # later ordinals are numbered row-major per query versus round-major
    # across the batch, so a multi-row plan can only target ordinal 0.
    plan = FaultPlan(corrupt_bound_nodes=(0,), corrupt_bound_mode=mode)
    model = fitted(guard_policy="repair", fault_plan=plan)
    model.insert(np.random.default_rng(5).normal(size=(32, 2)))
    assert_matches_oracle(model, spread_queries(48))
    assert model.stats.extras["guard_repairs"]


def test_repair_guard_with_fault_plan_single_row():
    # One row numbers its bound and leaf ordinals identically in both
    # engines, so every planned fault lands on the same node.
    plan = FaultPlan(corrupt_bound_nodes=(0, 3, 6), underflow_leaves=(0, 2))
    model = fitted(guard_policy="repair", fault_plan=plan, leaf_size=8)
    model.insert(np.random.default_rng(5).normal(size=(32, 2)))
    for seed in range(4):
        assert_matches_oracle(model, spread_queries(1, seed=seed))
        assert model.stats.extras["guard_repairs"]


class TestPerQueryThresholds:
    @pytest.fixture
    def setup(self):
        model = fitted()
        clf = model.classifier
        queries = clf.kernel.scale(spread_queries(300))
        return clf, queries, clf.threshold.value

    def run(self, clf, queries, t_lower, t_upper, reference, block_size=64):
        stats = TraversalStats()
        result = bound_densities(
            clf.tree.flatten(), clf.kernel, queries, t_lower, t_upper,
            clf.config.epsilon, stats, tolerance_reference=reference,
            max_expansions=25, block_size=block_size,
        )
        return result, stats.to_dict()

    def test_constant_array_is_bit_identical_to_scalar(self, setup):
        clf, queries, t = setup
        scalar, scalar_stats = self.run(clf, queries, t, t, None)
        column = np.full(queries.shape[0], t)
        batched, batched_stats = self.run(clf, queries, column, column, t)
        np.testing.assert_array_equal(batched.lower, scalar.lower)
        np.testing.assert_array_equal(batched.upper, scalar.upper)
        np.testing.assert_array_equal(batched.outcome_codes, scalar.outcome_codes)
        np.testing.assert_array_equal(batched.degraded, scalar.degraded)
        assert batched_stats == scalar_stats

    def test_rows_match_their_own_scalar_call(self, setup):
        clf, queries, t = setup
        thresholds = t * np.random.default_rng(8).uniform(0.2, 5.0, queries.shape[0])
        batched, __ = self.run(clf, queries, thresholds, thresholds, t)
        for row in range(0, queries.shape[0], 37):
            alone, __ = self.run(
                clf, queries[row : row + 1], thresholds[row], thresholds[row], t
            )
            assert alone.lower[0] == batched.lower[row]
            assert alone.upper[0] == batched.upper[row]
            assert alone.outcome_codes[0] == batched.outcome_codes[row]

    def test_inverted_element_raises(self, setup):
        clf, queries, t = setup
        t_lower = np.full(queries.shape[0], t)
        t_upper = t_lower.copy()
        t_upper[5] = 0.5 * t
        with pytest.raises(ValueError, match="at query 5"):
            self.run(clf, queries, t_lower, t_upper, t)

    def test_arrays_need_a_tolerance_reference(self, setup):
        clf, queries, t = setup
        column = np.full(queries.shape[0], t)
        with pytest.raises(ValueError, match="tolerance_reference"):
            self.run(clf, queries, column, column, None)
