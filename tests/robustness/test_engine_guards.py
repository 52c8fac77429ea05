"""Injected traversal corruption caught by the guards, engine by engine.

Every scenario runs against BOTH engines: the per-query reference
(`bound_density`) and the vectorized batch traversal
(`bound_densities`) share the guard sites, so the observable behaviour
under each policy must be identical in kind.
"""

import warnings

import numpy as np
import pytest

from repro import (
    FaultPlan,
    GuardWarning,
    InvariantViolation,
    TKDCClassifier,
    TKDCConfig,
)
from repro.robustness.guards import REPAIRS_KEY

ENGINES = ("per-query", "batch")


def _faulted(restore_config, **config_changes):
    clf = restore_config
    clf.config = clf.config.with_updates(**config_changes)
    return clf


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", ["nan", "invert", "inf"])
class TestBoundCorruption:
    def _plan(self, mode):
        # Ordinal 0 is the root-bound computation: guaranteed to run for
        # every traversed query, whatever the tree shape.
        return FaultPlan(corrupt_bound_nodes=(0,), corrupt_bound_mode=mode)

    def test_repair_keeps_labels_correct_and_counts(
        self, restore_config, query_points, clean_labels, engine, mode
    ):
        clf = _faulted(
            restore_config,
            fault_plan=self._plan(mode), guard_policy="repair",
        )
        before = clf.stats.extras.get(REPAIRS_KEY, 0.0)
        labels = clf.classify(query_points, engine=engine)
        assert np.array_equal(labels, clean_labels)
        assert clf.stats.extras.get(REPAIRS_KEY, 0.0) > before

    def test_warn_emits_guard_warning(
        self, restore_config, query_points, clean_labels, engine, mode
    ):
        clf = _faulted(
            restore_config,
            fault_plan=self._plan(mode), guard_policy="warn",
        )
        with pytest.warns(GuardWarning):
            labels = clf.classify(query_points, engine=engine)
        assert np.array_equal(labels, clean_labels)

    def test_raise_fails_fast(
        self, restore_config, query_points, engine, mode
    ):
        clf = _faulted(
            restore_config,
            fault_plan=self._plan(mode), guard_policy="raise",
        )
        with pytest.raises(InvariantViolation):
            clf.classify(query_points, engine=engine)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_off_lets_the_corruption_through(
        self, restore_config, query_points, engine, mode
    ):
        # The control arm: with guards disabled the same fault flows
        # into the traversal unchecked (no exception, no repair count).
        clf = _faulted(
            restore_config,
            fault_plan=self._plan(mode), guard_policy="off",
        )
        before = clf.stats.extras.get(REPAIRS_KEY, 0.0)
        clf.classify(query_points, engine=engine)
        assert clf.stats.extras.get(REPAIRS_KEY, 0.0) == before


@pytest.mark.parametrize("engine", ENGINES)
class TestLeafCorruption:
    """Leaf sums that escape their envelope (classically: underflow)."""

    @pytest.fixture()
    def leaf_clf(self, train_data):
        # A leaf-only tree (leaf_size >= n) makes leaf ordinal 0 the
        # first evaluation of every traversal, so the fault always fires.
        return TKDCClassifier(
            TKDCConfig(p=0.05, seed=3, leaf_size=4096, use_grid=False)
        ).fit(train_data)

    def test_repair_catches_escaped_leaf_sum(self, leaf_clf, query_points, engine):
        leaf_clf.config = leaf_clf.config.with_updates(
            fault_plan=FaultPlan(
                underflow_leaves=tuple(range(len(query_points))),
                underflow_value=float("nan"),
            ),
            guard_policy="repair",
        )
        before = leaf_clf.stats.extras.get(REPAIRS_KEY, 0.0)
        labels = leaf_clf.classify(query_points, engine=engine)
        assert labels.shape[0] == query_points.shape[0]
        assert leaf_clf.stats.extras.get(REPAIRS_KEY, 0.0) > before

    def test_raise_catches_escaped_leaf_sum(self, leaf_clf, query_points, engine):
        leaf_clf.config = leaf_clf.config.with_updates(
            fault_plan=FaultPlan(
                underflow_leaves=(0,), underflow_value=float("nan")
            ),
            guard_policy="raise",
        )
        with pytest.raises(InvariantViolation, match="leaf"):
            leaf_clf.classify(query_points, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_fit_time_guards_cover_the_bootstrap(train_data, engine):
    """A fit under guard_policy='repair' completes with correct plumbing.

    The threshold bootstrap passes the policy into its traversal calls
    and re-guards the order-statistic bracket; on clean data this must
    be a no-op that still produces a working classifier.
    """
    clf = TKDCClassifier(
        TKDCConfig(p=0.05, seed=3, engine=engine, guard_policy="repair")
    ).fit(train_data)
    assert clf.is_fitted
    assert 0.0 <= clf.threshold.lower <= clf.threshold.value <= clf.threshold.upper


@pytest.mark.parametrize("policy", ["repair", "warn"])
def test_overflowing_node_mass_takes_the_exact_fallback(policy):
    # Point weights are each finite, but their running sum overflows, so
    # the tree's upper node masses are inf or NaN. The node guard's
    # repair ceiling is then non-finite too, the running interval cannot
    # stay finite, and both engines retire every query through the
    # accumulator site's exact fallback.
    from repro.core.batch_bounds import bound_densities
    from repro.core.bounds import EXACT_FALLBACKS_KEY, bound_density
    from repro.core.stats import TraversalStats
    from repro.index.kdtree import KDTree
    from repro.kernels.gaussian import GaussianKernel

    rng = np.random.default_rng(0)
    with np.errstate(over="ignore", invalid="ignore"):
        tree = KDTree(rng.normal(size=(64, 2)), leaf_size=4, weights=np.full(64, 1e307))
    assert not np.isfinite(tree.total_weight)
    kernel = GaussianKernel(np.ones(2))
    queries = rng.normal(size=(5, 2))
    batch_stats, per_query_stats = TraversalStats(), TraversalStats()
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)
        batch = bound_densities(
            tree.flatten(), kernel, queries, 0.01, 0.01, 0.1, batch_stats,
            guard_policy=policy,
        )
        per_query = [
            bound_density(tree, kernel, query, 0.01, 0.01, 0.1, per_query_stats,
                          guard_policy=policy)
            for query in queries
        ]
    assert batch_stats.extras[EXACT_FALLBACKS_KEY] == len(queries)
    assert per_query_stats.extras == batch_stats.extras
    assert (batch.outcome_codes == 0).all()
    for row, result in enumerate(per_query):
        assert result.outcome is None
        np.testing.assert_array_equal(
            [batch.lower[row], batch.upper[row]], [result.lower, result.upper]
        )
