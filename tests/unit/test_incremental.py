"""Unit tests for the incremental classifier."""

import numpy as np
import pytest

from repro import Label, TKDCConfig
from repro.baselines.simple import NaiveKDE
from repro.core.incremental import IncrementalTKDC


@pytest.fixture
def model(medium_gauss):
    return IncrementalTKDC(TKDCConfig(p=0.05, seed=0)).fit(medium_gauss)


class TestLifecycle:
    def test_requires_fit(self):
        model = IncrementalTKDC()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.insert(np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="not fitted"):
            __ = model.classifier

    def test_rejects_bad_refit_fraction(self):
        with pytest.raises(ValueError, match="positive"):
            IncrementalTKDC(refit_fraction=0.0)

    def test_counts(self, model, rng):
        assert model.n_indexed == 2000
        assert model.n_buffered == 0
        model.insert(rng.normal(size=(50, 2)))
        assert model.n_buffered == 50
        assert model.n_total == 2050

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError, match="dimensionality"):
            model.insert(np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_insert_stores_nothing(self, model, bad):
        points = np.zeros((3, 2))
        points[1, 0] = bad
        with pytest.raises(ValueError, match="insert row 1 is not finite"):
            model.insert(points)
        assert model.n_buffered == 0

    def test_refit_triggers(self, medium_gauss, rng):
        model = IncrementalTKDC(TKDCConfig(p=0.05, seed=0), refit_fraction=0.1)
        model.fit(medium_gauss)
        model.insert(rng.normal(size=(250, 2)))  # > 10% of 2000
        assert model.refits == 1
        assert model.n_buffered == 0
        assert model.n_indexed == 2250


class TestClassification:
    def test_matches_batch_when_buffer_empty(self, model, medium_gauss, rng):
        queries = rng.normal(size=(50, 2)) * 2
        incremental = model.predict(queries)
        batch = model.classifier.predict(queries)
        np.testing.assert_array_equal(incremental, batch)

    def test_buffer_contributions_counted(self, model, rng):
        # A previously empty region becomes dense after inserts; the
        # combined density must flip the classification without a refit.
        spot = np.array([8.0, 8.0])
        assert model.classify(spot[None, :])[0] is Label.LOW
        cluster = spot + rng.normal(scale=0.05, size=(400, 2))
        model.insert(cluster)
        assert model.n_buffered == 400  # no refit yet (<= 25% of 2000)
        assert model.classify(spot[None, :])[0] is Label.HIGH

    def test_combined_density_guarantee(self, medium_gauss, rng):
        """Labels match exact combined-density classification."""
        model = IncrementalTKDC(TKDCConfig(p=0.05, seed=0), refit_fraction=0.5)
        model.fit(medium_gauss)
        extra = rng.normal(size=(300, 2)) * 0.5
        model.insert(extra)
        assert model.n_buffered == 300

        combined = np.concatenate([medium_gauss, extra])
        # Exact densities under the *model's* (stale-bandwidth) kernel.
        kernel = model.classifier.kernel
        scaled_all = kernel.scale(combined)
        queries = rng.normal(size=(80, 2)) * 1.5
        scaled_queries = kernel.scale(queries)
        t = model.classifier.threshold.value
        eps = model.config.epsilon
        labels = model.predict(queries)
        for i in range(queries.shape[0]):
            diffs = scaled_all - scaled_queries[i]
            sq = np.einsum("ij,ij->i", diffs, diffs)
            density = float(np.sum(kernel.value(sq))) / combined.shape[0]
            if density > t * (1 + eps):
                assert labels[i] == 1, i
            elif density < t * (1 - eps):
                assert labels[i] == 0, i

    def test_stats_exposed(self, model, rng):
        before = model.stats.queries
        model.classify(rng.normal(size=(5, 2)))
        assert model.stats.queries >= before


class TestRobustnessContract:
    """Regression: classify used to bypass the robustness layer entirely
    (no query validation, no guards, no budget, never UNCERTAIN)."""

    def test_query_policy_raise_rejects_nan(self, model):
        with pytest.raises(ValueError, match="query_policy='flag'"):
            model.classify(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_query_policy_flag_marks_uncertain(self, model, rng):
        model.config = model.config.with_updates(query_policy="flag")
        model.classifier.config = model.config
        try:
            queries = rng.normal(size=(6, 2))
            queries[2] = [np.inf, 0.0]
            labels = model.classify(queries)
            assert labels[2] is Label.UNCERTAIN
            assert all(
                label in (Label.HIGH, Label.LOW)
                for i, label in enumerate(labels) if i != 2
            )
            assert model.predict(queries)[2] == 2
        finally:
            model.config = model.config.with_updates(query_policy="raise")
            model.classifier.config = model.config

    def test_budget_degraded_straddle_surfaces_uncertain(self, medium_gauss, rng):
        """With a starvation budget, straddling queries come back
        UNCERTAIN instead of a silently best-effort HIGH/LOW."""
        model = IncrementalTKDC(
            TKDCConfig(p=0.05, seed=0, max_node_expansions=1,
                       use_grid=False, leaf_size=4)
        ).fit(medium_gauss)
        model.insert(rng.normal(size=(50, 2)))
        labels = model.classify(rng.normal(size=(64, 2)))
        assert any(label is Label.UNCERTAIN for label in labels)

    def test_fault_plan_fires_through_incremental(self, medium_gauss):
        """Injected traversal faults reach the incremental path's
        bound_density calls (the guards repair them; stats record it)."""
        from repro.robustness.faults import FaultPlan
        from repro.robustness.guards import REPAIRS_KEY

        config = TKDCConfig(
            p=0.05, seed=0, guard_policy="repair",
            fault_plan=FaultPlan(corrupt_bound_nodes=(0, 1, 2)),
        )
        model = IncrementalTKDC(config).fit(medium_gauss)
        repaired_before = model.stats.extras.get(REPAIRS_KEY, 0.0)
        model.classify(np.zeros((4, 2)))
        assert model.stats.extras.get(REPAIRS_KEY, 0.0) > repaired_before


class TestClassifyDetailed:
    def test_resolved_labels_match_classify(self, model, rng):
        model.insert(rng.normal(size=(60, 2)))
        queries = rng.normal(size=(40, 2)) * 1.5
        detailed = model.classify_detailed(queries)
        np.testing.assert_array_equal(
            detailed.resolved_labels(), model.classify(queries)
        )

    def test_combined_bounds_bracket_exact_density(
        self, model, medium_gauss, rng
    ):
        """The reported bounds are on the *combined* density: they must
        bracket the exact brute-force density over indexed + buffered
        points under the model's kernel."""
        extra = rng.normal(size=(200, 2)) * 0.5
        model.insert(extra)
        queries = rng.normal(size=(30, 2))
        detailed = model.classify_detailed(queries)
        combined = np.concatenate([medium_gauss, extra])
        kernel = model.classifier.kernel
        scaled_all = kernel.scale(combined)
        scaled_queries = kernel.scale(queries)
        for i in range(queries.shape[0]):
            diffs = scaled_all - scaled_queries[i]
            sq = np.einsum("ij,ij->i", diffs, diffs)
            density = float(np.sum(kernel.value(sq))) / combined.shape[0]
            assert detailed.lower[i] <= density + 1e-12, i
            assert density <= detailed.upper[i] + 1e-12, i


class TestTypeContract:
    def test_classify_returns_label_object_array(self, model, rng):
        queries = rng.normal(size=(10, 2))
        labels = model.classify(queries)
        assert labels.dtype == object
        assert all(isinstance(label, Label) for label in labels)
        batch = model.classifier.classify(queries)
        assert batch.dtype == labels.dtype

    def test_predict_returns_int64(self, model, rng):
        predictions = model.predict(rng.normal(size=(10, 2)))
        assert predictions.dtype == np.int64
        assert set(np.unique(predictions)) <= {0, 1, 2}


class TestBuffer:
    def test_buffer_preallocates_and_grows_geometrically(self, model, rng):
        model.insert(rng.normal(size=(10, 2)))
        array = model._buffer_array
        assert array.shape[0] >= 256  # preallocated, not 10 rows
        # Inserts under capacity reuse the same allocation.
        model.insert(rng.normal(size=(100, 2)))
        assert model._buffer_array is array
        # Outgrowing it reallocates to at least double.
        model.insert(rng.normal(size=(array.shape[0], 2)))
        assert model._buffer_array is not array
        assert model._buffer_array.shape[0] >= 2 * array.shape[0]

    def test_buffer_view_is_live_rows_only(self, model, rng):
        points = rng.normal(size=(7, 2))
        model.insert(points)
        np.testing.assert_array_equal(model.buffer_view, points)
        assert model.buffer_view.base is model._buffer_array  # zero-copy


class TestAdopt:
    def test_adopt_swaps_model_and_rebases_counts(self, model, medium_gauss, rng):
        from repro.core.classifier import TKDCClassifier

        model.insert(rng.normal(size=(30, 2)))
        replacement = TKDCClassifier(TKDCConfig(p=0.05, seed=1)).fit(
            medium_gauss[:1500]
        )
        model.adopt(replacement, n_indexed=2010, keep_last=20)
        assert model.classifier is replacement
        assert model.n_indexed == 2010
        assert model.n_buffered == 20
        assert model.n_total == 2030
        assert model.generation == 1

    def test_adopt_keeps_the_most_recent_rows(self, model, rng):
        early = rng.normal(size=(20, 2))
        late = rng.normal(size=(5, 2))
        model.insert(early)
        model.insert(late)
        model.adopt(model.classifier, n_indexed=2020, keep_last=5)
        np.testing.assert_array_equal(model.buffer_view, late)

    def test_adopt_validates(self, model):
        from repro.core.classifier import TKDCClassifier

        with pytest.raises(ValueError, match="fitted"):
            model.adopt(TKDCClassifier(), n_indexed=10)
        with pytest.raises(ValueError, match="n_indexed"):
            model.adopt(model.classifier, n_indexed=0)
        with pytest.raises(ValueError, match="keep_last"):
            model.adopt(model.classifier, n_indexed=10, keep_last=1)

    def test_auto_refit_disabled_after_adopt(self, medium_gauss, rng):
        model = IncrementalTKDC(
            TKDCConfig(p=0.05, seed=0), refit_fraction=0.01
        ).fit(medium_gauss)
        model.adopt(model.classifier, n_indexed=2000)
        model.insert(rng.normal(size=(100, 2)))  # way past refit_fraction
        assert model.refits == 0  # raw data gone; external refits only


class TestScaledBuffer:
    """The buffer is kept in scaled space as rows arrive."""

    def _check(self, model, queries):
        kernel = model.classifier.kernel
        rescaled = kernel.scale(model.buffer_view)
        kept = model.scaled_buffer_view
        assert kept.shape == rescaled.shape
        assert np.array_equal(kept.view(np.int64), rescaled.view(np.int64))
        fresh = IncrementalTKDC(model.config, auto_refit=False)
        fresh.adopt(model.classifier, n_indexed=model.n_indexed)
        if model.n_buffered:
            fresh.insert(model.buffer_view.copy())
        got, want = model.classify_detailed(queries), fresh.classify_detailed(queries)
        np.testing.assert_array_equal(got.lower, want.lower)
        np.testing.assert_array_equal(got.upper, want.upper)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_sizes_and_adopt(self, medium_gauss, rng):
        from repro.core.classifier import TKDCClassifier

        model = IncrementalTKDC(TKDCConfig(p=0.05, seed=0), auto_refit=False)
        model.fit(medium_gauss)
        queries = rng.normal(size=(40, 2)) * 1.5
        self._check(model, queries)
        for total in (2000, 9000):
            while model.n_buffered < total:
                model.insert(rng.normal(size=(min(700, total - model.n_buffered), 2)))
            self._check(model, queries)
        # A model fitted on wider data has a different bandwidth: the kept
        # rows are rescaled under it.
        wider = TKDCClassifier(TKDCConfig(p=0.05, seed=1)).fit(medium_gauss * 3.0)
        assert not np.array_equal(wider.kernel.bandwidth, model.classifier.kernel.bandwidth)
        model.adopt(wider, n_indexed=medium_gauss.shape[0], keep_last=1500)
        self._check(model, queries)
        model.insert(rng.normal(size=(50, 2)))
        self._check(model, queries)
