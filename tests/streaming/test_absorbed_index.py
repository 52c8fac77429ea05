"""The streaming buffer absorbed into the model's k-d tree.

:class:`~repro.core.incremental.IncrementalTKDC` routes whole steps of
``_ABSORB_STEP`` buffered rows into a copy of the model's tree
(:meth:`~repro.index.kdtree.KDTree.absorb`) and sums only the tail past
the last step exactly. These tests check the answer against exact
kernel sums over everything the model represents, the absorbed tree's
structure, and that the absorbed tree depends only on the model and the
buffered rows (not on insert batching, recovery or snapshots).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TKDCClassifier, TKDCConfig
from repro.core.incremental import _ABSORB_STEP, IncrementalTKDC
from repro.core.stats import TraversalStats
from repro.index.flat import NO_CHILD
from repro.index.kdtree import KDTree
from repro.streaming import StreamingPipeline

from .conftest import FAST_SETTINGS

KERNELS = ("gaussian", "epanechnikov", "uniform", "biweight", "triweight")


def exact_density(model: IncrementalTKDC, queries: np.ndarray) -> np.ndarray:
    """The combined density the model answers for, summed point by point.

    The model's tree points weigh ``n_indexed / W`` each (one for an
    ordinary fit) and every buffered row weighs one, all under the
    model's kernel.
    """
    clf = model.classifier
    kernel = clf.kernel
    tree = clf.tree
    weights = np.ones(tree.size) if tree.point_weights is None else tree.point_weights
    weights = weights * (model.n_indexed / tree.total_weight)
    points = np.concatenate([tree.points, kernel.scale(model.buffer_view)])
    weights = np.concatenate([weights, np.ones(model.n_buffered)])
    out = np.empty(queries.shape[0])
    for row, query in enumerate(kernel.scale(queries)):
        diffs = points - query
        out[row] = np.dot(kernel.value(np.einsum("ij,ij->i", diffs, diffs)), weights)
    return out / model.n_total


def assert_exact_outside_band(model: IncrementalTKDC, queries: np.ndarray) -> int:
    """Labels equal the exact combined-density labels outside ``±eps*t``."""
    density = exact_density(model, queries)
    t = model.classifier.threshold.value
    eps = model.config.epsilon
    result = model.classify_detailed(queries)
    assert (result.lower <= density * (1 + 1e-9) + 1e-300).all()
    assert (result.upper >= density * (1 - 1e-9)).all()
    labels = np.array([int(label) for label in result.labels])
    outside = np.abs(density - t) > eps * t
    np.testing.assert_array_equal(labels[outside], (density[outside] > t).astype(int))
    return int(outside.sum())


def data(rng, n, d, scale=1.0, shift=0.0):
    return rng.normal(size=(n, d)) * scale + shift


def queries_over(points, count, rng):
    return rng.uniform(points.min(axis=0) - 0.5, points.max(axis=0) + 0.5,
                       size=(count, points.shape[1]))


def assert_same_answer(first, second):
    """Labels, bounds and flags identical bit for bit."""
    assert list(first.labels) == list(second.labels)
    for name in ("lower", "upper", "degraded", "invalid"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


def answer_and_stats(model, queries):
    stats = TraversalStats()
    result = model.classify_detailed(queries, stats=stats)
    return result, stats.to_dict()


class TestExactLabels:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_buffer_spanning_several_steps(self, kernel, dim):
        rng = np.random.default_rng(dim)
        # Wide bandwidths keep the compact kernels' thresholds above zero.
        config = TKDCConfig(p=0.05, epsilon=0.05, seed=0, kernel=kernel, leaf_size=16,
                            bandwidth_scale=3.0)
        model = IncrementalTKDC(config, auto_refit=False).fit(data(rng, 1500, dim))
        model.insert(data(rng, 2 * _ABSORB_STEP + 300, dim, scale=1.3, shift=0.4))
        assert model.n_absorbed == 2 * _ABSORB_STEP
        queries = queries_over(model.buffer_view, 200, rng)
        assert assert_exact_outside_band(model, queries) > 150

    @pytest.mark.parametrize("method", ["uniform", "merge-reduce"])
    def test_weighted_coreset_tree(self, method):
        rng = np.random.default_rng(11)
        config = TKDCConfig(p=0.05, epsilon=0.05, seed=0, coreset=method,
                            coreset_fraction=0.2)
        clf = TKDCClassifier(config).fit(data(rng, 4000, 2))
        assert clf.tree.point_weights is not None or clf.tree.size < 4000
        model = IncrementalTKDC(config, auto_refit=False)
        model.adopt(clf, n_indexed=clf.coreset_.n)
        model.insert(data(rng, 2 * _ABSORB_STEP + 17, 2, scale=0.8, shift=1.0))
        queries = queries_over(model.buffer_view, 200, rng)
        assert assert_exact_outside_band(model, queries) > 150

    def test_tree_standing_for_a_larger_population(self):
        # A refit trained on a sample stands for more points than it
        # holds: its points weigh n_indexed / size each in the joint tree.
        rng = np.random.default_rng(12)
        config = TKDCConfig(p=0.05, epsilon=0.05, seed=0)
        clf = TKDCClassifier(config).fit(data(rng, 1000, 2))
        model = IncrementalTKDC(config, auto_refit=False)
        model.adopt(clf, n_indexed=3000)
        model.insert(data(rng, _ABSORB_STEP + 500, 2, shift=0.5))
        assert model._absorbed_tree.point_weights is not None
        assert model._absorbed_tree.total_weight == pytest.approx(3000 + _ABSORB_STEP)
        assert assert_exact_outside_band(model, queries_over(model.buffer_view, 200, rng)) > 150

    def test_drifted_stream_keeps_the_guarantee(self):
        # Rows far from the training data pile into a few boundary
        # leaves; pruning weakens there, the answers stay exact.
        rng = np.random.default_rng(13)
        config = TKDCConfig(p=0.05, epsilon=0.05, seed=0)
        train = data(rng, 2000, 2)
        model = IncrementalTKDC(config, auto_refit=False).fit(train)
        model.insert(data(rng, 3 * _ABSORB_STEP + 100, 2, scale=0.3, shift=6.0))
        flat = model._absorbed_tree
        leaves = flat.left == NO_CHILD
        assert flat.count[leaves].max() > 10 * model.config.leaf_size
        queries = np.concatenate([
            queries_over(model.buffer_view, 100, rng),
            queries_over(train, 100, rng),
        ])
        assert assert_exact_outside_band(model, queries) > 150


class TestAbsorbStructure:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_invariants(self, dim, weighted):
        rng = np.random.default_rng(dim)
        base = data(rng, 600, dim)
        weights = rng.uniform(0.5, 2.0, 600) if weighted else None
        tree = KDTree(base, leaf_size=8, weights=weights)
        rows = data(rng, 700, dim, scale=1.5, shift=0.3)
        flat = tree.absorb(rows, mass=900.0 if weighted else 600)
        assert flat.size == 1300
        assert flat.left is tree.flatten().left and flat.right is tree.flatten().right
        np.testing.assert_array_equal(
            np.sort(flat.points, axis=0), np.sort(np.concatenate([tree.points, rows]), axis=0)
        )
        for node in range(flat.n_nodes):
            points = flat.points[flat.start[node] : flat.end[node]]
            assert flat.count[node] == points.shape[0] > 0
            np.testing.assert_array_equal(flat.lo[node], points.min(axis=0))
            np.testing.assert_array_equal(flat.hi[node], points.max(axis=0))
            if flat.left[node] != NO_CHILD:
                left, right = flat.left[node], flat.right[node]
                assert flat.start[left] == flat.start[node]
                assert flat.end[left] == flat.start[right]
                assert flat.end[right] == flat.end[node]
        if weighted:
            assert flat.total_weight == pytest.approx(900.0 + 700.0)
            np.testing.assert_allclose(
                flat.node_weight,
                [flat.point_weights[s:e].sum() for s, e in zip(flat.start, flat.end)],
            )
        else:
            assert flat.point_weights is None
            np.testing.assert_array_equal(flat.node_weight, flat.count)

    def test_rows_follow_the_splits_in_row_order(self):
        # Coordinates on a half-unit lattice, so many rows sit exactly on
        # a split value and must go right, as in the build.
        rng = np.random.default_rng(4)
        tree = KDTree(np.round(data(rng, 300, 2, scale=2.0)) / 2, leaf_size=8)
        base = tree.flatten()
        rows = np.round(data(rng, 200, 2, scale=2.0)) / 2
        split_dim, split_value = tree.splits
        inner = split_dim >= 0
        assert np.isin(rows[:, 0], split_value[inner & (split_dim == 0)]).any()
        flat = tree.absorb(rows, mass=tree.size)
        leaf_of = np.array([descend(tree, point) for point in rows])
        for leaf in np.flatnonzero(base.left == NO_CHILD):
            # The leaf's own points first, then its rows in row order.
            own_end = flat.start[leaf] + base.count[leaf]
            np.testing.assert_array_equal(
                flat.points[flat.start[leaf] : own_end],
                base.points[base.start[leaf] : base.end[leaf]],
            )
            np.testing.assert_array_equal(
                flat.points[own_end : flat.end[leaf]], rows[leaf_of == leaf]
            )

    def test_zero_rows_return_the_same_tree(self):
        tree = KDTree(data(np.random.default_rng(5), 100, 2))
        assert tree.absorb(np.empty((0, 2)), mass=100) is tree.flatten()

    def test_below_one_step_serves_the_models_own_tree(self):
        rng = np.random.default_rng(6)
        model = IncrementalTKDC(TKDCConfig(p=0.05, seed=0), auto_refit=False)
        model.fit(data(rng, 1000, 2))
        model.insert(data(rng, _ABSORB_STEP - 1, 2))
        assert model.n_absorbed == 0
        assert model._absorbed_tree is model.classifier.tree.flatten()
        stats = TraversalStats()
        model.classify_detailed(data(rng, 10, 2), stats=stats)
        assert stats.kernel_evaluations >= 10 * (_ABSORB_STEP - 1)


def descend(tree: KDTree, point: np.ndarray) -> int:
    """The leaf ``point`` reaches by the tree's ``coord < value`` splits."""
    split_dim, split_value = tree.splits
    flat = tree.flatten()
    node = 0
    while split_dim[node] >= 0:
        goes_left = point[split_dim[node]] < split_value[node]
        node = flat.left[node] if goes_left else flat.right[node]
    return node


class TestDeterminism:
    def test_bulk_insert_equals_small_inserts(self):
        rng = np.random.default_rng(21)
        config = TKDCConfig(p=0.05, epsilon=0.01, seed=0, max_node_expansions=6)
        train = data(rng, 2000, 2)
        stream = data(rng, 2 * _ABSORB_STEP + 333, 2, shift=0.5)
        bulk = IncrementalTKDC(config, auto_refit=False).fit(train)
        bulk.insert(stream)
        small = IncrementalTKDC(config, auto_refit=False).fit(train)
        for at in range(0, stream.shape[0], 32):
            small.insert(stream[at : at + 32])
        for name in ("points", "lo", "hi", "start", "end", "node_weight"):
            np.testing.assert_array_equal(
                getattr(bulk._absorbed_tree, name), getattr(small._absorbed_tree, name)
            )
        queries = queries_over(stream, 300, rng)
        (first, first_stats), (second, second_stats) = (
            answer_and_stats(bulk, queries), answer_and_stats(small, queries)
        )
        assert_same_answer(first, second)
        assert first_stats == second_stats
        assert first.degraded.any()  # the budget bites somewhere

    @pytest.mark.parametrize("crash", [True, False])
    def test_recovery_reproduces_answers(self, stream_config, base_data, tmp_path, crash):
        from repro.streaming import StreamSettings

        settings = StreamSettings(**FAST_SETTINGS)
        pipeline = StreamingPipeline.from_data(
            base_data, stream_config, settings=settings,
            artifact_dir=tmp_path / "artifacts", wal_dir=tmp_path / "wal",
        )
        rng = np.random.default_rng(22)
        for __ in range(25):
            pipeline.ingest(rng.normal(size=(100, 2)) * 0.5)
        assert pipeline.model.n_absorbed == 2 * _ABSORB_STEP
        queries = rng.uniform(-2.0, 2.0, size=(200, 2))
        expected, expected_stats = answer_and_stats(pipeline.model, queries)
        fallback = pipeline.model.classifier
        if crash:
            pipeline.wal.abandon()  # replays the ingest frames one by one
        else:
            pipeline.stop(join=True)  # the snapshot's buffer, in one insert
        recovered = StreamingPipeline.recover(
            tmp_path / "wal", settings=settings, fallback_classifier=fallback,
        )
        try:
            assert recovered.recovery["records_replayed"] == (25 if crash else 0)
            got, got_stats = answer_and_stats(recovered.model, queries)
            assert_same_answer(got, expected)
            assert got_stats == expected_stats
        finally:
            recovered.stop(join=True)
            pipeline.stop(join=True)


class TestServingAndSwaps:
    def test_view_taken_before_an_absorb_answers_the_same(self, pipeline_factory):
        pipeline = pipeline_factory()
        rng = np.random.default_rng(31)
        pipeline.ingest(rng.normal(size=(_ABSORB_STEP - 24, 2)) * 0.5)
        queries = rng.uniform(-2.0, 2.0, size=(100, 2))
        view = pipeline.serving_view()
        before = view.classify_detailed(queries)
        pipeline.ingest(rng.normal(size=(64, 2)) * 0.5)
        assert pipeline.model.n_absorbed == _ABSORB_STEP and view.n_absorbed == 0
        assert_same_answer(view.classify_detailed(queries), before)
        status = pipeline.status()
        assert status["absorbed_rows"] == _ABSORB_STEP
        assert status["exact_tail_rows"] == 40
        assert status["n_buffered"] == status["absorbed_rows"] + status["exact_tail_rows"]

    def test_adopt_keep_last_with_a_new_bandwidth(self):
        rng = np.random.default_rng(32)
        config = TKDCConfig(p=0.05, epsilon=0.05, seed=0)
        model = IncrementalTKDC(config, auto_refit=False).fit(data(rng, 1500, 2))
        stream = data(rng, 3 * _ABSORB_STEP, 2, scale=2.0, shift=1.0)
        model.insert(stream)
        kept = _ABSORB_STEP + 200
        refit = TKDCClassifier(config).fit(data(rng, 1200, 2, scale=2.0, shift=1.0))
        assert not np.array_equal(refit.kernel.bandwidth, model.classifier.kernel.bandwidth)
        model.adopt(refit, n_indexed=1500 + 3 * _ABSORB_STEP - kept, keep_last=kept)
        assert model.n_buffered == kept and model.n_absorbed == _ABSORB_STEP
        expected = refit.tree.absorb(
            refit.kernel.scale(stream[-kept:][:_ABSORB_STEP]), mass=model.n_indexed
        )
        np.testing.assert_array_equal(model._absorbed_tree.points, expected.points)
        assert assert_exact_outside_band(model, queries_over(stream, 200, rng)) > 150
