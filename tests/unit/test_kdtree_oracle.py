"""The level-by-level ``KDTree`` build against the per-node oracle.

``tests/unit/kdtree_oracle.py`` keeps the node-at-a-time builder. Every
case here requires bit-identical output: the point permutation, the
permuted weights, every ``FlatTree`` array and the lazily linked
``Node`` fields.
"""

import numpy as np
import pytest

from repro.index.kdtree import KDTree
from repro.index.splitting import (
    median_split,
    segment_median,
    segment_percentile,
    segment_trimmed_midpoint,
    trimmed_midpoint_split,
)
from tests.unit.kdtree_oracle import OracleTree


def assert_matches_oracle(points, **kwargs):
    tree = KDTree(points, **kwargs)
    oracle = OracleTree(points, **kwargs)
    np.testing.assert_array_equal(tree.points, oracle.points)
    np.testing.assert_array_equal(tree.indices, oracle.indices)
    if oracle.point_weights is None:
        assert tree.point_weights is None
    else:
        np.testing.assert_array_equal(tree.point_weights, oracle.point_weights)
    flat = tree.flatten()
    for name, expected in oracle.flat_arrays().items():
        actual = getattr(flat, name)
        assert actual.dtype == expected.dtype, name
        np.testing.assert_array_equal(actual, expected, err_msg=name)
    nodes, expected_nodes = list(tree.iter_nodes()), list(oracle.iter_nodes())
    assert len(nodes) == len(expected_nodes)
    for node, expected in zip(nodes, expected_nodes):
        assert (node.start, node.end, node.depth, node.split_dim, node.is_leaf) == (
            expected.start, expected.end, expected.depth, expected.split_dim, expected.is_leaf
        )
        np.testing.assert_array_equal(node.lo, expected.lo)
        np.testing.assert_array_equal(node.hi, expected.hi)
        np.testing.assert_array_equal(node.split_value, expected.split_value)
    return tree


@pytest.mark.parametrize("split_rule", ["trimmed_midpoint", "median"])
@pytest.mark.parametrize("axis_rule", ["cycle", "widest"])
@pytest.mark.parametrize("leaf_size", [1, 2, 32])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_gaussian_points(split_rule, axis_rule, leaf_size, dim):
    points = np.random.default_rng(dim * 100 + leaf_size).normal(size=(600, dim))
    assert_matches_oracle(
        points, leaf_size=leaf_size, split_rule=split_rule, axis_rule=axis_rule
    )


@pytest.mark.parametrize("split_rule", ["trimmed_midpoint", "median"])
@pytest.mark.parametrize("axis_rule", ["cycle", "widest"])
def test_weighted(rng, split_rule, axis_rule):
    points = rng.normal(size=(500, 3))
    weights = rng.uniform(0.1, 3.0, size=500)
    tree = assert_matches_oracle(
        points, leaf_size=8, split_rule=split_rule, axis_rule=axis_rule, weights=weights
    )
    assert tree.flatten().point_weights is tree.point_weights


@pytest.mark.parametrize("axis_rule", ["cycle", "widest"])
class TestDegenerateInputs:
    def test_all_identical(self, axis_rule):
        tree = assert_matches_oracle(np.ones((100, 3)), leaf_size=4, axis_rule=axis_rule)
        assert tree.flatten().n_nodes == 1

    def test_constant_axis(self, rng, axis_rule):
        points = rng.normal(size=(400, 3))
        points[:, 0] = 7.0
        assert_matches_oracle(points, leaf_size=4, axis_rule=axis_rule)

    @pytest.mark.parametrize("split_rule", ["trimmed_midpoint", "median"])
    def test_heavy_ties(self, rng, axis_rule, split_rule):
        points = np.repeat(np.round(rng.normal(size=(40, 2)), 1), 12, axis=0)
        assert_matches_oracle(
            points, leaf_size=2, split_rule=split_rule, axis_rule=axis_rule
        )

    @pytest.mark.parametrize("split_rule", ["trimmed_midpoint", "median"])
    def test_two_valued_axis_falls_back(self, rng, axis_rule, split_rule):
        # 95% of the first coordinate is 0: the 10th and 90th percentiles
        # and the median are all 0, which no point is below, so the split
        # falls back to the box maximum.
        points = rng.normal(size=(400, 2))
        points[:, 0] = np.where(rng.random(400) < 0.95, 0.0, 1.0)
        tree = assert_matches_oracle(
            points, leaf_size=4, split_rule=split_rule, axis_rule=axis_rule
        )
        if axis_rule == "cycle":
            assert tree.root.split_dim == 0
            assert tree.root.split_value == 1.0

    def test_extreme_skew(self, rng, axis_rule):
        points = np.concatenate([rng.normal(size=(99, 2)) * 1e-6, [[1e9, 1e9]]])
        assert_matches_oracle(points, leaf_size=4, axis_rule=axis_rule)


@pytest.mark.parametrize("n", [1, 2, 3, 31, 33, 200, 5000])
def test_sizes(n):
    points = np.random.default_rng(n).normal(size=(n, 2))
    assert_matches_oracle(points, leaf_size=2)


class TestSegmentRules:
    """Per-segment split values against numpy on each segment alone."""

    @staticmethod
    def segments(rng):
        # Sizes 1, 2 and 33, with ties (rounded values, repeats).
        return [
            np.array([0.25]),
            np.array([-1.5, 3.0]),
            np.array([2.0, 2.0]),
            np.round(rng.normal(size=33), 1),
            np.repeat(rng.normal(size=11), 3),
        ]

    @staticmethod
    def accessor(segments):
        ordered = [np.sort(s) for s in segments]
        return lambda local: np.array([ordered[j][i] for j, i in enumerate(local)])

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
    def test_percentile_matches_numpy(self, rng, q):
        segments = self.segments(rng)
        sizes = np.array([s.size for s in segments])
        actual = segment_percentile(self.accessor(segments), sizes, np.float64(q))
        expected = np.array([np.percentile(s, 100 * q) for s in segments])
        np.testing.assert_array_equal(actual, expected)

    def test_rules_match_scalar_rules(self, rng):
        segments = self.segments(rng)
        sizes = np.array([s.size for s in segments])
        at = self.accessor(segments)
        np.testing.assert_array_equal(
            segment_median(at, sizes), [median_split(s) for s in segments]
        )
        np.testing.assert_array_equal(
            segment_trimmed_midpoint(at, sizes), [trimmed_midpoint_split(s) for s in segments]
        )


class TestPartition:
    """The oracle's O(m) two-block partition must behave exactly like a
    stable argsort: same boundary index, same permutation."""

    @pytest.mark.parametrize("value_quantile", [0.1, 0.5, 0.9])
    def test_boundary_matches_stable_argsort(self, rng, value_quantile):
        points = rng.normal(size=(257, 3))
        value = float(np.quantile(points[:, 1], value_quantile))
        tree = OracleTree(points, leaf_size=points.shape[0])  # build = no splits
        reference_points = tree.points.copy()
        reference_indices = tree.indices.copy()

        mid = tree._partition(0, points.shape[0], axis=1, value=value)

        goes_left = reference_points[:, 1] < value
        order = np.argsort(~goes_left, kind="stable")
        expected_boundary = int(np.count_nonzero(goes_left))
        assert mid == expected_boundary
        np.testing.assert_array_equal(tree.points, reference_points[order])
        np.testing.assert_array_equal(tree.indices, reference_indices[order])
        assert np.all(tree.points[:mid, 1] < value)
        assert np.all(tree.points[mid:, 1] >= value)

    def test_partition_with_duplicates(self, rng):
        points = np.repeat(rng.normal(size=(10, 2)), 20, axis=0)
        tree = OracleTree(points, leaf_size=points.shape[0])
        snapshot = tree.points.copy()
        value = float(np.median(snapshot[:, 0]))
        mid = tree._partition(0, 200, axis=0, value=value)
        assert mid == int(np.count_nonzero(snapshot[:, 0] < value))
        # Stability: each block preserves the original relative order.
        np.testing.assert_array_equal(
            tree.points[:mid], snapshot[snapshot[:, 0] < value]
        )
        np.testing.assert_array_equal(
            tree.points[mid:], snapshot[snapshot[:, 0] >= value]
        )
