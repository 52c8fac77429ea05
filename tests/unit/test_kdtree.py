"""Unit tests for the k-d tree index."""

import pickle

import numpy as np
import pytest

from repro.index.kdtree import KDTree


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            KDTree(np.empty((0, 2)))

    def test_rejects_bad_leaf_size(self, small_gauss):
        with pytest.raises(ValueError, match="leaf_size"):
            KDTree(small_gauss, leaf_size=0)

    def test_rejects_unknown_split_rule(self, small_gauss):
        with pytest.raises(ValueError, match="split_rule"):
            KDTree(small_gauss, split_rule="nope")

    def test_rejects_unknown_axis_rule(self, small_gauss):
        with pytest.raises(ValueError, match="axis_rule"):
            KDTree(small_gauss, axis_rule="nope")

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0]]))
        assert tree.root.is_leaf
        assert tree.root.count == 1

    def test_input_not_modified(self, small_gauss):
        original = small_gauss.copy()
        KDTree(small_gauss)
        np.testing.assert_array_equal(small_gauss, original)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, small_gauss, bad):
        points = small_gauss.copy()
        points[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            KDTree(points)

    def test_1d_input_promoted(self):
        tree = KDTree(np.array([[1.0], [2.0], [3.0]]))
        assert tree.dim == 1
        assert tree.size == 3


class TestInvariants:
    @pytest.mark.parametrize("split_rule", ["median", "trimmed_midpoint"])
    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_counts_sum_to_total(self, small_gauss, split_rule, leaf_size):
        tree = KDTree(small_gauss, leaf_size=leaf_size, split_rule=split_rule)
        assert sum(leaf.count for leaf in tree.leaves()) == tree.size

    def test_children_partition_parent(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                left, right = node.children()
                assert left.start == node.start
                assert left.end == right.start
                assert right.end == node.end
                assert left.count + right.count == node.count
                assert left.count > 0 and right.count > 0

    def test_bounding_boxes_are_tight(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        for node in tree.iter_nodes():
            slab = tree.points[node.start : node.end]
            np.testing.assert_allclose(node.lo, slab.min(axis=0))
            np.testing.assert_allclose(node.hi, slab.max(axis=0))

    def test_split_respected(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                left, right = node.children()
                axis, value = node.split_dim, node.split_value
                assert np.all(tree.points[left.start : left.end, axis] < value)
                assert np.all(tree.points[right.start : right.end, axis] >= value)

    def test_leaf_sizes_respected(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=16)
        for leaf in tree.leaves():
            assert leaf.count <= 16

    def test_permutation_preserves_points(self, small_gauss):
        tree = KDTree(small_gauss)
        reordered = small_gauss[tree.indices]
        np.testing.assert_allclose(tree.points, reordered)

    def test_indices_are_a_permutation(self, small_gauss):
        tree = KDTree(small_gauss)
        assert sorted(tree.indices.tolist()) == list(range(small_gauss.shape[0]))


class TestDegenerateData:
    def test_all_identical_points(self):
        data = np.ones((100, 3))
        tree = KDTree(data, leaf_size=4)
        assert tree.root.is_leaf  # cannot split identical points
        assert tree.root.count == 100

    def test_one_constant_dimension(self, rng):
        data = rng.normal(size=(200, 3))
        data[:, 1] = 7.0
        tree = KDTree(data, leaf_size=8)
        assert sum(leaf.count for leaf in tree.leaves()) == 200
        for leaf in tree.leaves():
            assert leaf.count <= 8

    def test_heavy_duplicates(self, rng):
        data = np.repeat(rng.normal(size=(5, 2)), 50, axis=0)
        tree = KDTree(data, leaf_size=8)
        assert sum(leaf.count for leaf in tree.leaves()) == 250

    def test_extreme_skew(self, rng):
        # 99 points at ~0 and one at 1e9 still builds a valid tree.
        data = np.concatenate([rng.normal(size=(99, 2)) * 1e-6, [[1e9, 1e9]]])
        tree = KDTree(data, leaf_size=4)
        assert sum(leaf.count for leaf in tree.leaves()) == 100

    def test_collinear_points(self):
        data = np.column_stack([np.linspace(0, 1, 100), np.zeros(100)])
        tree = KDTree(data, leaf_size=4)
        for leaf in tree.leaves():
            assert leaf.count <= 4


class TestAccessors:
    def test_leaf_points_slice(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        leaf = next(tree.leaves())
        assert tree.leaf_points(leaf).shape == (leaf.count, 2)

    def test_leaf_indices_map_back(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        for leaf in tree.leaves():
            np.testing.assert_allclose(
                tree.leaf_points(leaf), small_gauss[tree.leaf_indices(leaf)]
            )

    def test_depth_positive_for_multilevel(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        assert tree.depth() >= 1

    def test_iter_nodes_contains_root(self, small_gauss):
        tree = KDTree(small_gauss)
        assert next(tree.iter_nodes()) is tree.root

    def test_children_of_leaf_raises(self):
        tree = KDTree(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="no children"):
            tree.root.children()


class TestLazyNodes:
    def test_root_is_linked_once(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        assert tree.root is tree.root

    def test_pickle_carries_no_nodes(self, small_gauss):
        tree = KDTree(small_gauss, leaf_size=8)
        tree.root  # link the nodes
        blob = pickle.dumps(tree)
        assert b"Node" not in blob
        assert pickle.dumps(KDTree(small_gauss, leaf_size=8)) == blob
        clone = pickle.loads(blob)
        np.testing.assert_array_equal(clone.flatten().lo, tree.flatten().lo)
        assert clone.flatten().points is clone.points
        assert [n.start for n in clone.iter_nodes()] == [n.start for n in tree.iter_nodes()]
