"""Unit tests for the hypergrid inlier cache."""

from collections import Counter

import numpy as np
import pytest

from repro.core.grid import GridCache
from repro.kernels.gaussian import GaussianKernel
from tests.conftest import exact_density


@pytest.fixture
def grid(small_gauss, unit_kernel_2d):
    return GridCache(small_gauss, unit_kernel_2d)


class TestConstruction:
    def test_rejects_bad_cell_width(self, small_gauss, unit_kernel_2d):
        with pytest.raises(ValueError, match="positive"):
            GridCache(small_gauss, unit_kernel_2d, cell_width=0.0)

    def test_cell_count_totals(self, grid, small_gauss):
        total = int(grid._counts.sum())
        assert total == small_gauss.shape[0]

    def test_n_cells_positive(self, grid):
        assert grid.n_cells > 0


class TestCellCount:
    def test_every_training_point_counts_itself(self, grid, small_gauss):
        for point in small_gauss[:50]:
            assert grid.cell_count(point) >= 1

    def test_empty_cell(self, grid):
        assert grid.cell_count(np.array([100.0, 100.0])) == 0

    def test_count_matches_brute_force(self, grid, small_gauss, rng):
        for __ in range(10):
            q = rng.normal(size=2)
            cell = np.floor(q)
            inside = np.all(np.floor(small_gauss) == cell, axis=1)
            assert grid.cell_count(q) == int(np.count_nonzero(inside))


class TestDensityLowerBound:
    def test_is_a_true_lower_bound(self, grid, small_gauss, unit_kernel_2d, rng):
        for __ in range(20):
            q = rng.normal(size=2)
            bound = grid.density_lower_bound(q)
            truth = exact_density(small_gauss, unit_kernel_2d, q)
            assert bound <= truth + 1e-12

    def test_zero_for_empty_cell(self, grid):
        assert grid.density_lower_bound(np.array([100.0, 100.0])) == 0.0


class TestIsCertainInlier:
    def test_dense_center_is_inlier_for_tiny_threshold(self, grid):
        # The center of a 400-point standard normal has plenty of
        # same-cell neighbours; a tiny threshold must be cleared.
        assert grid.is_certain_inlier(np.zeros(2), t_upper=1e-6, epsilon=0.01)

    def test_empty_region_is_never_inlier(self, grid):
        assert not grid.is_certain_inlier(np.array([50.0, 50.0]), 1e-12, 0.01)

    def test_inlier_classification_is_sound(self, grid, small_gauss, unit_kernel_2d, rng):
        """Grid-certified inliers must actually have density above t."""
        t = 0.001
        for __ in range(50):
            q = rng.normal(size=2)
            if grid.is_certain_inlier(q, t, 0.01):
                assert exact_density(small_gauss, unit_kernel_2d, q) > t


class TestCellWidth:
    def test_wider_cells_weaker_bound(self, small_gauss, unit_kernel_2d):
        fine = GridCache(small_gauss, unit_kernel_2d, cell_width=0.5)
        coarse = GridCache(small_gauss, unit_kernel_2d, cell_width=4.0)
        # A wider cell catches more points but at a much smaller minimum
        # kernel value; both must remain valid lower bounds.
        q = np.zeros(2)
        assert fine.density_lower_bound(q) >= 0
        assert coarse.density_lower_bound(q) >= 0
        assert fine.n_cells >= coarse.n_cells

    def test_cell_width_property(self, small_gauss, unit_kernel_2d):
        grid = GridCache(small_gauss, unit_kernel_2d, cell_width=2.0)
        assert grid.cell_width == 2.0


class TestCounterOracle:
    """Array-backed counts equal a ``Counter`` of integer cell tuples."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("outlier", [0.0, 1e6, 1e17])
    def test_counts_match_counter(self, dim, outlier):
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(2000, dim)) * 3 - 2  # many negative cells
        if outlier:
            points[:2] = outlier * rng.choice([-1.0, 1.0], size=(2, dim))
        grid = GridCache(points, GaussianKernel(np.ones(dim)))
        counter = Counter(map(tuple, np.floor(points).astype(np.int64).tolist()))
        queries = np.concatenate([
            points[:300],
            rng.normal(size=(300, dim)) * 8,
            outlier * rng.normal(size=(4, dim)),
            np.floor(points[:50]) + 0.999,  # far edge of occupied cells
        ])
        expected = [counter.get(cell, 0) for cell in map(tuple, np.floor(queries).astype(np.int64).tolist())]
        assert grid.n_cells == len(counter)
        assert [grid.cell_count(q) for q in queries] == expected
        np.testing.assert_array_equal(
            grid.density_lower_bounds(queries),
            np.array(expected) / points.shape[0] * grid._min_kernel_value,
        )

    def test_batch_matches_scalar_path(self, grid, rng):
        queries = rng.normal(size=(64, 2)) * 3
        batch = grid.density_lower_bounds(queries)
        assert batch.tolist() == [grid.density_lower_bound(q) for q in queries]

    def test_non_finite_queries_are_empty(self, grid):
        queries = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
        np.testing.assert_array_equal(grid.density_lower_bounds(queries), 0.0)
