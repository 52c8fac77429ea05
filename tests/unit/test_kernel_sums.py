"""``Kernel.sums_at`` against the per-row ``einsum`` loop it replaced.

The oracle below is the single-query sum every exact kernel sum used
before the blocked per-dimension sweep: ``points - query``, an
``einsum`` over the last axis, the kernel value and one ``np.sum``. At
``d = 2`` the sweep performs the same two products and one addition per
pair, so the sums must be bit-identical; at higher ``d`` the addition
order differs and the sums agree to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    BiweightKernel,
    EpanechnikovKernel,
    GaussianKernel,
    TriweightKernel,
    UniformKernel,
)
from repro.kernels.base import _MAX_BLOCK_PAIRS

KERNELS = [
    GaussianKernel,
    EpanechnikovKernel,
    UniformKernel,
    BiweightKernel,
    TriweightKernel,
]

#: Point counts around block edges. 5,000 points give 3 rows per block,
#: so 64 queries end in a block of 1; 8,192 give 2 rows and 8,193 one;
#: from _MAX_BLOCK_PAIRS up every block is a single row.
BLOCK_EDGES = [5000, 8192, 8193, _MAX_BLOCK_PAIRS - 1, _MAX_BLOCK_PAIRS, _MAX_BLOCK_PAIRS + 1]
POINT_COUNTS = [0, 1, 7, *BLOCK_EDGES, 9001]


def einsum_oracle(kernel, points, queries, weights=None) -> np.ndarray:
    """The per-row ``einsum`` loop (the pre-``sums_at`` ``sum_at``)."""
    sums = np.empty(queries.shape[0])
    for row, query in enumerate(queries):
        diffs = points - query
        values = kernel.value(np.einsum("ij,ij->i", diffs, diffs))
        if weights is not None:
            values = values * weights
        sums[row] = float(np.sum(values))
    return sums


def sample(count: int, dim: int, seed: int) -> np.ndarray:
    # Scale chosen so compact-support kernels see points on both sides
    # of their support radius.
    return np.random.default_rng(seed).normal(scale=0.6, size=(count, dim))


@pytest.mark.parametrize("kernel_cls", KERNELS)
@pytest.mark.parametrize("n_points", POINT_COUNTS)
@pytest.mark.parametrize("n_queries", [1, 3, 64])
def test_bit_identical_at_d2(kernel_cls, n_points, n_queries):
    kernel = kernel_cls(np.array([0.7, 1.3]))
    points = sample(n_points, 2, seed=n_points)
    queries = sample(n_queries, 2, seed=n_queries + 1)
    expected = einsum_oracle(kernel, points, queries)
    np.testing.assert_array_equal(kernel.sums_at(points, queries), expected)


@pytest.mark.parametrize("kernel_cls", KERNELS)
@pytest.mark.parametrize("n_points", [7, *BLOCK_EDGES])
@pytest.mark.parametrize("n_queries", [3, 64])
def test_weighted_bit_identical_at_d2(kernel_cls, n_points, n_queries):
    kernel = kernel_cls(np.array([0.7, 1.3]))
    points = sample(n_points, 2, seed=2)
    queries = sample(n_queries, 2, seed=3)
    weights = np.random.default_rng(4).uniform(0.5, 3.0, size=n_points)
    expected = einsum_oracle(kernel, points, queries, weights)
    np.testing.assert_array_equal(kernel.sums_at(points, queries, weights), expected)


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_sum_at_is_the_one_row_case(kernel_cls):
    kernel = kernel_cls(np.array([0.7, 1.3]))
    points = sample(9001, 2, seed=5)
    queries = sample(3, 2, seed=6)
    expected = einsum_oracle(kernel, points, queries)
    for row, query in enumerate(queries):
        assert kernel.sum_at(points, query) == expected[row]
    # A leaf-sized weighted sum, as the per-query engine takes it.
    leaf, weights = points[:32], np.random.default_rng(7).uniform(0.5, 3.0, size=32)
    expected = einsum_oracle(kernel, leaf, queries, weights)
    for row, query in enumerate(queries):
        assert kernel.sum_at(leaf, query, weights) == expected[row]


@pytest.mark.parametrize("dim", [3, 27])
@pytest.mark.parametrize("n_points", [1, 7, 9001])
def test_gaussian_agrees_to_rounding_in_higher_d(dim, n_points):
    # The Gaussian profile is well conditioned, so the reordered
    # per-dimension accumulation moves each sum by a few ulps only.
    kernel = GaussianKernel(np.full(dim, 0.5 * np.sqrt(dim)))
    points = sample(n_points, dim, seed=dim)
    queries = sample(64, dim, seed=dim + 1)
    expected = einsum_oracle(kernel, points, queries)
    np.testing.assert_allclose(kernel.sums_at(points, queries), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kernel_cls", KERNELS)
@pytest.mark.parametrize("dim", [3, 27])
def test_every_kernel_agrees_to_rounding_in_higher_d(kernel_cls, dim):
    # Compact profiles cancel near their support edge, so the check is
    # absolute, against the largest possible sum (max_value per point).
    kernel = kernel_cls(np.full(dim, 0.5 * np.sqrt(dim)))
    points = sample(9001, dim, seed=dim)
    queries = sample(64, dim, seed=dim + 1)
    expected = einsum_oracle(kernel, points, queries)
    scale = kernel.max_value * points.shape[0]
    np.testing.assert_allclose(
        kernel.sums_at(points, queries), expected, rtol=0.0, atol=1e-14 * scale
    )


def test_empty_inputs():
    kernel = GaussianKernel(np.array([1.0, 1.0]))
    assert kernel.sums_at(sample(5, 2, seed=0), np.empty((0, 2))).shape == (0,)
    np.testing.assert_array_equal(
        kernel.sums_at(np.empty((0, 2)), sample(4, 2, seed=0)), np.zeros(4)
    )
