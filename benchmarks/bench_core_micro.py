"""Micro-benchmarks for tKDC's core operations (not a paper figure).

Useful for tracking performance regressions in the hot paths: tree
construction, a single pruned density-bounding traversal, batch-engine
blocks of 4, 32 and 2,048 rows (the traversed share of a served 8-row
request, a served 64-row request and an offline pass), grid lookup, the
exact vectorized baseline, and a 64-row streaming request over 0, 7,000
and 28,000 buffered rows (its cost should stay flat as the buffer grows).
"""

import numpy as np
import pytest

from repro import TKDCClassifier, TKDCConfig
from repro.baselines.simple import NaiveKDE
from repro.core.batch_bounds import bound_densities
from repro.core.bounds import bound_density
from repro.core.grid import GridCache
from repro.core.incremental import IncrementalTKDC
from repro.core.stats import TraversalStats
from repro.index.kdtree import KDTree
from repro.kernels.factory import kernel_for_data

N = 20_000
DIM = 4


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(N, DIM))
    kernel = kernel_for_data(data)
    scaled = kernel.scale(data)
    tree = KDTree(scaled)
    naive = NaiveKDE().fit(data)
    threshold = float(np.quantile(naive.density(data[:500]), 0.05))
    return scaled, kernel, tree, threshold


def test_bench_tree_build(workload, benchmark):
    scaled, __, __, __ = workload
    tree = benchmark(KDTree, scaled)
    assert tree.size == N


def test_bench_bound_density_pruned(workload, benchmark):
    scaled, kernel, tree, threshold = workload
    query = scaled[7]

    def one_query():
        return bound_density(
            tree, kernel, query, threshold, threshold, 0.01, TraversalStats()
        )

    result = benchmark(one_query)
    assert result.lower <= result.upper


def test_bench_bound_density_exhaustive(workload, benchmark):
    scaled, kernel, tree, __ = workload
    query = scaled[7]

    def one_query():
        return bound_density(
            tree, kernel, query, 0.0, np.inf, 0.01, TraversalStats(),
            use_threshold_rule=False, use_tolerance_rule=False,
        )

    result = benchmark(one_query)
    assert result.upper - result.lower < 1e-9 * kernel.max_value


@pytest.fixture(scope="module")
def workload_2d():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(N, 2))
    kernel = kernel_for_data(data)
    flat = KDTree(kernel.scale(data)).flatten()
    # Half near the data, half over its bounding box, as the served and
    # offline query mixes are.
    queries = np.concatenate((
        rng.normal(size=(1024, 2)),
        rng.uniform(data.min(axis=0), data.max(axis=0), size=(1024, 2)),
    ))
    scaled = kernel.scale(queries)[rng.permutation(2048)]
    densities = kernel.sums_at(flat.points, kernel.scale(data[:500])) / N
    return flat, kernel, scaled, float(np.quantile(densities, 0.01))


@pytest.mark.parametrize("rows", [4, 32, 2048])
def test_bench_batch_block(workload_2d, benchmark, rows):
    flat, kernel, scaled, threshold = workload_2d
    block = scaled[:rows]

    def one_block():
        return bound_densities(
            flat, kernel, block, threshold, threshold, 0.01, TraversalStats(),
            guard_policy="repair",
        )

    result = benchmark(one_block)
    assert np.all(result.lower <= result.upper)


def test_bench_grid_lookup(workload, benchmark):
    scaled, kernel, __, threshold = workload
    grid = GridCache(scaled, kernel)
    query = scaled[7]
    benchmark(grid.is_certain_inlier, query, threshold, 0.01)


def test_bench_naive_batch(workload, benchmark):
    scaled, __, __, __ = workload
    rng = np.random.default_rng(1)
    data = rng.normal(size=(N, DIM))
    naive = NaiveKDE().fit(data)
    queries = data[:100]
    densities = benchmark(naive.density, queries)
    assert densities.shape == (100,)


@pytest.fixture(scope="module")
def streaming_model():
    rng = np.random.default_rng(3)
    clf = TKDCClassifier(TKDCConfig(seed=0)).fit(rng.normal(size=(N, 2)))
    stream = rng.normal(size=(28_000, 2))
    # Half near the data, half over a box twice its spread.
    requests = np.concatenate(
        (rng.normal(size=(16, 32, 2)), rng.uniform(-4.0, 4.0, size=(16, 32, 2))), axis=1
    )
    return clf, stream, requests


@pytest.mark.parametrize("buffered", [0, 7000, 28_000])
def test_bench_streaming_request(streaming_model, benchmark, buffered):
    clf, stream, requests = streaming_model
    model = IncrementalTKDC(clf.config, auto_refit=False)
    model.adopt(clf, n_indexed=clf.tree.size)
    for at in range(0, buffered, 32):
        model.insert(stream[at : min(at + 32, buffered)])
    served = iter(range(10**9))

    def one_request():
        return model.classify_detailed(requests[next(served) % len(requests)])

    result = benchmark(one_request)
    assert model.n_buffered == buffered
    assert np.all(result.lower <= result.upper)
