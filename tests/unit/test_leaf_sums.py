"""Bit-for-bit parity of the batch engine's gathered leaf sums.

``_leaf_exact_sums`` gathers every (query, leaf point) evaluation of a
round into flat arrays and reduces each run of equal leaf sizes as one
``(k, m)`` row sum. :func:`per_leaf_sums` below is the per-leaf loop it
replaced (one distance matrix per distinct leaf); every sum must equal it
exactly, not within a tolerance, so labels and counters cannot move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import batch_bounds
from repro.core.batch_bounds import _leaf_exact_sums
from repro.index.kdtree import KDTree
from repro.kernels.factory import KERNELS


def per_leaf_sums(flat, kernel, leaf_nodes, leaf_queries, inv_n):
    """Reference: exact leaf contributions, one distance matrix per leaf."""
    sums = np.empty(leaf_nodes.size)
    order = np.argsort(leaf_nodes, kind="stable")
    boundaries = np.flatnonzero(np.diff(leaf_nodes[order])) + 1
    for group in np.split(order, boundaries):
        node_id = leaf_nodes[group[0]]
        points = flat.points[flat.start[node_id] : flat.end[node_id]]
        diffs = leaf_queries[group][:, None, :] - points[None, :, :]
        sq_dists = np.einsum("kmd,kmd->km", diffs, diffs)
        values = kernel.value(sq_dists)
        if flat.point_weights is not None:
            values = values * flat.point_weights[flat.start[node_id] : flat.end[node_id]]
        sums[group] = np.sum(values, axis=1) * inv_n
    return sums


def make_case(d: int, kernel_name: str, weighted: bool, n: int = 3000, seed: int = 0):
    """A flattened tree over ``n`` scaled points, its kernel and leaf ids."""
    rng = np.random.default_rng(seed + 97 * d)
    data = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
    weights = rng.uniform(0.5, 3.0, size=n) if weighted else None
    kernel = KERNELS[kernel_name](np.full(d, 0.35 * np.sqrt(d)))
    flat = KDTree(data / kernel.bandwidth, leaf_size=32, weights=weights).flatten()
    leaves = np.flatnonzero(flat.left < 0)
    return flat, kernel, leaves, rng


def queries_near(flat, rng, leaf_nodes) -> np.ndarray:
    """One query row per pair, jittered around a point of its leaf, so even
    compact kernels at d = 27 give non-zero sums."""
    picks = flat.start[leaf_nodes] + rng.integers(0, flat.count[leaf_nodes])
    d = flat.points.shape[1]
    return flat.points[picks] + rng.normal(scale=0.4 / np.sqrt(d), size=(picks.size, d))


def assert_parity(flat, kernel, leaf_nodes, leaf_queries, inv_n=1.0 / 3000):
    got = _leaf_exact_sums(flat, kernel, leaf_nodes, leaf_queries, inv_n)
    want = per_leaf_sums(flat, kernel, leaf_nodes, leaf_queries, inv_n)
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.flatnonzero(got != want)[:10]
    assert np.count_nonzero(got) > got.size // 2  # not vacuously equal zeros


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("d", [1, 2, 3, 27])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_mixed_sizes_repeated_unsorted_leaves(kernel_name, d, weighted):
    flat, kernel, leaves, rng = make_case(d, kernel_name, weighted)
    sizes = flat.count[leaves]
    assert np.unique(sizes).size > 1  # the case needs several leaf sizes
    # Repeated leaf ids in no particular order, the shape a round produces.
    leaf_nodes = rng.choice(leaves, size=400)
    assert_parity(flat, kernel, leaf_nodes, queries_near(flat, rng, leaf_nodes))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_one_pair(kernel_name, weighted):
    flat, kernel, leaves, rng = make_case(2, kernel_name, weighted)
    leaf_nodes = leaves[[7]]
    assert_parity(flat, kernel, leaf_nodes, queries_near(flat, rng, leaf_nodes))


@pytest.mark.parametrize("d", [1, 2, 3, 27])
def test_all_pairs_on_one_leaf(d):
    flat, kernel, leaves, rng = make_case(d, "gaussian", weighted=False)
    leaf = leaves[np.argmax(flat.count[leaves])]
    leaf_nodes = np.full(50, leaf)
    assert_parity(flat, kernel, leaf_nodes, queries_near(flat, rng, leaf_nodes))


def test_one_size_on_distinct_leaves():
    """All pairs share a leaf size but sit on different leaves (no sort)."""
    flat, kernel, leaves, rng = make_case(2, "epanechnikov", weighted=True)
    sizes = flat.count[leaves]
    common = np.bincount(sizes).argmax()
    same = leaves[sizes == common]
    assert same.size > 1
    leaf_nodes = rng.permutation(np.repeat(same, 3))
    assert_parity(flat, kernel, leaf_nodes, queries_near(flat, rng, leaf_nodes))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("d", [2, 27])
def test_batch_crossing_chunk_boundaries(d, weighted):
    flat, kernel, leaves, rng = make_case(d, "gaussian", weighted)
    pairs = 3 * batch_bounds._MAX_LEAF_EVALS // int(flat.count[leaves].min())
    leaf_nodes = rng.choice(leaves, size=pairs)
    assert flat.count[leaf_nodes].sum() > 2 * batch_bounds._MAX_LEAF_EVALS
    assert_parity(flat, kernel, leaf_nodes, queries_near(flat, rng, leaf_nodes))


def test_small_chunk_cap_splits_every_few_pairs(monkeypatch):
    """A tiny cap forces many chunks, runs of one size split across them."""
    monkeypatch.setattr(batch_bounds, "_MAX_LEAF_EVALS", 50)
    flat, kernel, leaves, rng = make_case(3, "biweight", weighted=True)
    leaf_nodes = rng.choice(leaves, size=300)
    assert_parity(flat, kernel, leaf_nodes, queries_near(flat, rng, leaf_nodes))


# --- engine level: the same runs with the per-leaf loop swapped back in.

def offline_inputs(seed: int, n: int = 20_000, n_queries: int = 2048):
    """Gauss d = 2 training set; half in-distribution, half box queries."""
    from repro.datasets.generators import make_gauss

    train = make_gauss(n, d=2, seed=seed)
    box = np.random.default_rng(seed + 1000).uniform(
        train.min(axis=0), train.max(axis=0), size=(n_queries // 2, 2)
    )
    return train, np.concatenate([make_gauss(n_queries // 2, d=2, seed=seed + 500), box])


def both_ways(monkeypatch, run):
    """``run()`` with the gathered leaf sums, then with the per-leaf oracle."""
    gathered = run()
    with monkeypatch.context() as patch:
        patch.setattr(batch_bounds, "_leaf_exact_sums", per_leaf_sums)
        oracle = run()
    return gathered, oracle


def assert_same_detailed(got, want):
    assert list(got.labels) == list(want.labels)
    for field in ("lower", "upper", "degraded", "invalid"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("seed", [1, 5])
def test_classifier_fit_and_classify_identical(monkeypatch, seed):
    from repro import TKDCClassifier, TKDCConfig

    train, queries = offline_inputs(seed)

    def run():
        clf = TKDCClassifier(TKDCConfig(seed=seed)).fit(train)
        fit_stats = clf.stats.to_dict()
        labels = clf.classify(queries)
        detailed = clf.classify_detailed(queries)
        return clf, fit_stats, labels, detailed, clf.stats.to_dict()

    (clf, fit_stats, labels, detailed, stats), oracle = both_ways(monkeypatch, run)
    assert clf.threshold.value == oracle[0].threshold.value
    assert np.array_equal(clf.training_labels_, oracle[0].training_labels_)
    assert fit_stats == oracle[1]
    assert np.array_equal(labels, oracle[2])
    assert_same_detailed(detailed, oracle[3])
    assert stats == oracle[4]
    assert stats["kernel_evaluations"] > fit_stats["kernel_evaluations"]


def test_repair_guard_fires_on_the_same_pairs(monkeypatch):
    from repro import FaultPlan, TKDCClassifier, TKDCConfig
    from repro.robustness.faults import FaultInjector
    from repro.robustness.guards import REPAIRS_KEY

    train, queries = offline_inputs(1, n=5000, n_queries=1024)
    targets = (0, 3, 57, 400, 650)
    plan = FaultPlan(underflow_leaves=targets)
    corrupt_leaves = FaultInjector.corrupt_leaves_array
    clf = TKDCClassifier(TKDCConfig(seed=1)).fit(train)
    clf.config = clf.config.with_updates(fault_plan=plan, guard_policy="repair")

    def run():
        fired, last = [], {}
        impl = batch_bounds._leaf_exact_sums

        def recording(flat, kernel, leaf_nodes, leaf_queries, inv_n):
            last["pairs"] = (leaf_nodes, leaf_queries)
            last["exact"] = impl(flat, kernel, leaf_nodes, leaf_queries, inv_n)
            return last["exact"]

        def spying(self, exact):
            start = self._leaf_ordinal
            nodes, rows = last["pairs"]
            for target in self._leaf_targets:
                if start <= target < start + exact.size:
                    at = target - start
                    fired.append((int(nodes[at]), tuple(rows[at]), float(last["exact"][at])))
            return corrupt_leaves(self, exact)

        with monkeypatch.context() as patch:
            patch.setattr(batch_bounds, "_leaf_exact_sums", recording)
            patch.setattr(FaultInjector, "corrupt_leaves_array", spying)
            clf.stats.reset()
            detailed = clf.classify_detailed(queries)
        return sorted(fired), detailed, clf.stats.to_dict()

    (fired, detailed, stats), oracle = both_ways(monkeypatch, run)
    assert len(fired) == len(targets)
    assert fired == oracle[0]
    assert_same_detailed(detailed, oracle[1])
    assert stats == oracle[2]
    assert stats["extras"][REPAIRS_KEY] > 0


@pytest.mark.parametrize("budget", [None, 20])
@pytest.mark.parametrize("buffered", [0, 2000])
def test_incremental_classify_detailed_identical(monkeypatch, buffered, budget):
    from repro import TKDCConfig
    from repro.core.incremental import _ABSORB_STEP, IncrementalTKDC

    config = TKDCConfig(p=0.05, seed=0, epsilon=0.2, leaf_size=4, max_node_expansions=budget)
    model = IncrementalTKDC(config, auto_refit=False).fit(
        np.random.default_rng(3).normal(size=(3000, 2))
    )
    if buffered:
        model.insert(np.random.default_rng(5).normal(size=(buffered, 2)))
    queries = np.random.default_rng(4).uniform(-4.0, 4.0, size=(96, 2))

    def run():
        model.stats.reset()
        return model.classify_detailed(queries), model.stats.to_dict()

    (detailed, stats), oracle = both_ways(monkeypatch, run)
    assert_same_detailed(detailed, oracle[0])
    assert stats == oracle[1]
    # Whole absorb steps of the buffer are in the traversed tree; the
    # exact tail is summed for every query row.
    assert model.n_absorbed == buffered // _ABSORB_STEP * _ABSORB_STEP
    assert stats["kernel_evaluations"] > (buffered - model.n_absorbed) * queries.shape[0]
