"""Parity of the batch engine's append-only frontier with the reference heap.

The batch engine pops each query's loosest frontier slot with ``argmin``
over columns kept in insertion order, and stable-packs dead slots only
when the columns run out. These tests pin the two places where that
bookkeeping could drift from :func:`repro.core.bounds.bound_density`:
exact ties in discrepancy (the heap breaks them by insertion order) and
deep traversals whose frontier has to be packed and grown.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.core.batch_bounds as batch_bounds
from repro import TKDCClassifier, TKDCConfig
from repro.core.batch_bounds import bound_densities
from repro.core.bounds import bound_density
from repro.core.stats import TraversalStats
from repro.index.flat import pair_box_bounds
from repro.index.kdtree import KDTree
from repro.kernels.gaussian import GaussianKernel
from repro.obs.trace import TraceRecorder

GOLDEN = Path(__file__).parent / "golden" / "explain_seed3.txt"


def run_both(tree, kernel, queries, t, eps, **kwargs):
    """(reference results, reference stats, reference traces) and the batch ones."""
    ref_stats = TraversalStats()
    ref_trace = TraceRecorder(engine="per-query")
    ref = [
        bound_density(tree, kernel, q, t, t, eps, ref_stats, trace=ref_trace,
                      trace_index=i, **kwargs)
        for i, q in enumerate(queries)
    ]
    stats = TraversalStats()
    trace = TraceRecorder(engine="batch")
    batch = bound_densities(tree.flatten(), kernel, queries, t, t, eps, stats,
                            trace=trace, **kwargs)
    return (ref, ref_stats, ref_trace), (batch, stats, trace)


def assert_close(got, expected, scale):
    """Equal up to float rounding of sums whose terms reach ``scale``.

    The engines compute node bounds through different (vector vs scalar)
    code paths, so running sums may differ by a few ULPs of their
    largest terms; a different pop order moves them by far more.
    """
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * scale)


def assert_traces_match(ref_trace, trace):
    for expected, got in zip(ref_trace.traces(), trace.traces(), strict=True):
        assert got.rule == expected.rule
        assert got.expansions == expected.expansions
        assert len(got.bounds) == len(expected.bounds)
        assert_close(got.bounds, expected.bounds, scale=expected.bounds[0][1])


@pytest.fixture
def lattice():
    """An integer lattice in kernel-scaled space (h = 1) whose halves tie.

    Interior points of the right half are jittered, so the two root
    children have identical boxes and counts (their bounds tie exactly
    at the centre) but different subtrees: which one is popped first
    changes every later bound.
    """
    side = np.arange(16, dtype=float)
    points = np.array(np.meshgrid(side, side)).reshape(2, -1).T
    inner = (points[:, 0] > 8) & (points[:, 0] < 15) & (points[:, 1] > 0) & (points[:, 1] < 15)
    points[inner] += np.random.default_rng(0).uniform(-0.4, 0.4, size=(inner.sum(), 2))
    kernel = GaussianKernel(np.ones(2))
    return KDTree(points, leaf_size=4), kernel, points


class TestDiscrepancyTies:
    def test_lattice_siblings_tie_exactly(self, lattice):
        tree, kernel, __ = lattice
        flat = tree.flatten()
        center = np.full((2, 2), 7.5)
        children = np.array([flat.left[0], flat.right[0]])
        lower, upper = pair_box_bounds(flat, children, center, kernel, 1.0 / 256)
        assert lower[0] == lower[1] and upper[0] == upper[1]

    @pytest.mark.parametrize("use_threshold_rule", [True, False])
    def test_tie_break_and_trace_match_reference(self, lattice, use_threshold_rule):
        tree, kernel, points = lattice
        queries = np.concatenate([
            np.full((1, 2), 7.5),  # the centre: the root's children tie
            points[::9] + 0.5,
            np.array([[3.5, 11.5], [11.5, 3.5], [-2.0, 7.5]]),
        ])
        t = float(np.median(
            [np.sum(kernel.value(np.sum((points - q) ** 2, axis=1))) / 256
             for q in queries]
        ))
        (ref, ref_stats, ref_trace), (batch, stats, trace) = run_both(
            tree, kernel, queries, t, 1e-3, use_threshold_rule=use_threshold_rule
        )
        assert batch.outcomes() == [r.outcome for r in ref]
        assert stats.snapshot() == ref_stats.snapshot()
        assert_traces_match(ref_trace, trace)

    def test_classifier_traces_match_per_query_engine(self, lattice):
        __, __, points = lattice
        clf = TKDCClassifier(TKDCConfig(
            p=0.2, use_grid=False, leaf_size=4, refine_threshold=False,
            bootstrap_s0=200, seed=1,
        )).fit(points)
        queries = np.concatenate([points[::5] + 0.5, points[::7]])
        labels, batch = clf.trace_classify(queries, engine="batch")
        ref_labels, ref = clf.trace_classify(queries, engine="per-query")
        assert list(labels) == list(ref_labels)
        assert_traces_match(ref, batch)


class TestDeepFrontier:
    def test_pack_keeps_insertion_order(self):
        inf = np.inf
        rank = np.array([[inf, -3.0, inf, -1.0, -2.0], [-5.0, inf, inf, inf, -4.0]])
        node = np.arange(10).reshape(2, 5)
        frow = np.array([1, 0])  # rows come back in this order
        packed_node, packed_lower, __, packed_rank, end, capacity = (
            batch_bounds._pack_frontier(node, node * 1.0, node * 2.0, rank, frow, 5)
        )
        assert (end, capacity) == (3, 10)
        assert packed_node[0, :2].tolist() == [5, 9]
        assert packed_node[1, :3].tolist() == [1, 3, 4]
        assert packed_lower[1, :3].tolist() == [1.0, 3.0, 4.0]
        assert packed_rank[0, :3].tolist() == [-5.0, -4.0, inf]
        assert packed_rank[1, :3].tolist() == [-3.0, -1.0, -2.0]
        assert np.all(packed_rank[:, end:] == inf)

    def test_tolerance_only_packs_and_matches_reference(self, rng, monkeypatch):
        packs = []
        real_pack = batch_bounds._pack_frontier

        def counting_pack(*args):
            packs.append(args[-1])
            return real_pack(*args)

        monkeypatch.setattr(batch_bounds, "_pack_frontier", counting_pack)
        data = rng.normal(size=(3000, 2))
        kernel = GaussianKernel(np.full(2, 0.05))
        scaled = kernel.scale(data)
        tree = KDTree(scaled, leaf_size=2)
        queries = kernel.scale(rng.normal(size=(12, 2)))
        (ref, ref_stats, ref_trace), (batch, stats, trace) = run_both(
            tree, kernel, queries, 0.05, 1e-4, use_threshold_rule=False
        )
        assert packs, "the frontier never filled; the test lost its purpose"
        assert batch.outcomes() == [r.outcome for r in ref]
        assert stats.snapshot() == ref_stats.snapshot()
        scale = max(r.upper for r in ref)
        assert_close(batch.lower, [r.lower for r in ref], scale)
        assert_close(batch.upper, [r.upper for r in ref], scale)
        assert_traces_match(ref_trace, trace)


def test_explain_output_is_pinned():
    """``repro explain`` renders byte-for-byte what the golden file holds."""
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2000, 2))
    clf = TKDCClassifier(TKDCConfig(seed=3)).fit(data)
    queries = rng.uniform(-3.5, 3.5, size=(24, 2))
    assert clf.explain(queries, limit=8) == GOLDEN.read_text()
