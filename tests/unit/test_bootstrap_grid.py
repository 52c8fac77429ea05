"""The bootstrap's grid shortcut leaves every fit output bit-identical.

Each threshold-bootstrap round lets the grid cache answer rows it can
certify HIGH instead of traversing them. These tests fit with and
without the shortcut (patched out via ``monkeypatch``) and require the
same bracket, threshold, training scores and labels.
"""

import numpy as np
import pytest

import repro.core.classifier as classifier_module
import repro.core.threshold as threshold_module
from repro import TKDCClassifier, TKDCConfig
from repro.core.stats import TraversalStats
from repro.kernels.factory import kernel_for_data


def _without_shortcut(monkeypatch):
    """Patch the shortcut out: no round gets a grid."""
    original = threshold_module.bootstrap_threshold_bounds
    monkeypatch.setattr(threshold_module, "GridCache", lambda *args, **kwargs: None)
    monkeypatch.setattr(
        classifier_module,
        "bootstrap_threshold_bounds",
        lambda *args, **kwargs: original(*args, **{**kwargs, "full_grid": None}),
    )


def _round_spy(monkeypatch):
    """Record (tree size, rows traversed, t_upper) of every round."""
    rounds = []
    original = threshold_module.bound_densities

    def spy(flat, kernel, queries, t_lower, t_upper, *args, **kwargs):
        rounds.append((flat.size, queries.shape[0], t_upper))
        return original(flat, kernel, queries, t_lower, t_upper, *args, **kwargs)

    monkeypatch.setattr(threshold_module, "bound_densities", spy)
    return rounds


def _fit_outputs(config, data):
    clf = TKDCClassifier(config).fit(data)
    threshold = clf.threshold
    return clf, (threshold.value, threshold.lower, threshold.upper)


def _assert_same_fit(monkeypatch, config, data):
    with_grid, bracket = _fit_outputs(config, data)
    with monkeypatch.context() as patch:
        _without_shortcut(patch)
        without, expected = _fit_outputs(config, data)
    assert bracket == expected
    np.testing.assert_array_equal(with_grid.training_scores_, without.training_scores_)
    np.testing.assert_array_equal(with_grid.training_labels_, without.training_labels_)
    assert with_grid.stats.kernel_evaluations <= without.stats.kernel_evaluations
    assert with_grid.stats.node_expansions <= without.stats.node_expansions
    return with_grid, without


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaussian_fit_is_unchanged(monkeypatch, seed):
    data = np.random.default_rng(seed).normal(size=(6000, 2))
    config = TKDCConfig(seed=seed, bootstrap_s0=3000)
    with_grid, without = _assert_same_fit(monkeypatch, config, data)
    # The shortcut did fire: the bootstrap expanded fewer nodes.
    assert with_grid.stats.node_expansions < without.stats.node_expansions


@pytest.mark.parametrize("seed", [0, 3])
def test_epanechnikov_fit_is_unchanged(monkeypatch, seed):
    data = np.random.default_rng(seed).normal(size=(5000, 2))
    _assert_same_fit(monkeypatch, TKDCConfig(kernel="epanechnikov", seed=seed), data)


def test_three_dimensional_fit_is_unchanged(monkeypatch):
    data = np.random.default_rng(7).normal(size=(5000, 3))
    _assert_same_fit(monkeypatch, TKDCConfig(seed=7, bootstrap_s0=2000), data)


def test_upper_backoff_round_is_unchanged(monkeypatch):
    # A tight buffer makes the next round's upper order statistic escape
    # t_upper, which is then backed off and the round retried.
    data = np.random.default_rng(1).normal(size=(6000, 2))
    config = TKDCConfig(seed=1, bootstrap_s0=3000, h_buffer=1.0001, h_growth=2.0)
    rounds = _round_spy(monkeypatch)
    _assert_same_fit(monkeypatch, config, data)
    upper_backoffs = [
        (before, after)
        for before, after in zip(rounds, rounds[1:])
        if after[0] == before[0] and after[2] == before[2] * config.h_backoff
    ]
    assert upper_backoffs


@pytest.mark.parametrize("seed", [0, 4])
def test_bootstrap_result_is_unchanged(monkeypatch, seed):
    data = np.random.default_rng(seed).normal(size=(4000, 2))
    config = TKDCConfig(seed=seed, bootstrap_s0=2000, h_buffer=1.01)

    def run():
        return threshold_module.bootstrap_threshold_bounds(
            data,
            make_kernel=lambda subset: kernel_for_data(subset, config.kernel),
            config=config,
            stats=TraversalStats(),
            rng=np.random.default_rng(seed),
        )

    result = run()
    with monkeypatch.context() as patch:
        patch.setattr(threshold_module, "GridCache", lambda *args, **kwargs: None)
        expected = run()
    assert result == expected
    assert result.backoffs > 0


def test_coreset_final_round_traverses_every_row(monkeypatch):
    data = np.random.default_rng(3).normal(size=(6000, 2))
    config = TKDCConfig(
        seed=3, bootstrap_s0=2000, coreset="uniform", coreset_fraction=0.25
    )
    rounds = _round_spy(monkeypatch)
    clf = TKDCClassifier(config).fit(data)
    sketch = clf.coreset_.points.shape[0]
    sample = min(config.bootstrap_s0, data.shape[0])
    final = [rows for size, rows, __ in rounds if size == sketch]
    # The final round's tree indexes the sketch, not its own sample, so
    # the grid must not answer for it; the mini-KDE rounds still use it.
    assert final and all(rows == sample for rows in final)
    assert any(rows < sample for size, rows, __ in rounds if size != sketch)


@pytest.mark.parametrize("kernel", ["epanechnikov", "biweight", "triweight", "uniform"])
def test_compact_kernel_fit_builds_no_grid(monkeypatch, kernel):
    """A grid whose per-cell bound is 0 is never built, and nothing changes.

    With the callers' ``cell_bound`` check forced positive, fit builds
    the grids as it did before it checked the bound; they certify no
    row, so the threshold,
    training scores and labels, and classify labels and counters match.
    """
    rng = np.random.default_rng(4)
    data = rng.normal(size=(4000, 2))
    queries = np.concatenate((rng.normal(size=(300, 2)), rng.uniform(-4, 4, size=(300, 2))))
    config = TKDCConfig(kernel=kernel, seed=4)
    lean, bracket = _fit_outputs(config, data)
    assert lean._grid is None  # noqa: SLF001 - verifying internal policy
    with monkeypatch.context() as patch:
        for module in (classifier_module, threshold_module):
            patch.setattr(module, "cell_bound", lambda *args: 1.0)
        gridded, expected = _fit_outputs(config, data)
    assert gridded._grid is not None  # noqa: SLF001
    assert bracket == expected
    np.testing.assert_array_equal(lean.training_scores_, gridded.training_scores_)
    np.testing.assert_array_equal(lean.training_labels_, gridded.training_labels_)
    assert lean.stats.snapshot() == gridded.stats.snapshot()
    lean._stats, gridded._stats = TraversalStats(), TraversalStats()
    np.testing.assert_array_equal(lean.classify(queries), gridded.classify(queries))
    assert lean.stats.snapshot() == gridded.stats.snapshot()
