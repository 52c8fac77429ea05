"""Empirical validation of coreset certificates.

Both constructions ship an analytic ``eta``; this module measures the
quantity it bounds — ``max_x |f_X(x) - f_S(x)|`` over a probe set — by
brute force, so benches and tests can report how much slack the
certificate carries. Probes default to a mix of training points (where
density, and hence absolute error, is largest) and fresh draws from the
training bounding box (to catch sparse-region behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.coresets.base import Coreset


def exact_density(
    scaled_points: np.ndarray,
    kernel,
    scaled_probes: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Brute-force (weighted) KDE of ``scaled_probes`` under ``kernel``."""
    n = scaled_points.shape[0]
    total = float(weights.sum()) if weights is not None else float(n)
    return kernel.sums_at(scaled_points, scaled_probes, weights) / total


def empirical_eta(
    scaled_points: np.ndarray,
    coreset: Coreset,
    kernel,
    n_probes: int = 512,
    rng: np.random.Generator | None = None,
) -> float:
    """Measured ``max |f_X - f_S|`` over a probe set.

    A lower bound on the true sup-norm error (the max over a finite probe
    set), so ``empirical_eta <= eta`` is a necessary sanity check for a
    valid certificate, not a proof of one.
    """
    rng = np.random.default_rng() if rng is None else rng
    n = scaled_points.shape[0]
    n_train_probes = min(n, n_probes // 2)
    train_probes = scaled_points[rng.choice(n, size=n_train_probes, replace=False)]
    lo = scaled_points.min(axis=0)
    hi = scaled_points.max(axis=0)
    box_probes = rng.uniform(lo, hi, size=(n_probes - n_train_probes, scaled_points.shape[1]))
    probes = np.concatenate([train_probes, box_probes])

    f_full = exact_density(scaled_points, kernel, probes)
    f_coreset = exact_density(coreset.points, kernel, probes, weights=coreset.weights)
    return float(np.max(np.abs(f_full - f_coreset)))
