"""Confidence intervals on quantiles from subsample order statistics.

Paper Section 3.5: given a set ``D`` of ``n`` reals and a random
subsample ``D_s`` of size ``s``, the binomial theorem (Equation 10,
Gibbons & Chakraborti) gives

    Pr( d_s^(l) <= d^(np) <= d_s^(u) ) = sum_{i=l..u} C(s, i) p^i (1-p)^(s-i)

and for large ``s`` the binomial is well approximated by a normal, giving
the paper's Equation 11 with rank offsets ``± z * sqrt(s p (1-p))``.

Ranks here are **1-based order statistics** (the paper's convention);
:func:`quantile_index` converts to a 0-based array index.

The normal quantile comes from :class:`statistics.NormalDist` and the
binomial distribution from an exact numpy sum, so importing the library
(and every serving process) does not load scipy.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def quantile_index(size: int, p: float) -> int:
    """0-based index of the ``(size * p)``-th order statistic.

    The paper defines ``q_p(S)`` as the ``(np)``-th smallest element; we
    use ``ceil(size * p)`` clamped into ``[1, size]``, minus one for
    0-based indexing.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rank = math.ceil(size * p)
    rank = min(max(rank, 1), size)
    return rank - 1


def quantile_of_sorted(sorted_values: np.ndarray, p: float) -> float:
    """The ``p``-quantile (order statistic) of an ascending-sorted array."""
    sorted_values = np.asarray(sorted_values)
    return float(sorted_values[quantile_index(sorted_values.shape[0], p)])


def normal_order_ci(sample_size: int, p: float, delta: float) -> tuple[int, int]:
    """Normal-approximation rank bounds for the population ``p``-quantile.

    Paper Equation 11: with probability at least ``1 - delta`` the
    population quantile lies between the ``l``-th and ``u``-th order
    statistics of the subsample, where

        l = s p - z * sqrt(s p (1 - p)),   u = s p + z * sqrt(s p (1 - p))

    and ``z = Phi^-1(1 - delta / 2)`` (the paper's worked example uses
    z = 2.576 for delta = 0.01, the two-sided critical value).

    Returns 1-based ranks clamped into ``[1, sample_size]``.
    """
    _validate(sample_size, p, delta)
    z = NormalDist().inv_cdf(1.0 - delta / 2.0)
    center = sample_size * p
    spread = z * math.sqrt(sample_size * p * (1.0 - p))
    lower = int(math.floor(center - spread))
    upper = int(math.ceil(center + spread))
    return _clamp_ranks(lower, upper, sample_size)


def binomial_order_ci(sample_size: int, p: float, delta: float) -> tuple[int, int]:
    """Exact binomial rank bounds (Equation 10) via binomial quantiles.

    Chooses symmetric tail masses of ``delta / 2`` each. The coverage
    guarantee ``>= 1 - delta`` holds whenever the unclamped ranks fall
    inside ``[1, sample_size]`` — i.e. the sample is large enough that an
    order statistic can carry each tail. For very small ``sample_size *
    p`` (or ``* (1-p)``) the ranks clamp to the sample extremes and the
    interval is best-effort; tKDC's bootstrap tolerates this because
    invalid bounds are detected and backed off (Algorithm 3).
    Returns 1-based ranks clamped into ``[1, sample_size]``.
    """
    _validate(sample_size, p, delta)
    # The number of subsample values below the population quantile is
    # Binomial(s, p); rank bounds are its delta/2 and 1-delta/2 quantiles.
    cdf = _binomial_cdf(sample_size, p)
    lower = _binomial_ppf(cdf, delta / 2.0)
    upper = _binomial_ppf(cdf, 1.0 - delta / 2.0) + 1
    return _clamp_ranks(lower, upper, sample_size)


def order_statistic_coverage(sample_size: int, p: float, lower: int, upper: int) -> float:
    """Probability that order statistics ``[lower, upper]`` bracket the quantile.

    Evaluates the paper's Equation 10 directly:
    ``sum_{i=lower..upper} C(s, i) p^i (1 - p)^(s - i)``.
    Ranks are 1-based; useful for verifying CI calibration in tests.
    """
    if not 1 <= lower <= upper <= sample_size:
        raise ValueError(f"need 1 <= lower <= upper <= {sample_size}, got [{lower}, {upper}]")
    cdf = _binomial_cdf(sample_size, p)
    return float(cdf[upper] - cdf[lower - 1])


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """``P(X <= k)`` for ``k = 0..n``, ``X ~ Binomial(n, p)``.

    Each probability mass is ``exp`` of its log, ``lgamma`` for the
    binomial coefficient; the cumulative sum is clipped at one.
    """
    k = np.arange(n + 1)
    log_choose = math.lgamma(n + 1) - (_lgamma(k + 1) + _lgamma(n - k + 1)).astype(np.float64)
    pmf = np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))
    return np.minimum(np.cumsum(pmf), 1.0)


def _binomial_ppf(cdf: np.ndarray, q: float) -> int:
    """The smallest ``k`` with ``cdf[k] >= q`` (``n`` when none is)."""
    return min(int(np.searchsorted(cdf, q, side="left")), cdf.size - 1)


def _validate(sample_size: int, p: float, delta: float) -> None:
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def _clamp_ranks(lower: int, upper: int, sample_size: int) -> tuple[int, int]:
    lower = min(max(lower, 1), sample_size)
    upper = min(max(upper, lower), sample_size)
    return lower, upper
