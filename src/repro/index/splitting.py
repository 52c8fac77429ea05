"""Node splitting rules for k-d tree construction.

The paper (Section 3.7) found that splitting at the *trimmed midpoint*
``(x_(10) + x_(90)) / 2`` — the mean of the 10th and 90th percentiles
along the split axis — outperforms classic median splits for tKDC:
with a Gaussian kernel it matters more to isolate tight spatial regions
quickly than to keep the tree balanced. Both rules are provided, along
with two axis-selection policies (the paper's cycling default and a
widest-extent alternative).

:class:`~repro.index.kdtree.KDTree` splits every node of one depth at
once, so each rule also has a per-segment form in
:data:`SEGMENT_SPLIT_RULES`: it reads the order statistics of many
segments through one accessor and reproduces the scalar rule's numpy
arithmetic element-wise, so both forms give bit-identical split values.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: A split rule maps the coordinate values along the chosen axis to a
#: scalar split value. Points with ``coord < value`` go left.
SplitValueRule = Callable[[np.ndarray], float]

#: ``at(positions)`` returns, for each segment, its order statistic at
#: the 0-based local position ``positions[j]`` (the ``j``-th entry of the
#: segment's coordinates sorted ascending).
OrderStatistics = Callable[[np.ndarray], np.ndarray]


def median_split(coords: np.ndarray) -> float:
    """Classic balanced split at the median coordinate."""
    return float(np.median(coords))


def trimmed_midpoint_split(coords: np.ndarray) -> float:
    """The paper's equi-width split: midpoint of the 10th/90th percentiles."""
    p10, p90 = np.percentile(coords, [10.0, 90.0])
    return float(0.5 * (p10 + p90))


#: Registry used by :class:`repro.index.kdtree.KDTree` and the benchmarks.
SPLIT_RULES: dict[str, SplitValueRule] = {
    "median": median_split,
    "trimmed_midpoint": trimmed_midpoint_split,
}

#: The quantiles ``np.percentile(coords, [10, 90])`` interpolates at.
_TRIM_QUANTILES = np.true_divide(np.array([10.0, 90.0]), 100)


def segment_percentile(at: OrderStatistics, sizes: np.ndarray, q: float) -> np.ndarray:
    """Per-segment ``np.percentile`` (method ``"linear"``) at quantile ``q``.

    ``sizes`` holds each segment's point count (at least 1). numpy's
    arithmetic is repeated element-wise: the virtual index ``(m-1)q``,
    its floor (clamped to the last element at or past ``m-1``, where
    numpy's ``gamma`` becomes ``index + 1``), and ``_lerp`` including its
    ``t >= 0.5`` branch.
    """
    virtual = (sizes - 1) * q
    floor = np.floor(virtual)
    last = virtual >= sizes - 1
    below = np.where(last, sizes - 1, floor).astype(np.int64)
    above = np.where(last, sizes - 1, floor + 1).astype(np.int64)
    gamma = virtual - np.where(last, -1.0, floor)
    a = at(below)
    b = at(above)
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def segment_median(at: OrderStatistics, sizes: np.ndarray) -> np.ndarray:
    """Per-segment :func:`median_split`.

    ``np.median`` averages the middle one or two order statistics with
    ``np.mean``, whose sum starts from ``0.0`` (so ``-0.0`` medians come
    out as ``0.0``); the same operations run here element-wise.
    """
    half = sizes // 2
    upper = at(half)
    lower = at(np.where(sizes % 2 == 0, half - 1, half))
    return np.where(sizes % 2 == 0, (0.0 + lower + upper) / 2, 0.0 + upper)


def segment_trimmed_midpoint(at: OrderStatistics, sizes: np.ndarray) -> np.ndarray:
    """Per-segment :func:`trimmed_midpoint_split`."""
    p10 = segment_percentile(at, sizes, _TRIM_QUANTILES[0])
    p90 = segment_percentile(at, sizes, _TRIM_QUANTILES[1])
    return 0.5 * (p10 + p90)


#: Per-segment forms of :data:`SPLIT_RULES`, same keys.
SEGMENT_SPLIT_RULES: dict[str, Callable[[OrderStatistics, np.ndarray], np.ndarray]] = {
    "median": segment_median,
    "trimmed_midpoint": segment_trimmed_midpoint,
}


def cycle_axis(depth: int, dim: int) -> int:
    """The paper's default axis policy: cycle dimensions by tree level."""
    return depth % dim


def widest_axis(lo: np.ndarray, hi: np.ndarray) -> int:
    """Alternative axis policy: split the dimension with the widest extent."""
    return int(np.argmax(hi - lo))
