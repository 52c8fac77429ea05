"""Abstract kernel interface.

A :class:`Kernel` is bound to a concrete dimensionality ``d`` and diagonal
bandwidth vector ``h`` at construction time. All distance arguments are
*squared Euclidean distances in bandwidth-scaled space* (``u = x / h``),
so that

    K_H(x_q - x_i) = norm_constant * profile(||u_q - u_i||^2)

where ``profile`` is a monotone non-increasing function with
``profile(0) == 1``. Monotonicity is what makes bounding-box density
bounds valid: the contribution of any point inside a box lies between the
kernel evaluated at the box's max and min squared distances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: Cap on query-row x point pairs per :meth:`Kernel.sums_at` block, so each
#: temporary holds at most 128 KiB of pairs (twice that raised a daemon's
#: peak RSS; measured at d = 2 only). Above 8,192 points a block is one row.
_MAX_BLOCK_PAIRS = 16_384


class Kernel(ABC):
    """A normalized product/radial kernel with diagonal bandwidth.

    Parameters
    ----------
    bandwidth:
        Per-dimension bandwidth vector ``h`` of shape ``(d,)``. Every entry
        must be strictly positive.
    normalize:
        When False the normalizing constant is replaced by 1.0, yielding
        *unnormalized* densities. In very high dimensions (the paper's
        mnist d=256/784 sweeps) the true constant underflows float64;
        classification, quantile thresholds, and pruning are all
        invariant to a global density scale, so unnormalized densities
        preserve every experiment's behaviour.
    """

    #: Short machine-readable kernel name (e.g. ``"gaussian"``).
    name: str = "abstract"

    def __init__(self, bandwidth: np.ndarray, normalize: bool = True) -> None:
        bandwidth = np.asarray(bandwidth, dtype=np.float64)
        if bandwidth.ndim != 1:
            raise ValueError(f"bandwidth must be a 1-d vector, got shape {bandwidth.shape}")
        if not np.all(bandwidth > 0):
            raise ValueError("all bandwidth entries must be strictly positive")
        self._bandwidth = bandwidth
        self._dim = bandwidth.shape[0]
        self.normalized = normalize
        self._norm_constant = self._compute_norm_constant() if normalize else 1.0

    @property
    def bandwidth(self) -> np.ndarray:
        """The per-dimension bandwidth vector ``h``."""
        return self._bandwidth

    @property
    def dim(self) -> int:
        """Dimensionality ``d`` the kernel is bound to."""
        return self._dim

    @property
    def norm_constant(self) -> float:
        """Multiplicative constant that makes the kernel integrate to 1."""
        return self._norm_constant

    @property
    def max_value(self) -> float:
        """The kernel's value at zero distance, ``K_H(0)``."""
        return self._norm_constant

    @property
    def lipschitz_constant(self) -> float:
        """Bound on ``|d K_H / d r|`` w.r.t. the *scaled* distance ``r``.

        Moving a point by ``delta`` in bandwidth-scaled space changes its
        kernel contribution by at most ``lipschitz_constant * delta`` —
        the extent bound the deterministic coreset certificate
        (:mod:`repro.coresets.merge_reduce`) is built on. The base
        implementation returns ``inf`` (no certificate); kernels with a
        differentiable profile override it. Discontinuous kernels
        (spherical uniform) are genuinely non-Lipschitz and keep ``inf``,
        which degrades coreset certification to best-effort.
        """
        return float("inf")

    @abstractmethod
    def _compute_norm_constant(self) -> float:
        """Return the normalizing constant for this kernel/bandwidth."""

    @abstractmethod
    def profile(self, sq_dists: np.ndarray) -> np.ndarray:
        """Unnormalized kernel profile at squared scaled distances.

        ``profile(0) == 1`` and the profile is monotone non-increasing.
        """

    @property
    @abstractmethod
    def support_sq_radius(self) -> float:
        """Squared scaled radius beyond which the kernel is exactly zero.

        ``math.inf`` for kernels with unbounded support (Gaussian).
        """

    @abstractmethod
    def inverse_profile(self, value: float) -> float:
        """Smallest squared scaled distance ``s`` with ``profile(s) <= value``.

        Used to derive guaranteed-error cutoff radii (e.g. for the radial
        KDE baseline). ``value`` must be in ``(0, 1]``.
        """

    def value(self, sq_dists: np.ndarray | float) -> np.ndarray | float:
        """Normalized kernel value(s) at squared scaled distance(s)."""
        return self._norm_constant * self.profile(np.asarray(sq_dists, dtype=np.float64))

    def value_scalar(self, sq_dist: float) -> float:
        """Fast scalar kernel value for the per-node traversal hot path.

        Subclasses override with ``math``-based implementations; the
        default falls back to the array path.
        """
        return float(self.value(sq_dist))

    def scale(self, points: np.ndarray) -> np.ndarray:
        """Map raw coordinates into bandwidth-scaled space (``x / h``)."""
        points = np.asarray(points, dtype=np.float64)
        return points / self._bandwidth

    def sum_at(
        self,
        scaled_points: np.ndarray,
        scaled_query: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> float:
        """Unaveraged kernel sum at one scaled query: :meth:`sums_at`'s arithmetic, unblocked."""
        return float(self._point_sums(scaled_points, scaled_query, weights))

    def sums_at(
        self,
        scaled_points: np.ndarray,
        scaled_queries: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Unaveraged kernel sums from ``(m, d)`` points at each ``(q, d)`` query.

        Both arrays are bandwidth-scaled (callers divide by the training-set
        size); ``weights`` (``(m,)``) scales each point's value. Query rows
        go in blocks of at most :data:`_MAX_BLOCK_PAIRS` pairs, always
        against all ``m`` points, so each sum is one pairwise reduction.
        """
        sums = np.empty(scaled_queries.shape[0])
        step = max(1, _MAX_BLOCK_PAIRS // max(scaled_points.shape[0], 1))
        for start in range(0, sums.size, step):
            sums[start : start + step] = self._point_sums(
                scaled_points, scaled_queries[start : start + step], weights
            )
        return sums

    def _point_sums(self, points: np.ndarray, queries: np.ndarray, weights) -> np.ndarray:
        """Sums over all ``points`` at one ``(d,)`` query or at ``(k, d)`` rows.

        Squared distances accumulate one dimension at a time over column
        views (no copy): at ``d = 2`` the same two products and one addition
        as an ``einsum`` over the last axis, so the sums are bit-identical.
        """
        columns = points.T
        # A block's coordinates broadcast as (k, 1) against each column.
        coords = queries.T[..., None] if queries.ndim == 2 else queries
        sq = np.square(columns[0] - coords[0])
        for column, coord in zip(columns[1:], coords[1:]):
            sq += np.square(column - coord)
        values = self.value(sq)
        if weights is not None:
            values *= weights
        return values.sum(axis=-1)

    def cutoff_radius(self, max_tail_value: float) -> float:
        """Scaled radius beyond which a single point contributes at most
        ``max_tail_value`` (an *unnormalized-by-n* kernel value).

        Raises ``ValueError`` if ``max_tail_value`` exceeds ``max_value``
        (every radius would do; pass something smaller).
        """
        if max_tail_value <= 0:
            raise ValueError("max_tail_value must be positive")
        ratio = max_tail_value / self._norm_constant
        if ratio >= 1.0:
            return 0.0
        return float(np.sqrt(self.inverse_profile(ratio)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(d={self._dim}, h~{np.mean(self._bandwidth):.4g})"
