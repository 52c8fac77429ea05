"""The "simple" baseline: naive exact KDE (paper Table 2).

Every query accumulates the kernel contribution of every training point.
Exact up to floating point, O(n) per query. This is also the ground-truth
oracle the accuracy experiments (Figure 8) compare against.

The pairwise computation is vectorized over training points and chunked
over queries to bound peak memory; the per-kernel work is identical to
the paper's Java loop, just batched.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.factory import kernel_for_data
from repro.validation import as_finite_matrix


class NaiveKDE:
    """Exact kernel density estimation by explicit summation.

    Parameters
    ----------
    kernel_name:
        Kernel family (``"gaussian"`` or ``"epanechnikov"``).
    bandwidth_scale:
        Scott's-rule scale factor ``b``.
    """

    name = "simple"

    def __init__(
        self,
        kernel_name: str = "gaussian",
        bandwidth_scale: float = 1.0,
        normalize: bool = True,
    ) -> None:
        self.kernel_name = kernel_name
        self.bandwidth_scale = bandwidth_scale
        self.normalize = normalize
        self._kernel: Kernel | None = None
        self._scaled: np.ndarray | None = None
        self._evaluations = 0

    def fit(self, data: np.ndarray) -> "NaiveKDE":
        data = as_finite_matrix(data, "training data")
        self._kernel = kernel_for_data(
            data, self.kernel_name, self.bandwidth_scale, normalize=self.normalize
        )
        self._scaled = self._kernel.scale(data)
        return self

    @property
    def kernel(self) -> Kernel:
        if self._kernel is None:
            raise RuntimeError("NaiveKDE is not fitted; call fit() first")
        return self._kernel

    @property
    def kernel_evaluations(self) -> int:
        return self._evaluations

    def density(self, queries: np.ndarray) -> np.ndarray:
        """Exact densities at ``queries`` (shape ``(m,)`` output)."""
        if self._scaled is None or self._kernel is None:
            raise RuntimeError("NaiveKDE is not fitted; call fit() first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        scaled_queries = self._kernel.scale(queries)
        n = self._scaled.shape[0]
        self._evaluations += scaled_queries.shape[0] * n
        return self._kernel.sums_at(self._scaled, scaled_queries) / n
