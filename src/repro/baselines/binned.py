"""The "ks" baseline: linear-binning + FFT convolution KDE (Table 2).

Reproduces the algorithmic strategy of the R ``ks`` package (Wand 1994,
Silverman 1982): training points are spread onto a regular grid with
multilinear ("linear binning") weights, the kernel is tabulated on grid
offsets, and the density grid is their FFT convolution. Queries are
answered by multilinear interpolation of the density grid.

Extremely fast in low dimensions but, like ``ks``, limited to d <= 4
(grid cells per dimension shrink combinatorially) and carrying *no*
accuracy guarantee — the bias of coarse bins is what degrades its F1
score in the paper's Figure 8.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.factory import kernel_for_data
from repro.validation import as_finite_matrix

#: ks-like default grid sizes per dimensionality.
DEFAULT_GRID_SIZES = {1: 401, 2: 151, 3: 51, 4: 21}

#: Kernel tail radius (in bandwidths) used for grid padding and the
#: convolution stencil; exp(-16/2) ~ 3e-4 relative truncation.
_TAIL_RADIUS = 4.0


class BinnedKDE:
    """Grid-binned KDE with FFT convolution (d <= 4).

    Parameters
    ----------
    grid_size:
        Grid nodes per dimension; defaults to the ks-like table
        ``{1: 401, 2: 151, 3: 51, 4: 21}``.
    """

    name = "ks"

    def __init__(
        self,
        grid_size: int | None = None,
        kernel_name: str = "gaussian",
        bandwidth_scale: float = 1.0,
    ) -> None:
        if grid_size is not None and grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {grid_size}")
        self.grid_size = grid_size
        self.kernel_name = kernel_name
        self.bandwidth_scale = bandwidth_scale
        self._kernel: Kernel | None = None
        self._grid_lo: np.ndarray | None = None
        self._cell: np.ndarray | None = None
        self._density_grid: np.ndarray | None = None
        self._evaluations = 0

    def fit(self, data: np.ndarray) -> "BinnedKDE":
        # Imported here so that importing the library does not load scipy.
        from scipy.signal import fftconvolve

        data = as_finite_matrix(data, "training data")
        d = data.shape[1]
        if d > 4:
            raise ValueError(f"BinnedKDE supports d <= 4 (like the ks package), got d={d}")
        size = self.grid_size or DEFAULT_GRID_SIZES[d]

        self._kernel = kernel_for_data(data, self.kernel_name, self.bandwidth_scale)
        scaled = self._kernel.scale(data)
        tail = min(_TAIL_RADIUS, np.sqrt(self._kernel.support_sq_radius))

        lo = scaled.min(axis=0) - tail
        hi = scaled.max(axis=0) + tail
        self._grid_lo = lo
        self._cell = (hi - lo) / (size - 1)

        counts = self._linear_bin(scaled, size)
        stencil = self._kernel_stencil(tail)
        self._density_grid = fftconvolve(counts, stencil, mode="same") / data.shape[0]
        # FFT round-off can leave tiny negative densities in empty regions.
        np.maximum(self._density_grid, 0.0, out=self._density_grid)
        return self

    @property
    def kernel(self) -> Kernel:
        if self._kernel is None:
            raise RuntimeError("BinnedKDE is not fitted; call fit() first")
        return self._kernel

    @property
    def kernel_evaluations(self) -> int:
        """Kernel-stencil evaluations (binning itself evaluates none)."""
        return self._evaluations

    def density(self, queries: np.ndarray) -> np.ndarray:
        """Interpolated densities; zero outside the padded grid."""
        if self._density_grid is None or self._kernel is None:
            raise RuntimeError("BinnedKDE is not fitted; call fit() first")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        scaled = self._kernel.scale(queries)
        return self._interpolate(scaled)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _linear_bin(self, scaled: np.ndarray, size: int) -> np.ndarray:
        """Spread unit mass per point onto its 2^d surrounding grid nodes."""
        assert self._grid_lo is not None and self._cell is not None
        d = scaled.shape[1]
        pos = (scaled - self._grid_lo) / self._cell
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        base = np.clip(base, 0, size - 2)

        counts = np.zeros((size,) * d)
        flat = counts.reshape(-1)
        strides = np.array([size**k for k in range(d - 1, -1, -1)], dtype=np.int64)
        for corner in itertools.product((0, 1), repeat=d):
            corner_arr = np.asarray(corner)
            weights = np.prod(
                np.where(corner_arr, frac, 1.0 - frac), axis=1
            )
            flat_idx = (base + corner_arr) @ strides
            np.add.at(flat, flat_idx, weights)
        return counts

    def _kernel_stencil(self, tail: float) -> np.ndarray:
        """Kernel tabulated on grid-offset vectors out to the tail radius."""
        assert self._cell is not None and self._kernel is not None
        d = self._cell.shape[0]
        reach = [max(1, int(np.ceil(tail / w))) for w in self._cell]
        axes = [np.arange(-r, r + 1) * w for r, w in zip(reach, self._cell)]
        mesh = np.meshgrid(*axes, indexing="ij")
        sq = np.zeros(mesh[0].shape)
        for axis in mesh:
            sq += axis * axis
        self._evaluations += sq.size
        return np.asarray(self._kernel.value(sq), dtype=np.float64).reshape(sq.shape)

    def _interpolate(self, scaled_queries: np.ndarray) -> np.ndarray:
        """Multilinear interpolation; zero for out-of-grid queries."""
        assert (
            self._grid_lo is not None
            and self._cell is not None
            and self._density_grid is not None
        )
        grid = self._density_grid
        size = grid.shape[0]
        d = scaled_queries.shape[1]
        pos = (scaled_queries - self._grid_lo) / self._cell
        inside = np.all((pos >= 0) & (pos <= size - 1), axis=1)
        base = np.clip(np.floor(pos).astype(np.int64), 0, size - 2)
        frac = np.clip(pos - base, 0.0, 1.0)

        out = np.zeros(scaled_queries.shape[0])
        flat = grid.reshape(-1)
        strides = np.array([size**k for k in range(d - 1, -1, -1)], dtype=np.int64)
        for corner in itertools.product((0, 1), repeat=d):
            corner_arr = np.asarray(corner)
            weights = np.prod(np.where(corner_arr, frac, 1.0 - frac), axis=1)
            flat_idx = (base + corner_arr) @ strides
            out += weights * flat[flat_idx]
        out[~inside] = 0.0
        return out
