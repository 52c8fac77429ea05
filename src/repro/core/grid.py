"""Hypergrid cache for short-circuiting obvious inliers (paper Section 3.7).

Once a lower bound ``t_l`` on the threshold is known, a single pass over
the dataset counts points per cell of a bandwidth-width grid. Any query
sharing a cell with ``c`` points has density at least
``c/n * K_H(d_diag)`` — every co-resident point is within one cell
diagonal — so when that bound already clears the HIGH side of the
threshold rule, no tree traversal is needed at all.

The cache's usefulness decays exponentially with dimension (cells go
empty), so it is disabled above ``grid_max_dim`` (the paper uses 4).

The counts live in arrays: the occupied cells' keys, sorted, beside
their counts and density lower bounds, so a batch of queries is answered
by one ``searchsorted``. A key packs a cell's integer coordinates into
one float64 (exact while the packed range stays below 2**52; clipped to
one cell beyond the occupied range, so any query outside it lands in an
empty border cell). For a wider range, as far outliers make it, the key
is the int64 cell row itself, compared field by field.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.base import Kernel


def cell_bound(kernel: Kernel, dim: int, cell_width: float = 1.0) -> float:
    """Kernel value between any two points of one grid cell: ``K(dim * w**2)``.

    Two points in the same cell differ by less than ``cell_width`` per
    axis, so their squared scaled distance is below ``dim * cell_width**2``.
    For a compact-support kernel (Epanechnikov, biweight, triweight,
    uniform) the bound is 0.0 once the cell diagonal reaches the unit
    support radius, as it does for one-bandwidth cells in every
    dimension: such a grid can never certify a row, so callers build
    none when this is 0 at the default width.
    """
    return float(kernel.value(dim * cell_width * cell_width))


class GridCache:
    """Per-cell point counts over bandwidth-scaled coordinates.

    Parameters
    ----------
    scaled_points:
        Training points in bandwidth-scaled space, shape ``(n, d)``. In
        this space the paper's "grid dimensions equal to the bandwidth"
        means unit cells.
    kernel:
        The kernel densities are measured under.
    cell_width:
        Cell edge length in scaled space (1.0 = one bandwidth, the
        paper's default).
    """

    def __init__(
        self,
        scaled_points: np.ndarray,
        kernel: Kernel,
        cell_width: float = 1.0,
    ) -> None:
        if cell_width <= 0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        scaled_points = np.atleast_2d(np.asarray(scaled_points, dtype=np.float64))
        self._n = scaled_points.shape[0]
        self._dim = scaled_points.shape[1]
        self._cell_width = cell_width
        self._kernel = kernel
        self._min_kernel_value = cell_bound(kernel, self._dim, cell_width)
        floors = np.floor(scaled_points / cell_width)
        # Packed keys cover [min - 1, max + 1] per axis: clipping a query
        # cell into that box sends every out-of-range cell to an empty
        # border cell. Keys and the half-steps between them stay exact in
        # float64 while the packed range is below 2**52; past that (far
        # outliers), the key is the int64 cell row itself.
        low, high = floors.min(axis=0) - 1, floors.max(axis=0) + 1
        self._strides: np.ndarray | None = None
        if np.all(np.abs(np.concatenate((low, high))) < 2**52):
            spans = [int(h - l) + 1 for l, h in zip(low, high)]
            if math.prod(spans) < 2**52:
                self._low, self._high = low, high
                self._strides = np.cumprod([1.0] + spans[:-1])
        keys, counts = np.unique(self._cell_keys(floors), return_counts=True)
        # Each occupied cell's lower bound, with the scalar path's arithmetic.
        bounds = counts / self._n * self._min_kernel_value
        self._n_cells = keys.size
        if self._strides is None:
            self._edges, self._counts, self._bounds = keys, counts, bounds
        else:
            # Step functions over the integer keys: searching a key right
            # of [k, k + 0.5] lands on its cell's value, anywhere else on 0.
            self._edges = np.column_stack((keys, keys + 0.5)).ravel()
            self._counts = np.zeros(2 * keys.size + 1, dtype=counts.dtype)
            self._counts[1::2] = counts
            self._bounds = np.zeros(2 * keys.size + 1)
            self._bounds[1::2] = bounds

    def _cell_keys(self, floors: np.ndarray) -> np.ndarray:
        """One sortable key per row of floored coordinates (clipped in place)."""
        if self._strides is None:
            record = np.dtype([(f"a{i}", np.int64) for i in range(self._dim)])
            return np.ascontiguousarray(floors.astype(np.int64)).view(record).reshape(-1)
        np.minimum(np.maximum(floors, self._low, out=floors), self._high, out=floors)
        return (floors - self._low).dot(self._strides)

    def _lookup(self, floors: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-cell ``values`` (``_counts`` or ``_bounds``) of each row's cell."""
        keys = self._cell_keys(floors)
        if self._strides is not None:
            return values[self._edges.searchsorted(keys, side="right")]
        at = np.minimum(self._edges.searchsorted(keys), self._n_cells - 1)
        return np.where(self._edges[at] == keys, values[at], 0)

    @property
    def n_cells(self) -> int:
        """Number of occupied grid cells."""
        return self._n_cells

    @property
    def cell_width(self) -> float:
        return self._cell_width

    def cell_count(self, scaled_query: np.ndarray) -> int:
        """Number of training points sharing the query's cell."""
        floors = np.floor(np.asarray(scaled_query, dtype=np.float64) / self._cell_width)
        return int(self._lookup(floors.reshape(1, -1), self._counts)[0])

    def density_lower_bound(self, scaled_query: np.ndarray) -> float:
        """A conservative lower bound on the query's kernel density."""
        return self.cell_count(scaled_query) / self._n * self._min_kernel_value

    def density_lower_bounds(self, scaled_queries: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`density_lower_bound` for an ``(m, d)`` batch.

        The floor/ratio arithmetic matches the scalar path
        operation-for-operation, so both produce identical bounds.
        """
        scaled = np.atleast_2d(np.asarray(scaled_queries, dtype=np.float64))
        if scaled.shape[0] == 0:
            return np.zeros(0)
        return self._lookup(np.floor(scaled / self._cell_width), self._bounds)

    def is_certain_inlier(
        self, scaled_query: np.ndarray, t_upper: float, epsilon: float
    ) -> bool:
        """True when the grid alone proves the query is HIGH.

        Uses the same margin as the threshold rule, so grid-classified
        points satisfy the identical accuracy guarantee.
        """
        return self.density_lower_bound(scaled_query) > t_upper * (1.0 + epsilon)
