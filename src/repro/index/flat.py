"""Flat structure-of-arrays view of a k-d tree (batch-traversal substrate).

Walking ``Node`` dataclasses one attribute access at a time is exactly
the interpreter overhead the batched traversal engine
(:mod:`repro.core.batch_bounds`) is built to avoid. A :class:`FlatTree`
stores every per-node quantity the traversal needs in contiguous numpy
arrays indexed by node id, so bounding a whole block of (query, node)
pairs is a handful of vectorized sweeps instead of a Python loop.
:class:`~repro.index.kdtree.KDTree` builds these arrays directly, level
by level; its ``Node`` objects are linked from them on demand.

Node ids are assigned in depth-first pre-order: the root is node 0 and
every internal node's children have larger ids. Leaves are marked by a
``left`` child id of ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Child-index sentinel marking a leaf node.
NO_CHILD = -1


class SweepArrays(NamedTuple):
    """Per-node arrays laid out for :func:`signed_box_bounds` (derived, never pickled)."""

    #: (2, m, d): each node's ``lo`` rows, then its negated ``hi`` rows.
    boxes: np.ndarray
    children: np.ndarray  #: (2, m) left then right child ids.
    leaf: np.ndarray  #: (m,) True at leaves.
    mass: np.ndarray  #: (m,) ``node_weight / total_weight``.


@dataclass(frozen=True)
class FlatTree:
    """Structure-of-arrays snapshot of a k-d tree.

    All arrays are indexed by node id (pre-order, root = 0). ``points``
    is the tree's permuted point array, shared (not copied), so a leaf's
    points are the contiguous slice ``points[start[i]:end[i]]``.
    """

    points: np.ndarray  #: (n, d) permuted training points (shared).
    lo: np.ndarray  #: (m, d) per-node tight box lower corners.
    hi: np.ndarray  #: (m, d) per-node tight box upper corners.
    count: np.ndarray  #: (m,) number of points under each node.
    start: np.ndarray  #: (m,) slice starts into ``points``.
    end: np.ndarray  #: (m,) slice ends into ``points``.
    left: np.ndarray  #: (m,) left-child node ids (``NO_CHILD`` = leaf).
    right: np.ndarray  #: (m,) right-child node ids (``NO_CHILD`` = leaf).
    #: (m,) float mass under each node; equals ``count`` for unweighted
    #: trees. Weighted coreset trees (see :mod:`repro.coresets`) store
    #: the per-node weight sums here so the traversal bounds the
    #: weighted KDE ``(1/W) sum w_i K``.
    node_weight: np.ndarray
    #: (n,) permuted per-point weights, or ``None`` for unweighted trees.
    point_weights: np.ndarray | None

    @property
    def n_nodes(self) -> int:
        """Total number of tree nodes."""
        return self.count.shape[0]

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self.points.shape[0]

    @property
    def total_weight(self) -> float:
        """Total point mass ``W`` (equals ``size`` for unweighted trees)."""
        return float(self.node_weight[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1]

    @property
    def is_leaf(self) -> np.ndarray:
        """Boolean leaf mask over node ids."""
        return self.left == NO_CHILD

    @cached_property
    def sweep(self) -> SweepArrays:
        """The node arrays regrouped so one ``take`` gathers what a sweep needs."""
        return SweepArrays(
            boxes=np.stack((self.lo, -self.hi)),
            children=np.stack((self.left, self.right)),
            leaf=self.left == NO_CHILD,
            mass=self.node_weight * (1.0 / self.total_weight),
        )

    def __getstate__(self) -> dict:
        # ``sweep`` is rebuilt on first use after unpickling.
        state = self.__dict__.copy()
        state.pop("sweep", None)
        return state

    def leaf_points(self, node_id: int) -> np.ndarray:
        """The contiguous point slice owned by leaf ``node_id``."""
        return self.points[self.start[node_id] : self.end[node_id]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlatTree(n={self.size}, d={self.dim}, nodes={self.n_nodes})"


def flatten_kdtree(tree) -> FlatTree:
    """The :class:`FlatTree` of a :class:`~repro.index.kdtree.KDTree`.

    The tree builds its arrays at construction; this returns them (the
    point array is shared with the tree, never copied).
    """
    return tree.flatten()


def pair_box_bounds(
    flat: FlatTree,
    node_ids: np.ndarray,
    queries: np.ndarray,
    kernel,
    inv_n: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Equation 6 bounds for aligned (query, node) pairs.

    ``node_ids`` has shape ``(p,)`` and ``queries`` shape ``(p, d)``;
    pair ``i`` bounds the density contribution of node ``node_ids[i]``
    at ``queries[i]`` (the batched analogue of
    :func:`repro.index.boxes.box_kernel_bounds`), weighting each node's
    mass by ``inv_n``.
    """
    return signed_box_bounds(
        flat, node_ids, np.stack((queries, -queries)), kernel,
        flat.node_weight[node_ids] * inv_n,
    )


def signed_pairs(queries: np.ndarray) -> np.ndarray:
    """The :func:`signed_box_bounds` operand bounding two children per ``(k, d)`` query.

    Pairs ``i`` and ``k + i`` both hold query ``i``: with node ids
    ``[left children, right children]`` they bound both children of the
    node query ``i`` expanded.
    """
    doubled = np.concatenate((queries, queries))
    return np.stack((doubled, -doubled))


def signed_box_bounds(
    flat: FlatTree,
    node_ids: np.ndarray,
    signed: np.ndarray,
    kernel,
    weight: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Equation 6 bounds for ``(p,)`` (query, node) pairs in one sweep.

    ``signed`` has shape ``(2, p, d)``: each pair's query ``q``, then
    ``-q``. ``weight`` is each pair's node mass over the total; it
    defaults to ``flat.sweep.mass``. Returns ``(lower, upper)``.

    ``flat.sweep.boxes`` holds ``lo`` and ``-hi``, so one subtraction
    gives ``below = lo - q`` and ``above = q - hi`` exactly. The gap is
    ``max(below, above, 0)``; the farthest corner is ``max(|below|,
    |above|) = -min(below, above)`` (``below + above = lo - hi <= 0``),
    whose square is the same. Gaps and corners go through one ``einsum``
    and one kernel call.
    """
    boxes, __, __, mass = flat.sweep
    reach = boxes.take(node_ids, axis=1)
    reach -= signed  # below, above
    n, d = node_ids.size, signed.shape[2]
    corners = np.empty((2, n, d))  # gaps, then farthest corners
    np.maximum(reach[0], reach[1], out=corners[0])
    np.maximum(corners[0], 0.0, out=corners[0])
    np.minimum(reach[0], reach[1], out=corners[1])
    rows = corners.reshape(2 * n, d)
    values = kernel.value(np.einsum("ij,ij->i", rows, rows))
    if weight is None:
        weight = mass.take(node_ids)
    return values[n:] * weight, values[:n] * weight


def absorb_rows(
    flat: FlatTree,
    split_dim: np.ndarray,
    split_value: np.ndarray,
    rows: np.ndarray,
    mass: float,
) -> FlatTree:
    """A new :class:`FlatTree` with ``rows`` routed into ``flat``'s leaves.

    ``split_dim``/``split_value`` are the tree's per-node split axis (-1
    at leaves) and value: each row descends by the same ``coord <
    value`` test the build partitions with, and is appended to its
    leaf's slice after the leaf's own points, in row order. Slices,
    counts and masses shift to match, leaf boxes widen to cover their
    new rows and every parent box is re-tightened from its children.
    The child arrays are shared, not copied; ``flat`` is not modified.

    ``mass`` is the population the tree's points stand for. When it
    differs from the point count, or the tree is weighted, the tree's
    point weights are scaled to sum to ``mass`` and every new row weighs
    one, so the new tree bounds ``(mass * f_tree + sum_rows K) / (mass +
    len(rows))``. Zero rows return ``flat`` itself.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, flat.dim)
    m = rows.shape[0]
    if m == 0:
        return flat
    n = flat.size
    leaf_of = np.zeros(m, dtype=np.int64)
    moving = np.arange(m)
    while moving.size:
        at = leaf_of[moving]
        axis = split_dim[at]
        inner = axis >= 0
        moving, at, axis = moving[inner], at[inner], axis[inner]
        goes_left = rows[moving, axis] < split_value[at]
        leaf_of[moving] = np.where(goes_left, flat.left[at], flat.right[at])

    # Pre-order numbering puts a left slice before its right one, so the
    # leaves in id order are the leaves in slice order.
    leaves = np.flatnonzero(flat.left == NO_CHILD)
    added = np.bincount(leaf_of, minlength=flat.n_nodes)[leaves]
    before = np.concatenate(([0], np.cumsum(added)))  # rows in earlier leaves
    base_dest = np.arange(n) + np.repeat(before[:-1], flat.count[leaves])
    order = np.argsort(flat.start[leaf_of], kind="stable")
    routed = rows[order]
    # The j-th routed row lands after its leaf's own points and the j
    # routed rows before it.
    row_dest = flat.end[leaf_of[order]] + np.arange(m)
    points = np.empty((n + m, flat.dim))
    points[base_dest] = flat.points
    points[row_dest] = routed
    leaf_starts = flat.start[leaves]
    start = flat.start + before[np.searchsorted(leaf_starts, flat.start)]
    end = flat.end + before[np.searchsorted(leaf_starts, flat.end)]

    lo, hi = flat.lo.copy(), flat.hi.copy()
    filled = added > 0
    cuts = before[:-1][filled]
    targets = leaves[filled]
    lo[targets] = np.minimum(lo[targets], np.minimum.reduceat(routed, cuts, axis=0))
    hi[targets] = np.maximum(hi[targets], np.maximum.reduceat(routed, cuts, axis=0))
    # Internal nodes level by level from the root, then re-tightened
    # deepest level first so each parent reads finished children.
    levels = [np.zeros(1, dtype=np.int64)]
    while True:
        inner = levels[-1][flat.left[levels[-1]] != NO_CHILD]
        if not inner.size:
            break
        levels[-1] = inner
        levels.append(np.concatenate((flat.left[inner], flat.right[inner])))
    for parents in reversed(levels[:-1]):
        left, right = flat.left[parents], flat.right[parents]
        lo[parents] = np.minimum(lo[left], lo[right])
        hi[parents] = np.maximum(hi[left], hi[right])

    if flat.point_weights is None and mass == n:
        point_weights = None
        node_weight = (end - start).astype(np.float64)
    else:
        base = np.ones(n) if flat.point_weights is None else flat.point_weights
        point_weights = np.empty(n + m)
        point_weights[base_dest] = base * (mass / flat.total_weight)
        point_weights[row_dest] = 1.0
        prefix = np.concatenate(([0.0], np.cumsum(point_weights)))
        node_weight = prefix[end] - prefix[start]
    return FlatTree(
        points=points, lo=lo, hi=hi, count=end - start, start=start, end=end,
        left=flat.left, right=flat.right, node_weight=node_weight,
        point_weights=point_weights,
    )
