"""Count- and bounding-box-augmented k-d tree (paper Section 3.1).

Construction permutes the input points into a contiguous array so that
every node owns a slice ``points[start:end]``; leaves can therefore be
evaluated with a single vectorized kernel call. Every node stores its
exact point count and a tight bounding box, the two quantities the
density-bounding traversal needs (Equation 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.index.boxes import box_kernel_bounds
from repro.index.splitting import SPLIT_RULES, cycle_axis, widest_axis

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.index.flat import FlatTree

#: Default number of points below which a node becomes a leaf.
DEFAULT_LEAF_SIZE = 32


@dataclass
class Node:
    """One k-d tree node: a slice of points, its count, and a tight box."""

    lo: np.ndarray
    hi: np.ndarray
    start: int
    end: int
    depth: int
    split_dim: int = -1
    split_value: float = float("nan")
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def count(self) -> int:
        """Number of points under this node."""
        return self.end - self.start

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def children(self) -> tuple["Node", "Node"]:
        """The two children of an internal node."""
        if self.is_leaf:
            raise ValueError("leaf nodes have no children")
        assert self.left is not None and self.right is not None
        return self.left, self.right


@dataclass
class _BuildTask:
    """Pending construction work: materialize children for ``node``."""

    node: Node
    depth: int = field(default=0)


class KDTree:
    """k-d tree over a fixed point set.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``. A copy is made and permuted in place;
        the original array is not modified.
    leaf_size:
        Maximum number of points in a leaf.
    split_rule:
        ``"trimmed_midpoint"`` (the paper's equi-width rule, default) or
        ``"median"``.
    axis_rule:
        ``"cycle"`` (the paper's default: rotate through dimensions per
        level) or ``"widest"`` (split the widest box extent).
    weights:
        Optional strictly positive per-point weights of shape ``(n,)``.
        When given, the densities bounded over this tree are the
        *weighted* KDE ``f(x) = (1/W) sum_i w_i K(x - x_i)`` with
        ``W = sum_i w_i`` — the form coreset compression produces
        (:mod:`repro.coresets`). ``None`` (default) is the ordinary
        unweighted tree with identical numerics to before.
    """

    def __init__(
        self,
        points: np.ndarray,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        split_rule: str = "trimmed_midpoint",
        axis_rule: str = "cycle",
        weights: np.ndarray | None = None,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            raise ValueError("cannot build a KDTree over an empty point set")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if split_rule not in SPLIT_RULES:
            raise ValueError(
                f"unknown split_rule {split_rule!r}; choose from {sorted(SPLIT_RULES)}"
            )
        if axis_rule not in ("cycle", "widest"):
            raise ValueError(f"unknown axis_rule {axis_rule!r}; choose 'cycle' or 'widest'")

        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weights.shape[0] != points.shape[0]:
                raise ValueError(
                    f"weights length {weights.shape[0]} does not match "
                    f"point count {points.shape[0]}"
                )
            if not np.all(weights > 0):
                raise ValueError("all point weights must be strictly positive")

        self.points = points.copy()
        self.indices = np.arange(points.shape[0])
        self.point_weights = None if weights is None else weights.copy()
        self.leaf_size = leaf_size
        self.split_rule = split_rule
        self.axis_rule = axis_rule
        self._split_value = SPLIT_RULES[split_rule]
        self._flat: "FlatTree | None" = None
        self.root = self._build()
        # Prefix sums over the permuted weights: any node's mass is an
        # O(1) slice difference, so ``Node`` itself stays weight-free.
        self._weight_prefix = (
            None
            if self.point_weights is None
            else np.concatenate(([0.0], np.cumsum(self.point_weights)))
        )

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        """Total point mass ``W`` (equals ``size`` for unweighted trees)."""
        if self._weight_prefix is None:
            return float(self.size)
        return float(self._weight_prefix[-1])

    def node_weight(self, node: Node) -> float:
        """Mass under ``node`` (equals ``node.count`` when unweighted)."""
        if self._weight_prefix is None:
            return float(node.count)
        return float(self._weight_prefix[node.end] - self._weight_prefix[node.start])

    def leaf_points(self, node: Node) -> np.ndarray:
        """The contiguous point slice owned by ``node``."""
        return self.points[node.start : node.end]

    def leaf_indices(self, node: Node) -> np.ndarray:
        """Original input indices of the points owned by ``node``."""
        return self.indices[node.start : node.end]

    def node_bounds(self, node: Node, query, kernel, inv_n: float) -> tuple[float, float]:
        """(lower, upper) density contribution of ``node`` at ``query``.

        The index-family hook the density-bounding traversal dispatches
        through (the ball tree provides its own); boxes use the fused
        Equation 6 helper. Weighted trees substitute the node's mass for
        its count (``inv_n`` is then ``1 / total_weight``).
        """
        weight = node.count if self._weight_prefix is None else self.node_weight(node)
        return box_kernel_bounds(node.lo, node.hi, weight, query, kernel, inv_n)

    def flatten(self) -> "FlatTree":
        """The structure-of-arrays view consumed by the batch engine.

        Built lazily on first use and cached — the tree is immutable
        after construction, so the snapshot never goes stale. See
        :mod:`repro.index.flat`.
        """
        if self._flat is None:
            from repro.index.flat import flatten_kdtree

            self._flat = flatten_kdtree(self)
        return self._flat

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node in depth-first (pre-order) order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]

    def leaves(self) -> Iterator[Node]:
        """Yield every leaf node."""
        return (node for node in self.iter_nodes() if node.is_leaf)

    def depth(self) -> int:
        """Maximum leaf depth (root has depth 0)."""
        return max(node.depth for node in self.leaves())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _make_node(self, start: int, end: int, depth: int) -> Node:
        slab = self.points[start:end]
        return Node(lo=slab.min(axis=0), hi=slab.max(axis=0), start=start, end=end, depth=depth)

    def _build(self) -> Node:
        root = self._make_node(0, self.size, depth=0)
        pending = [_BuildTask(root, depth=0)]
        while pending:
            task = pending.pop()
            node = task.node
            if node.count <= self.leaf_size:
                continue
            split = self._choose_split(node, task.depth)
            if split is None:
                continue  # all points identical: stays a leaf
            axis, value, mid = split
            node.split_dim = axis
            node.split_value = value
            node.left = self._make_node(node.start, mid, node.depth + 1)
            node.right = self._make_node(mid, node.end, node.depth + 1)
            pending.append(_BuildTask(node.left, task.depth + 1))
            pending.append(_BuildTask(node.right, task.depth + 1))
        return root

    def _choose_split(self, node: Node, depth: int) -> tuple[int, float, int] | None:
        """Pick a (axis, value, partition point) that splits ``node``.

        Tries the configured axis first, then every other axis, falling
        back from the configured split value to the median when a value
        fails to separate the points. Returns ``None`` only when every
        point in the node is identical.
        """
        dim = self.dim
        if self.axis_rule == "cycle":
            first = cycle_axis(depth, dim)
        else:
            first = widest_axis(node.lo, node.hi)
        for offset in range(dim):
            axis = (first + offset) % dim
            if node.hi[axis] <= node.lo[axis]:
                continue  # degenerate extent on this axis
            coords = self.points[node.start : node.end, axis]
            for rule in (self._split_value, SPLIT_RULES["median"]):
                value = rule(coords)
                mid = self._partition(node.start, node.end, axis, value)
                if node.start < mid < node.end:
                    return axis, value, mid
            # Last resort on this axis: split strictly below the max so
            # both sides are non-empty even under extreme skew.
            value = float(node.hi[axis])
            mid = self._partition(node.start, node.end, axis, value)
            if node.start < mid < node.end:
                return axis, value, mid
        return None

    def _partition(self, start: int, end: int, axis: int, value: float) -> int:
        """Permute ``points[start:end]`` so coords < value come first.

        Returns the boundary index. Keeps ``points`` and ``indices``
        permutations in sync.
        """
        goes_left = self.points[start:end, axis] < value
        # O(m) two-block permutation: both blocks keep their original
        # relative order, exactly like the stable argsort this replaces
        # but without the O(m log m) sort.
        order = np.concatenate(
            (np.flatnonzero(goes_left), np.flatnonzero(~goes_left))
        )
        self.points[start:end] = self.points[start:end][order]
        self.indices[start:end] = self.indices[start:end][order]
        if self.point_weights is not None:
            self.point_weights[start:end] = self.point_weights[start:end][order]
        return start + int(np.count_nonzero(goes_left))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KDTree(n={self.size}, d={self.dim}, leaf_size={self.leaf_size}, "
            f"split={self.split_rule!r})"
        )
