"""Count- and bounding-box-augmented k-d tree (paper Section 3.1).

Construction permutes the input points into a contiguous array so that
every node owns a slice ``points[start:end]``; leaves can therefore be
evaluated with a single vectorized kernel call. Every node stores its
exact point count and a tight bounding box, the two quantities the
density-bounding traversal needs (Equation 6).

The tree is built level by level, straight into the structure-of-arrays
:class:`~repro.index.flat.FlatTree` the batch engine reads: one pass
splits every node of one depth at once, so a build costs a few dozen
numpy calls per level rather than several per node.

- Order statistics. Each axis is sorted once up front, giving every
  point a per-axis rank. A level's per-node order statistics then come
  from one ``np.sort`` of the integer keys ``node * n + rank`` (rank
  along the node's split axis).
- Split values. The rules in :mod:`repro.index.splitting` repeat numpy's
  percentile and median arithmetic element-wise, so every split value
  equals what ``np.percentile`` / ``np.median`` return for the node's
  coordinates (up to the sign of a zero, which no comparison sees).
- Fallbacks. A node tries its configured rule, then the median, then
  its box maximum, each as a masked pass over the nodes still unsplit; an
  axis whose extent is zero is skipped for the next one, and a node with
  no usable axis (all points identical) stays a leaf.
- Partition. Left (``coord < value``) before right, each block in its
  previous order (what a stable argsort on ``(node, goes_right)``
  gives); each point's new place comes from prefix counts of the
  left-going points.
- Boxes and ids. Child boxes are ``minimum``/``maximum.reduceat`` over
  the partitioned slices. Nodes are numbered level by level while
  building and renumbered to depth-first pre-order (root 0, left subtree
  first) from subtree sizes at the end.

The result is the same tree a node-at-a-time build produces: the same
permutation, boxes, splits and pre-order ids. ``Node`` objects (``root``,
:meth:`KDTree.iter_nodes`) are built from the arrays on first use, for
the per-query engine, the baselines and range queries; they are never
pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.index.boxes import box_kernel_bounds
from repro.index.flat import NO_CHILD, FlatTree, absorb_rows
from repro.index.splitting import SEGMENT_SPLIT_RULES, SPLIT_RULES, segment_median

#: Default number of points below which a node becomes a leaf.
DEFAULT_LEAF_SIZE = 32


class StaleTreeLayout(ValueError):
    """A pickled :class:`KDTree` predates the flat-array layout.

    Such a tree carries its ``Node`` objects instead of the arrays this
    version builds nodes from; the model it belongs to must be re-fit.
    """


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


class KDTree:
    """k-d tree over a fixed point set.

    Parameters
    ----------
    points:
        Finite array of shape ``(n, d)``. The tree keeps a copy in its
        node order; the original array is not modified.
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

        if not np.all(np.isfinite(points)):
            raise ValueError("cannot build a KDTree over non-finite points")

        order, nodes = _grow(np.ascontiguousarray(points), leaf_size, split_rule, axis_rule)
        self.points = np.take(points, order, axis=0)
        self.indices = order
        self.point_weights = None if weights is None else weights[order]
        self.leaf_size = leaf_size
        self.split_rule = split_rule
        self.axis_rule = axis_rule
        # Prefix sums over the permuted weights: any node's mass is an
        # O(1) slice difference, so ``Node`` itself stays weight-free.
        self._weight_prefix = (
            None
            if self.point_weights is None
            else np.concatenate(([0.0], np.cumsum(self.point_weights)))
        )
        count = nodes["end"] - nodes["start"]
        self._flat = FlatTree(
            points=self.points, lo=nodes["lo"], hi=nodes["hi"], count=count,
            start=nodes["start"], end=nodes["end"],
            left=nodes["left"], right=nodes["right"],
            node_weight=(
                count.astype(np.float64)
                if self._weight_prefix is None
                else self._weight_prefix[nodes["end"]] - self._weight_prefix[nodes["start"]]
            ),
            point_weights=self.point_weights,
        )
        #: Per-node depth, split axis (-1 at leaves) and split value (NaN
        #: at leaves), by pre-order id: what ``Node`` carries beyond the
        #: flat arrays.
        self._depth = nodes["depth"]
        self._split_dim = nodes["split_dim"]
        self._split_value = nodes["split_value"]
        self._root: Node | None = None

    def __getstate__(self) -> dict:
        # The linked ``Node`` objects are a cache over the arrays.
        state = self.__dict__.copy()
        state["_root"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        if "root" in state:
            raise StaleTreeLayout(
                "this KDTree was pickled with linked Node objects, the layout "
                "before trees were built into flat arrays; re-fit and re-save "
                "the model"
            )
        self.__dict__.update(state)

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

    def flatten(self) -> FlatTree:
        """The structure-of-arrays view consumed by the batch engine.

        Built with the tree (see :mod:`repro.index.flat`); the tree is
        immutable after construction, so the view never goes stale.
        """
        return self._flat

    @property
    def splits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node split axis (-1 at leaves) and split value (NaN at leaves)."""
        return self._split_dim, self._split_value

    def absorb(self, rows: np.ndarray, mass: float) -> FlatTree:
        """The flat view with extra ``rows`` routed into this tree's leaves.

        Each row descends by the tree's own splits and joins its leaf's
        slice; see :func:`~repro.index.flat.absorb_rows` for the layout
        and for ``mass``. The tree itself is unchanged, and zero rows
        return :meth:`flatten`'s view.
        """
        return absorb_rows(self._flat, *self.splits, rows, mass)

    @property
    def root(self) -> Node:
        """The root ``Node``, linked from the flat arrays on first use."""
        if self._root is None:
            self._root = self._link_nodes()
        return self._root

    def _link_nodes(self) -> Node:
        flat = self._flat
        nodes = [
            Node(lo=lo, hi=hi, start=start, end=end, depth=depth,
                 split_dim=split_dim, split_value=split_value)
            for lo, hi, start, end, depth, split_dim, split_value in zip(
                flat.lo, flat.hi, flat.start.tolist(), flat.end.tolist(),
                self._depth.tolist(), self._split_dim.tolist(), self._split_value.tolist(),
            )
        ]
        for parent, left, right in zip(
            np.flatnonzero(~flat.is_leaf).tolist(),
            flat.left[~flat.is_leaf].tolist(),
            flat.right[~flat.is_leaf].tolist(),
        ):
            nodes[parent].left = nodes[left]
            nodes[parent].right = nodes[right]
        return nodes[0]

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
        return int(self._depth.max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KDTree(n={self.size}, d={self.dim}, leaf_size={self.leaf_size}, "
            f"split={self.split_rule!r})"
        )


def _grow(
    points: np.ndarray, leaf_size: int, split_rule: str, axis_rule: str
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Build the tree over ``points`` level by level.

    Returns the permutation that makes every node's points a contiguous
    slice (``points[order][start:end]``) and the per-node arrays by
    pre-order id: ``start``, ``end``, ``lo``, ``hi``, ``left``,
    ``right``, ``depth``, ``split_dim`` and ``split_value``.
    """
    n, dim = points.shape
    flat_points = points.ravel()
    # rank[a * n + i]: position of point i in a sort along axis a;
    # ordered[a * n + r]: the axis-a coordinate at rank r.
    by_axis = np.argsort(points, axis=0).T
    ordered = np.take_along_axis(points.T, by_axis, axis=1).ravel()
    rank = np.empty((dim, n), dtype=np.int64)
    rank[np.arange(dim)[:, None], by_axis] = np.arange(n)
    rank = rank.ravel()
    value_rule = SEGMENT_SPLIT_RULES[split_rule]

    order = np.arange(n)
    # Nodes are numbered level by level here: ``records`` holds each
    # level's slices and boxes, ``levels`` the nodes of each level that
    # split, their axis and value, and their left children's ids.
    ids = np.zeros(1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    end = np.full(1, n, dtype=np.int64)
    lo = points.min(axis=0, keepdims=True)
    hi = points.max(axis=0, keepdims=True)
    records = [(start, end, lo, hi)]
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    n_nodes = 1
    depth = 0
    while True:
        # A node splits when it holds more than a leaf and has an axis of
        # non-zero extent; it takes the first such axis from the rule's
        # choice on.
        live = np.flatnonzero(end - start > leaf_size)
        if axis_rule == "cycle":
            first = np.full(live.size, depth % dim)
        else:
            first = np.argmax(hi[live] - lo[live], axis=1)
        rotated = (first[:, None] + np.arange(dim)) % dim
        usable = np.take_along_axis(hi[live] > lo[live], rotated, axis=1)
        splittable = usable.any(axis=1)
        splits = live[splittable]
        if splits.size == 0:
            break
        axis = np.take_along_axis(
            rotated[splittable], np.argmax(usable[splittable], axis=1)[:, None], axis=1
        )[:, 0]
        ids, start, end = ids[splits], start[splits], end[splits]
        box_hi = hi[splits, axis]
        k = splits.size
        sizes = end - start
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        segment = np.repeat(np.arange(k), sizes)
        pos = np.arange(offsets[-1]) + np.repeat(start - offsets[:-1], sizes)
        members = order[pos]
        point_axis = axis[segment]
        coords = flat_points[members * dim + point_axis]
        keys = segment * n + rank[point_axis * n + members]
        keys.sort()
        nodes = np.arange(k)

        def order_statistic(local: np.ndarray, which: np.ndarray = nodes) -> np.ndarray:
            ranks = keys[offsets[which] + local] - which * n
            return ordered[axis[which] * n + ranks]

        # The configured rule, then the median, then the box maximum (which
        # always separates a node whose axis has non-zero extent), each
        # only over the nodes the previous value left on one side.
        value = value_rule(order_statistic, sizes)
        goes_left = coords < value[segment]
        lefts = _prefix_counts(goes_left)
        n_left = lefts[offsets[1:]] - lefts[offsets[:-1]]
        for fallback in ("median", "hi"):
            stuck = np.flatnonzero((n_left == 0) | (n_left == sizes))
            if stuck.size == 0:
                break
            if fallback == "median":
                value[stuck] = segment_median(
                    lambda local: order_statistic(local, stuck), sizes[stuck]
                )
            else:
                value[stuck] = box_hi[stuck]
            redo = np.isin(segment, stuck)
            goes_left[redo] = coords[redo] < value[segment[redo]]
            lefts = _prefix_counts(goes_left)
            n_left = lefts[offsets[1:]] - lefts[offsets[:-1]]

        # Stable two-block partition of every node's slice: a point's new
        # place is its node's start plus the points of its own block
        # before it (plus the left block, for right-going points).
        node_start = np.repeat(offsets[:-1], sizes)
        lefts_before = lefts[:-1] - lefts[node_start]
        rights_before = np.arange(offsets[-1]) - node_start - lefts_before
        dest = node_start + np.where(
            goes_left, lefts_before, n_left[segment] + rights_before
        )
        members[dest] = members.copy()
        order[pos] = members

        mid = start + n_left
        cuts = np.column_stack((offsets[:-1], offsets[:-1] + n_left)).ravel()
        block = np.take(points, members, axis=0)  # ~10x faster than points[members]
        children = n_nodes + np.arange(2 * k)
        levels.append((ids, axis, value, children[0::2]))
        n_nodes += 2 * k
        ids = children
        start, end = np.column_stack((start, mid)).ravel(), np.column_stack((mid, end)).ravel()
        lo = np.minimum.reduceat(block, cuts, axis=0)
        hi = np.maximum.reduceat(block, cuts, axis=0)
        records.append((start, end, lo, hi))
        depth += 1

    # Level order -> pre-order: a node's left child follows it, and its
    # right child follows the whole left subtree.
    subtree = np.ones(n_nodes, dtype=np.int64)
    for parents, _, _, left in reversed(levels):
        subtree[parents] = 1 + subtree[left] + subtree[left + 1]
    preorder = np.zeros(n_nodes, dtype=np.int64)
    for parents, _, _, left in levels:
        preorder[left] = preorder[parents] + 1
        preorder[left + 1] = preorder[parents] + 1 + subtree[left]

    out = {
        "start": np.empty(n_nodes, dtype=np.int64),
        "end": np.empty(n_nodes, dtype=np.int64),
        "lo": np.empty((n_nodes, dim)),
        "hi": np.empty((n_nodes, dim)),
        "depth": np.empty(n_nodes, dtype=np.int64),
        "left": np.full(n_nodes, NO_CHILD, dtype=np.int64),
        "right": np.full(n_nodes, NO_CHILD, dtype=np.int64),
        "split_dim": np.full(n_nodes, -1, dtype=np.int64),
        "split_value": np.full(n_nodes, np.nan),
    }
    first_id = 0
    for level, (start, end, lo, hi) in enumerate(records):
        at = preorder[first_id : first_id + start.size]
        out["start"][at], out["end"][at] = start, end
        out["lo"][at], out["hi"][at] = lo, hi
        out["depth"][at] = level
        first_id += start.size
    for parents, axis, value, left in levels:
        at = preorder[parents]
        out["left"][at] = preorder[left]
        out["right"][at] = preorder[left + 1]
        out["split_dim"][at] = axis
        out["split_value"][at] = value
    return order, out


def _prefix_counts(flags: np.ndarray) -> np.ndarray:
    """``counts[k]``: the number of set ``flags`` before position ``k`` (length + 1)."""
    return np.concatenate(([0], np.cumsum(flags)))
