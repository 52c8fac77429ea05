"""Per-node reference k-d tree builder: the oracle for ``KDTree``.

This is the node-at-a-time construction :class:`repro.index.kdtree.KDTree`
used before it was vectorized level by level: a depth-first stack of
nodes, each split by ``_choose_split`` (configured rule, then median,
then the box maximum, then the next axis) and a stable two-block
``_partition``. It is kept here, outside the library, so tests can
require the level-by-level build to reproduce it bit for bit: the same
point permutation, the same boxes and splits, and the same pre-order
node ids.
"""

from __future__ import annotations

import numpy as np

from repro.index.flat import NO_CHILD
from repro.index.kdtree import Node
from repro.index.splitting import SPLIT_RULES, cycle_axis, widest_axis


class OracleTree:
    """Node-at-a-time build over a copy of ``points`` (same signature as ``KDTree``)."""

    def __init__(
        self,
        points: np.ndarray,
        leaf_size: int = 32,
        split_rule: str = "trimmed_midpoint",
        axis_rule: str = "cycle",
        weights: np.ndarray | None = None,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.points = points.copy()
        self.indices = np.arange(points.shape[0])
        self.point_weights = (
            None if weights is None else np.asarray(weights, dtype=np.float64).copy()
        )
        self.leaf_size = leaf_size
        self.axis_rule = axis_rule
        self._split_value = SPLIT_RULES[split_rule]
        self.root = self._build()

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def iter_nodes(self):
        """Every node in depth-first pre-order (the flat tree's id order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def _make_node(self, start: int, end: int, depth: int) -> Node:
        slab = self.points[start:end]
        return Node(lo=slab.min(axis=0), hi=slab.max(axis=0), start=start, end=end, depth=depth)

    def _build(self) -> Node:
        root = self._make_node(0, self.size, depth=0)
        pending = [root]
        while pending:
            node = pending.pop()
            if node.count <= self.leaf_size:
                continue
            split = self._choose_split(node, node.depth)
            if split is None:
                continue  # all points identical: stays a leaf
            axis, value, mid = split
            node.split_dim = axis
            node.split_value = value
            node.left = self._make_node(node.start, mid, node.depth + 1)
            node.right = self._make_node(mid, node.end, node.depth + 1)
            pending.append(node.left)
            pending.append(node.right)
        return root

    def _choose_split(self, node: Node, depth: int) -> tuple[int, float, int] | None:
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
            value = float(node.hi[axis])
            mid = self._partition(node.start, node.end, axis, value)
            if node.start < mid < node.end:
                return axis, value, mid
        return None

    def _partition(self, start: int, end: int, axis: int, value: float) -> int:
        """Stable two-block permutation of ``points[start:end]`` around ``value``."""
        goes_left = self.points[start:end, axis] < value
        order = np.concatenate((np.flatnonzero(goes_left), np.flatnonzero(~goes_left)))
        self.points[start:end] = self.points[start:end][order]
        self.indices[start:end] = self.indices[start:end][order]
        if self.point_weights is not None:
            self.point_weights[start:end] = self.point_weights[start:end][order]
        return start + int(np.count_nonzero(goes_left))

    def flat_arrays(self) -> dict[str, np.ndarray]:
        """The ``FlatTree`` arrays, walked from the nodes in pre-order."""
        nodes = list(self.iter_nodes())
        ids = {id(node): i for i, node in enumerate(nodes)}
        left = np.full(len(nodes), NO_CHILD, dtype=np.int64)
        right = np.full(len(nodes), NO_CHILD, dtype=np.int64)
        for i, node in enumerate(nodes):
            if not node.is_leaf:
                left[i] = ids[id(node.left)]
                right[i] = ids[id(node.right)]
        start = np.array([node.start for node in nodes], dtype=np.int64)
        end = np.array([node.end for node in nodes], dtype=np.int64)
        if self.point_weights is None:
            node_weight = (end - start).astype(np.float64)
        else:
            prefix = np.concatenate(([0.0], np.cumsum(self.point_weights)))
            node_weight = prefix[end] - prefix[start]
        return {
            "lo": np.array([node.lo for node in nodes]),
            "hi": np.array([node.hi for node in nodes]),
            "count": end - start,
            "start": start,
            "end": end,
            "left": left,
            "right": right,
            "node_weight": node_weight,
        }
