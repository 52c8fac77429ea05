"""Algorithm 2: priority-queue density bounding over the k-d tree.

Maintains a running interval ``[f_l, f_u]`` that always contains the true
kernel density ``f(x_q)``. Tree nodes in the frontier each contribute
``count/n * K(d_max^2)`` to the lower bound and ``count/n * K(d_min^2)``
to the upper bound (Equation 7). Iteratively replacing the frontier node
with the largest bound discrepancy by its children (or its exact leaf
sum) tightens the interval until a pruning rule fires or the tree is
exhausted — at which point the interval has collapsed to the exact
density.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.pruning import PruneOutcome, check_rules
from repro.core.stats import TraversalStats
from repro.index.boxes import box_kernel_bounds, min_sq_dist
from repro.index.kdtree import KDTree, Node
from repro.kernels.base import Kernel
from repro.obs.metrics import record_traversal
from repro.robustness.faults import FaultInjector
from repro.robustness.guards import (
    escalate,
    guard_interval,
    guard_value_in_interval,
)

#: ``stats.extras`` keys for degradation events.
BUDGET_STOPS_KEY = "budget_stops"
EXACT_FALLBACKS_KEY = "guard_exact_fallbacks"

#: Engine label this module reports under (see ``repro.obs.metrics``).
ENGINE_LABEL = "per-query"

#: Frontier orderings. "discrepancy" is the paper's rule (Section 3.4):
#: expand the node whose bounds are loosest. The others exist for the
#: priority-ordering ablation bench.
PRIORITY_ORDERS = ("discrepancy", "nearest", "fifo", "lifo")


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one density-bounding traversal.

    ``degraded`` marks best-effort results: the traversal stopped on an
    anytime budget (or an exact guard fallback collapsed it) before any
    pruning rule fired. The interval is still a valid bound on the
    density — possibly a loose one.
    """

    lower: float
    upper: float
    outcome: PruneOutcome | None  # None means the tree was exhausted
    degraded: bool = False

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _node_bounds(
    node: Node, query: np.ndarray, kernel: Kernel, inv_n: float
) -> tuple[float, float]:
    """(lower, upper) density contribution of a k-d node's points (Eq. 6).

    Thin alias over :func:`repro.index.boxes.box_kernel_bounds`, kept
    for callers that are explicitly box-based (the nocut baseline).
    """
    return box_kernel_bounds(node.lo, node.hi, node.count, query, kernel, inv_n)


def bound_density(
    tree: KDTree,
    kernel: Kernel,
    query: np.ndarray,
    t_lower: float,
    t_upper: float,
    epsilon: float,
    stats: TraversalStats,
    use_threshold_rule: bool = True,
    use_tolerance_rule: bool = True,
    priority: str = "discrepancy",
    tolerance_reference: float | None = None,
    threshold_shift: float = 0.0,
    eta: float = 0.0,
    max_expansions: int | None = None,
    guard_policy: str = "off",
    faults: FaultInjector | None = None,
    trace=None,
    trace_index: int = 0,
) -> BoundResult:
    """Bound the kernel density of one query point (paper Algorithm 2).

    Parameters
    ----------
    tree:
        Spatial index built over *bandwidth-scaled* training
        coordinates — a :class:`~repro.index.kdtree.KDTree` or any
        index exposing the same surface (``size``, ``root``,
        ``leaf_points``, ``node_bounds``), e.g.
        :class:`~repro.index.balltree.BallTree`. The "nearest" priority
        requires box nodes.
    kernel:
        The kernel the tree's densities are measured under.
    query:
        One query point in bandwidth-scaled space, shape ``(d,)``.
    t_lower, t_upper:
        Current bounds on the classification threshold ``t(p)``. Pass the
        same value for both once a point estimate is available
        (Algorithm 1 does exactly that at classification time).
    epsilon:
        The multiplicative tolerance from Problem 1.
    stats:
        Counter sink; mutated in place.
    use_threshold_rule, use_tolerance_rule:
        Pruning-rule toggles (the Figure 12/16 ablations).
    priority:
        Frontier ordering; see :data:`PRIORITY_ORDERS`.
    tolerance_reference:
        Optional anchor for the tolerance rule's width target
        (``epsilon * tolerance_reference`` instead of
        ``epsilon * t_lower``).
    threshold_shift:
        Post-margin additive offset to the threshold rule's edges.
        Together with ``tolerance_reference`` this expresses pruning in
        self-contribution-corrected space when scoring training points;
        see :func:`repro.core.pruning.threshold_rule`.
    eta:
        Coreset sup-norm slack: the density interval is widened to
        ``(f_l - eta, f_u + eta)`` before both pruning rules, so prunes
        stay valid for the full-data density when the tree indexes a
        coreset with ``sup |f_X - f_S| <= eta`` (see
        :mod:`repro.coresets`). The returned interval still bounds the
        *coreset* density ``f_S``; callers widen it by ``eta`` when they
        need an ``f_X`` claim.
    max_expansions:
        Anytime budget: after this many node expansions the traversal
        stops with its current (valid, possibly vacuous) interval and
        ``degraded=True`` instead of running to a prune or exhaustion.
        ``None`` leaves it unbounded.
    guard_policy:
        Invariant-guard policy (see :mod:`repro.robustness.guards`):
        node contributions and leaf sums are checked for finiteness,
        ordering, and envelope containment, and the running accumulator
        for finiteness, with ``"raise"``/``"repair"``/``"warn"``
        handling. ``"off"`` (default here; the classifier passes its
        configured policy) skips all checks. A non-finite accumulator
        under a repairing policy falls back to one exact O(n) density
        evaluation — degraded never means wrong.
    faults:
        Optional deterministic fault injector (tests only); corrupts
        planned node bounds and leaf sums before the guards see them.
    trace, trace_index:
        Optional :class:`~repro.obs.trace.TraceRecorder` (or view) that
        receives this query's bound trajectory and terminating rule
        under index ``trace_index``. Recording is purely additive — no
        arithmetic changes, so labels are identical with or without it.

    Returns
    -------
    A :class:`BoundResult` whose interval is guaranteed to contain the
    exact density ``f(query)`` under the indexed (possibly weighted)
    point set.
    """
    if t_lower > t_upper:
        raise ValueError(f"t_lower {t_lower} exceeds t_upper {t_upper}")
    if priority not in PRIORITY_ORDERS:
        raise ValueError(f"unknown priority {priority!r}; choose from {PRIORITY_ORDERS}")

    query = np.asarray(query, dtype=np.float64)
    # Weighted trees (coresets) normalize by total mass, not point count;
    # for ordinary trees the two coincide exactly.
    inv_n = 1.0 / getattr(tree, "total_weight", tree.size)
    point_weights = getattr(tree, "point_weights", None)
    counter = itertools.count()
    stats.queries += 1
    guarded = guard_policy != "off"
    if faults is not None and not faults.plan.targets_traversal:
        faults = None
    expansions_used = 0
    kernels_start = stats.kernel_evaluations

    def exact_fallback() -> BoundResult:
        """Brute-force density after an unrepairable accumulator: exact."""
        exact = kernel.sum_at(tree.points, query, point_weights) * inv_n
        stats.extras[EXACT_FALLBACKS_KEY] = (
            stats.extras.get(EXACT_FALLBACKS_KEY, 0.0) + 1.0
        )
        record_traversal(
            ENGINE_LABEL, "exact", expansions_used,
            stats.kernel_evaluations - kernels_start,
        )
        if trace is not None:
            trace.stop(
                trace_index, "exact",
                f_lower=exact, f_upper=exact, expansions=expansions_used,
            )
        return BoundResult(exact, exact, None)

    def node_envelope(node: Node) -> float:
        """A-priori ceiling on a node's density contribution."""
        mass = (
            tree.node_weight(node)
            if hasattr(tree, "node_weight")
            else float(node.count)
        )
        return mass * inv_n * kernel.max_value

    def rank(node: Node, lower: float, upper: float) -> float:
        if priority == "discrepancy":
            return -(upper - lower)  # biggest improvement potential first
        if priority == "nearest":
            return min_sq_dist(query, node.lo, node.hi)
        if priority == "fifo":
            return 0.0  # seq tie-breaker makes this insertion order
        return -float(next(counter))  # lifo: most recent first

    node_bounds = tree.node_bounds  # index-family dispatch (k-d or ball)
    root_lower, root_upper = node_bounds(tree.root, query, kernel, inv_n)
    if faults is not None:
        root_lower, root_upper = faults.corrupt_bounds(root_lower, root_upper)
    if guarded:
        root_lower, root_upper = guard_interval(
            root_lower, root_upper, guard_policy, stats, site="node",
            ceiling=node_envelope(tree.root),
        )
    f_lower, f_upper = root_lower, root_upper
    if trace is not None:
        trace.step(trace_index, f_lower, f_upper)
    frontier: list[tuple[float, int, Node, float, float]] = []
    heapq.heappush(
        frontier, (rank(tree.root, root_lower, root_upper), next(counter), tree.root,
                   root_lower, root_upper)
    )

    while frontier:
        if guarded and not (np.isfinite(f_lower) and np.isfinite(f_upper)):
            # The running accumulator cannot be repaired locally (its
            # frontier bookkeeping is lost); the sound recovery is one
            # exact evaluation.
            escalate(
                guard_policy, "accumulator",
                f"running interval [{f_lower}, {f_upper}] is non-finite", stats,
            )
            return exact_fallback()
        outcome = check_rules(
            f_lower, f_upper, t_lower, t_upper, epsilon,
            use_threshold_rule=use_threshold_rule,
            use_tolerance_rule=use_tolerance_rule,
            tolerance_reference=tolerance_reference,
            threshold_shift=threshold_shift,
            eta=eta,
        )
        if outcome is not None:
            _record_outcome(stats, outcome)
            record_traversal(
                ENGINE_LABEL, outcome.value, expansions_used,
                stats.kernel_evaluations - kernels_start,
            )
            if trace is not None:
                trace.stop(
                    trace_index, outcome.value,
                    f_lower=f_lower, f_upper=f_upper, expansions=expansions_used,
                )
            return BoundResult(f_lower, f_upper, outcome)
        if max_expansions is not None and expansions_used >= max_expansions:
            # Anytime budget exhausted: stop with the current valid
            # interval and an explicit degraded marker.
            stats.extras[BUDGET_STOPS_KEY] = (
                stats.extras.get(BUDGET_STOPS_KEY, 0.0) + 1.0
            )
            record_traversal(
                ENGINE_LABEL, "budget", expansions_used,
                stats.kernel_evaluations - kernels_start,
            )
            if trace is not None:
                trace.stop(
                    trace_index, "budget",
                    f_lower=min(f_lower, f_upper), f_upper=max(f_lower, f_upper),
                    expansions=expansions_used,
                )
            return BoundResult(
                min(f_lower, f_upper), max(f_lower, f_upper), None, degraded=True
            )

        __, __, node, node_lower, node_upper = heapq.heappop(frontier)
        f_lower -= node_lower
        f_upper -= node_upper

        if node.is_leaf:
            points = tree.leaf_points(node)
            weights = None if point_weights is None else point_weights[node.start : node.end]
            exact = kernel.sum_at(points, query, weights) * inv_n
            stats.kernel_evaluations += node.count
            if faults is not None:
                exact = faults.corrupt_leaf(exact)
            if guarded:
                # The exact sum must land inside the box bounds this
                # leaf was popped with (catches silent underflow).
                exact = guard_value_in_interval(
                    exact, node_lower, node_upper, guard_policy, stats, site="leaf"
                )
            f_lower += exact
            f_upper += exact
        else:
            stats.node_expansions += 1
            expansions_used += 1
            for child in node.children():
                child_lower, child_upper = node_bounds(child, query, kernel, inv_n)
                if faults is not None:
                    child_lower, child_upper = faults.corrupt_bounds(
                        child_lower, child_upper
                    )
                if guarded:
                    child_lower, child_upper = guard_interval(
                        child_lower, child_upper, guard_policy, stats, site="node",
                        ceiling=node_envelope(child),
                    )
                f_lower += child_lower
                f_upper += child_upper
                if child_upper - child_lower > 0.0:
                    heapq.heappush(
                        frontier,
                        (rank(child, child_lower, child_upper), next(counter), child,
                         child_lower, child_upper),
                    )
        if trace is not None:
            trace.step(trace_index, f_lower, f_upper)

    # Tree exhausted: the interval has collapsed to the exact density
    # (up to floating-point accumulation).
    stats.exhausted += 1
    f_lower, f_upper = min(f_lower, f_upper), max(f_lower, f_upper)
    record_traversal(
        ENGINE_LABEL, "exhausted", expansions_used,
        stats.kernel_evaluations - kernels_start,
    )
    if trace is not None:
        trace.stop(
            trace_index, "exhausted",
            f_lower=f_lower, f_upper=f_upper, expansions=expansions_used,
        )
    return BoundResult(f_lower, f_upper, None)


def _record_outcome(stats: TraversalStats, outcome: PruneOutcome) -> None:
    if outcome is PruneOutcome.THRESHOLD_HIGH:
        stats.threshold_prunes_high += 1
    elif outcome is PruneOutcome.THRESHOLD_LOW:
        stats.threshold_prunes_low += 1
    else:
        stats.tolerance_prunes += 1
