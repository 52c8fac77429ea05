"""The batch engine's round loop before its per-round cost was cut: the oracle.

This is :func:`repro.core.batch_bounds.bound_densities` as it ran with a
few dozen numpy calls per frontier round (per-mask rule checks, an
eagerly built guard ceiling, separate lower/upper child sweeps through
``pair_box_bounds``). It is kept here, outside the library, so tests can
require the leaner round loop to reproduce it bit for bit: the same
pops, rule order, bounds, counters, fault ordinals and trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_bounds import (
    _EXACT,
    _EXHAUSTED,
    _RULE_BY_CODE,
    DEFAULT_BLOCK_SIZE,
    ENGINE_LABEL,
    OUTCOME_BUDGET,
    OUTCOME_NONE,
    OUTCOME_THRESHOLD_HIGH,
    OUTCOME_THRESHOLD_LOW,
    OUTCOME_TOLERANCE,
    BatchBoundResult,
)
from repro.core.bounds import BUDGET_STOPS_KEY, EXACT_FALLBACKS_KEY
from repro.core.stats import TraversalStats
from repro.index.flat import FlatTree
from repro.kernels.base import Kernel
from repro.obs.metrics import record_traversal_block
from repro.obs.registry import REGISTRY
from repro.robustness.faults import FaultInjector
from repro.robustness.guards import (
    escalate,
    guard_interval_arrays,
    guard_values_in_intervals,
)

#: Evaluations the oracle's leaf sweep gathers per chunk.
_MAX_LEAF_EVALS = 16_384


def oracle_bound_densities(
    flat: FlatTree,
    kernel: Kernel,
    queries: np.ndarray,
    t_lower: float | np.ndarray,
    t_upper: float | np.ndarray,
    epsilon: float,
    stats: TraversalStats,
    use_threshold_rule: bool = True,
    use_tolerance_rule: bool = True,
    tolerance_reference: float | None = None,
    threshold_shift: float = 0.0,
    eta: float = 0.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_expansions: int | None = None,
    guard_policy: str = "off",
    faults: FaultInjector | None = None,
    trace=None,
) -> BatchBoundResult:
    """Bound the kernel density of every query (batched Algorithm 2).

    Parameters mirror :func:`repro.core.bounds.bound_density`, with a
    ``(q, d)`` query block instead of one point and a
    :class:`~repro.index.flat.FlatTree` instead of the pointer tree.
    Only the paper's "discrepancy" frontier priority is supported (the
    alternative orderings exist solely for the per-query ablation
    bench). ``eta`` widens the density interval by the coreset sup-norm
    slack before both pruning rules, exactly as in
    :func:`repro.core.pruning.check_rules`; weighted (coreset) trees are
    handled transparently via ``flat.node_weight``/``flat.point_weights``.

    ``max_expansions``, ``guard_policy`` and ``faults`` mirror
    :func:`repro.core.bounds.bound_density`: a per-query anytime budget
    (stopped queries come back with ``OUTCOME_BUDGET`` and
    ``degraded=True``), vectorized invariant guards at the node, leaf
    and accumulator sites, and deterministic fault injection for tests.

    ``t_lower``/``t_upper`` are scalars or ``(q,)`` arrays. With arrays,
    each query is pruned against its own threshold rule edges (Algorithm
    2 applies per query; the streaming path shifts the threshold per row
    by that row's exact buffer contribution). The tolerance width stays
    one scalar, ``epsilon * tolerance_reference``, which per-query
    thresholds therefore require.

    ``trace`` is an optional :class:`~repro.obs.trace.TraceRecorder`
    (or view) indexed by position in ``queries``; recording is purely
    additive and changes no arithmetic.

    Returns
    -------
    A :class:`BatchBoundResult` whose intervals each contain the exact
    density of the corresponding query.
    """
    scalar = np.ndim(t_lower) == 0 and np.ndim(t_upper) == 0
    if scalar and t_lower > t_upper:
        raise ValueError(f"t_lower {t_lower} exceeds t_upper {t_upper}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")

    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    q = queries.shape[0]
    if not scalar:
        if tolerance_reference is None:
            raise ValueError("per-query thresholds need a scalar tolerance_reference")
        t_lower, t_upper = (
            np.broadcast_to(np.asarray(t, dtype=np.float64), (q,))
            for t in (t_lower, t_upper)
        )
        inverted = np.flatnonzero(t_lower > t_upper)
        if inverted.size:
            row = inverted[0]
            raise ValueError(
                f"t_lower {t_lower[row]} exceeds t_upper {t_upper[row]} at query {row}"
            )
    lower = np.empty(q)
    upper = np.empty(q)
    codes = np.zeros(q, dtype=np.int8)
    degraded = np.zeros(q, dtype=bool)
    if faults is not None and not faults.plan.targets_traversal:
        faults = None
    for begin in range(0, q, block_size):
        stop = min(begin + block_size, q)
        block_trace = None if trace is None else trace.view(range(begin, stop))
        block_lower, block_upper = (
            (t_lower, t_upper) if scalar
            else (t_lower[begin:stop], t_upper[begin:stop])
        )
        _bound_block(
            flat, kernel, queries[begin:stop], block_lower, block_upper, epsilon, stats,
            use_threshold_rule, use_tolerance_rule, tolerance_reference,
            threshold_shift, eta,
            lower[begin:stop], upper[begin:stop], codes[begin:stop],
            degraded[begin:stop], max_expansions, guard_policy, faults,
            block_trace,
        )
    return BatchBoundResult(
        lower=lower, upper=upper, outcome_codes=codes, degraded=degraded
    )


def _bound_block(
    flat: FlatTree,
    kernel: Kernel,
    queries: np.ndarray,
    t_lower: float | np.ndarray,
    t_upper: float | np.ndarray,
    epsilon: float,
    stats: TraversalStats,
    use_threshold_rule: bool,
    use_tolerance_rule: bool,
    tolerance_reference: float | None,
    threshold_shift: float,
    eta: float,
    out_lower: np.ndarray,
    out_upper: np.ndarray,
    out_codes: np.ndarray,
    out_degraded: np.ndarray,
    max_expansions: int | None,
    guard_policy: str,
    faults: FaultInjector | None,
    trace=None,
) -> None:
    """Run the packed-frontier traversal for one block of queries."""
    n_queries = queries.shape[0]
    if n_queries == 0:
        return
    inv_n = 1.0 / flat.total_weight
    stats.queries += n_queries
    guarded = guard_policy != "off"
    kernel_ceiling = kernel.max_value
    kernels_start = stats.kernel_evaluations
    # Retirements by code, for the registry; out_codes alone cannot
    # distinguish exhausted from exact-fallback (both OUTCOME_NONE).
    retired = np.zeros(len(_RULE_BY_CODE), dtype=np.int64)
    expansions_out = np.zeros(n_queries, dtype=np.int64)

    def guard_pair(node_ids, pair_lower, pair_upper):
        """Inject faults into and guard one (query, node) bound sweep."""
        if faults is not None:
            pair_lower, pair_upper = faults.corrupt_bounds_array(pair_lower, pair_upper)
        if guarded:
            pair_lower, pair_upper, __ = guard_interval_arrays(
                pair_lower, pair_upper, guard_policy, stats, site="node",
                ceiling=flat.node_weight[node_ids] * (inv_n * kernel_ceiling),
            )
        return pair_lower, pair_upper

    # Rule edges are loop constants (identical expressions to
    # repro.core.pruning.threshold_rule / tolerance_rule, including the
    # eta widening — `f_l - eta > edge` is applied as `f_l > edge + eta`).
    # Per-query thresholds make them per-row arrays, packed with `rows`.
    high_edge = t_upper * (1.0 + epsilon) + threshold_shift + eta
    low_edge = t_lower * (1.0 - epsilon) + threshold_shift - eta
    per_query_edges = np.ndim(high_edge) > 0
    reference = t_lower if tolerance_reference is None else tolerance_reference
    tolerance_width = epsilon * reference - 2.0 * eta

    root_ids = np.zeros(n_queries, dtype=np.int64)
    root_lower, root_upper = pair_box_bounds(flat, root_ids, queries, kernel, inv_n)
    root_lower, root_upper = guard_pair(root_ids, root_lower, root_upper)
    if trace is not None:
        for row in range(n_queries):
            trace.step(row, float(root_lower[row]), float(root_upper[row]))

    # Per-query state is packed to the live queries: `rows` maps packed
    # position -> row of the block, and every array below is compressed
    # only in rounds where some query retires.
    rows = np.arange(n_queries)
    frow = np.arange(n_queries)  # frontier row of each live query
    live_queries = queries
    f_lower = root_lower.copy()
    f_upper = root_upper.copy()
    used = np.zeros(n_queries, dtype=np.int64)
    # Append-only frontier, one row per query: round r writes its
    # left/right children to columns `end`, `end + 1`, so column order is
    # insertion order and argmin's first-minimum rule reproduces the
    # reference heap's (discrepancy, seq) tie-break. A popped or unpushed
    # slot has rank +inf; dead slots are stable-packed away only when the
    # columns run out, and retired queries' rows once they are the majority.
    capacity = 64
    fr_node = np.zeros((n_queries, capacity), dtype=np.int64)
    fr_lower = np.zeros((n_queries, capacity))
    fr_upper = np.zeros((n_queries, capacity))
    fr_rank = np.full((n_queries, capacity), np.inf)
    fr_lower[:, 0] = root_lower
    fr_upper[:, 0] = root_upper
    fr_rank[:, 0] = root_lower - root_upper
    end = 1

    while rows.size:
        slot = frow * capacity + fr_rank[:, :end].argmin(axis=1)[frow]
        # --- retirements, with the reference engine's precedence:
        # exhausted frontier, non-finite accumulator (guarded), threshold
        # HIGH, threshold LOW, tolerance, then the anytime budget.
        exhausted = fr_rank.take(slot) == np.inf
        stop = exhausted.copy()
        if guarded:
            broken = ~(np.isfinite(f_lower) & np.isfinite(f_upper))
            stop |= broken
        if use_threshold_rule:
            high = f_lower > high_edge
            low = f_upper < low_edge
            stop |= high | low
        if use_tolerance_rule:
            tolerance = f_upper - f_lower < tolerance_width
            stop |= tolerance
        if max_expansions is not None:
            over = used >= max_expansions
            stop |= over
        if np.count_nonzero(stop):
            code = np.zeros(rows.size, dtype=np.int8)
            if max_expansions is not None:
                code[over] = OUTCOME_BUDGET
            if use_tolerance_rule:
                code[tolerance] = OUTCOME_TOLERANCE
            if use_threshold_rule:
                code[low] = OUTCOME_THRESHOLD_LOW
                code[high] = OUTCOME_THRESHOLD_HIGH
            if guarded:
                code[broken] = _EXACT
            code[exhausted] = _EXHAUSTED
            done = rows[stop]
            done_code = code[stop]
            done_lower = f_lower[stop]
            done_upper = f_upper[stop]
            counts = np.bincount(done_code, minlength=len(_RULE_BY_CODE))
            retired += counts
            # Exhausted and budget stops report the ordered interval,
            # rule prunes the raw one.
            ordered = (done_code == _EXHAUSTED) | (done_code == OUTCOME_BUDGET)
            out_lower[done] = np.where(ordered, np.minimum(done_lower, done_upper), done_lower)
            out_upper[done] = np.where(ordered, np.maximum(done_lower, done_upper), done_upper)
            out_codes[done] = np.where(done_code < _EXACT, done_code, OUTCOME_NONE)
            expansions_out[done] = used[stop]
            stats.exhausted += int(counts[_EXHAUSTED])
            if counts[_EXACT]:
                # A non-finite running interval has lost its frontier
                # bookkeeping; the sound recovery is one exact
                # evaluation per affected query.
                exact_rows = done[done_code == _EXACT]
                escalate(
                    guard_policy, "accumulator",
                    f"{exact_rows.size} non-finite running interval(s)", stats,
                    count=exact_rows.size,
                )
                exact = _exact_full_sums(flat, kernel, queries[exact_rows], inv_n)
                out_lower[exact_rows] = exact
                out_upper[exact_rows] = exact
                stats.extras[EXACT_FALLBACKS_KEY] = (
                    stats.extras.get(EXACT_FALLBACKS_KEY, 0.0) + exact_rows.size
                )
            stats.threshold_prunes_high += int(counts[OUTCOME_THRESHOLD_HIGH])
            stats.threshold_prunes_low += int(counts[OUTCOME_THRESHOLD_LOW])
            stats.tolerance_prunes += int(counts[OUTCOME_TOLERANCE])
            if counts[OUTCOME_BUDGET]:
                out_degraded[done[done_code == OUTCOME_BUDGET]] = True
                stats.extras[BUDGET_STOPS_KEY] = (
                    stats.extras.get(BUDGET_STOPS_KEY, 0.0) + int(counts[OUTCOME_BUDGET])
                )
            if trace is not None:
                for row, rule_code in zip(done, done_code):
                    trace.stop(
                        int(row), _RULE_BY_CODE[rule_code],
                        f_lower=float(out_lower[row]), f_upper=float(out_upper[row]),
                        expansions=int(expansions_out[row]),
                    )
            keep = ~stop
            rows, live_queries, f_lower, f_upper, used, frow, slot = (
                array[keep]
                for array in (rows, live_queries, f_lower, f_upper, used, frow, slot)
            )
            if per_query_edges:
                high_edge, low_edge = high_edge[keep], low_edge[keep]
            if not rows.size:
                break
            if 2 * rows.size <= fr_rank.shape[0]:
                fr_node, fr_lower, fr_upper, fr_rank = (
                    array[frow] for array in (fr_node, fr_lower, fr_upper, fr_rank)
                )
                frow = np.arange(rows.size)
                slot = frow * capacity + slot % capacity

        # --- pop the loosest frontier entry of every live query.
        node_sel = fr_node.take(slot)
        lower_sel = fr_lower.take(slot)
        upper_sel = fr_upper.take(slot)
        fr_rank.put(slot, np.inf)
        f_lower -= lower_sel
        f_upper -= upper_sel

        left = flat.left[node_sel]
        is_leaf = left < 0

        # --- leaves: exact kernel sums for every (query, leaf) pair in one
        # gathered sweep over all their leaf points.
        leaf_pos = is_leaf.nonzero()[0]
        if leaf_pos.size:
            leaf_nodes = node_sel[leaf_pos]
            stats.kernel_evaluations += int(flat.count[leaf_nodes].sum())
            exact = _leaf_exact_sums(flat, kernel, leaf_nodes, live_queries[leaf_pos], inv_n)
            if faults is not None:
                exact = faults.corrupt_leaves_array(exact)
            if guarded:
                # Exact sums must land inside the box bounds each leaf
                # was popped with (catches silent underflow).
                exact = guard_values_in_intervals(
                    exact, lower_sel[leaf_pos], upper_sel[leaf_pos], guard_policy,
                    stats, site="leaf",
                )
            f_lower[leaf_pos] += exact
            f_upper[leaf_pos] += exact

        # --- internal nodes: bound both children of every popped node in
        # one sweep, left pairs first (the fault ordinals and the
        # `f += left; f += right` order of the reference engine).
        if leaf_pos.size < rows.size:
            int_pos = (~is_leaf).nonzero()[0]
            k = int_pos.size
            stats.node_expansions += k
            used[int_pos] += 1
            pair_pos = np.concatenate((int_pos, int_pos))
            child_ids = np.concatenate((left[int_pos], flat.right[node_sel[int_pos]]))
            child_lower, child_upper = pair_box_bounds(
                flat, child_ids, live_queries[pair_pos], kernel, inv_n
            )
            child_lower, child_upper = guard_pair(child_ids, child_lower, child_upper)
            f_lower[int_pos] += child_lower[:k]
            f_upper[int_pos] += child_upper[:k]
            f_lower[int_pos] += child_lower[k:]
            f_upper[int_pos] += child_upper[k:]

            if end + 2 > capacity:
                fr_node, fr_lower, fr_upper, fr_rank, end, capacity = _pack_frontier(
                    fr_node, fr_lower, fr_upper, fr_rank, frow, end
                )
                frow = np.arange(rows.size)
            # Only children with a positive-width interval are pushed.
            rank = child_lower - child_upper
            rank[~(rank < 0.0)] = np.inf
            cells = frow[pair_pos] * capacity + end
            cells[k:] += 1
            fr_node.put(cells, child_ids)
            fr_lower.put(cells, child_lower)
            fr_upper.put(cells, child_upper)
            fr_rank.put(cells, rank)
            end += 2

        if trace is not None:
            for pos, row in enumerate(rows):
                trace.step(int(row), float(f_lower[pos]), float(f_upper[pos]))

    if REGISTRY.enabled:
        record_traversal_block(
            ENGINE_LABEL,
            {_RULE_BY_CODE[code]: int(retired[code]) for code in range(1, len(_RULE_BY_CODE))},
            expansions_out,
            stats.kernel_evaluations - kernels_start,
        )


def _leaf_exact_sums(
    flat: FlatTree,
    kernel: Kernel,
    leaf_nodes: np.ndarray,
    leaf_queries: np.ndarray,
    inv_n: float,
) -> np.ndarray:
    """Exact leaf contributions for (query, leaf) pairs, every leaf at once.

    Every (pair, leaf point) evaluation is gathered into flat arrays and
    swept once: squared distance, kernel value, point weight. Pairs are
    ordered by leaf size (skipped when all sizes agree) and each run of
    ``k`` pairs on ``m``-point leaves reduces as one ``(k, m)`` row sum,
    the same per-row pairwise reduction as a per-leaf distance matrix, so
    the sums are bit-identical to it. Gathers go in chunks of about
    :data:`_MAX_LEAF_EVALS` evaluations, each ending on a whole pair.
    """
    counts = flat.count.take(leaf_nodes)
    one_size = counts.min() == counts.max()
    if not one_size:
        order = counts.argsort(kind="stable")
        leaf_nodes, counts = leaf_nodes.take(order), counts.take(order)
        leaf_queries = leaf_queries.take(order, axis=0)
    firsts = counts.cumsum() - counts  # each pair's first evaluation
    # Point index of evaluation e of a pair is start + (e - first).
    shifts = flat.start.take(leaf_nodes) - firsts
    cuts = [0, counts.size]
    if firsts[-1] >= _MAX_LEAF_EVALS:
        block = firsts // _MAX_LEAF_EVALS
        cuts[1:1] = ((block[1:] != block[:-1]).nonzero()[0] + 1).tolist()
    sums = np.empty(counts.size)
    for lo, hi in zip(cuts, cuts[1:]):
        chunk = counts[lo:hi]
        points = np.repeat(shifts[lo:hi], chunk)
        points += np.arange(firsts[lo], firsts[lo] + points.size)
        diffs = np.repeat(leaf_queries[lo:hi], chunk, axis=0)
        diffs -= flat.points.take(points, axis=0)
        values = kernel.value(np.einsum("td,td->t", diffs, diffs))
        if flat.point_weights is not None:
            values *= flat.point_weights.take(points)
        runs = [] if one_size else ((chunk[1:] != chunk[:-1]).nonzero()[0] + 1).tolist()
        at = 0
        for a, b in zip([0, *runs], [*runs, chunk.size]):
            m = int(chunk[a])
            sums[lo + a : lo + b] = values[at : at + (b - a) * m].reshape(b - a, m).sum(axis=1)
            at += (b - a) * m
    sums *= inv_n
    if one_size:
        return sums
    unsorted = np.empty_like(sums)
    unsorted[order] = sums
    return unsorted


def _exact_full_sums(
    flat: FlatTree, kernel: Kernel, rows: np.ndarray, inv_n: float
) -> np.ndarray:
    """Brute-force exact densities for a few queries (guard fallback)."""
    return kernel.sums_at(flat.points, rows, flat.point_weights) * inv_n


def _pack_frontier(
    fr_node: np.ndarray,
    fr_lower: np.ndarray,
    fr_upper: np.ndarray,
    fr_rank: np.ndarray,
    frow: np.ndarray,
    end: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Stable-pack the live slots of frontier rows ``frow`` to the left.

    Rows come back in ``frow`` order; live slots keep their relative (insertion) order, so the argmin
    tie-break is unchanged. Returns the packed arrays, the new column
    count in use, and the capacity, doubled until the packed frontier
    fills at most half of it.
    """
    live = fr_rank[frow, :end] != np.inf
    order = np.argsort(~live, axis=1, kind="stable")
    new_end = max(int(live.sum(axis=1).max()), 1)
    capacity = fr_rank.shape[1]
    while 2 * (new_end + 2) > capacity:
        capacity *= 2
    packed = []
    for array, fill in ((fr_node, 0), (fr_lower, 0.0), (fr_upper, 0.0), (fr_rank, np.inf)):
        grown = np.full((frow.size, capacity), fill, dtype=array.dtype)
        grown[:, :new_end] = np.take_along_axis(array[frow, :end], order[:, :new_end], axis=1)
        packed.append(grown)
    return (*packed, new_end, capacity)


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
    at ``queries[i]``. One numpy sweep computes the min- and
    max-distance vectors of every pair (the batched analogue of
    :func:`repro.index.boxes.box_kernel_bounds`), then two vectorized
    kernel profile calls bound all contributions at once.
    """
    below = flat.lo[node_ids] - queries
    above = queries - flat.hi[node_ids]
    gaps = np.maximum(np.maximum(below, above), 0.0)
    spans = np.maximum(np.abs(below), np.abs(above))
    weight = flat.node_weight[node_ids] * inv_n
    upper = weight * kernel.value(np.einsum("ij,ij->i", gaps, gaps))
    lower = weight * kernel.value(np.einsum("ij,ij->i", spans, spans))
    return lower, upper
