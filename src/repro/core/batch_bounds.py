"""Algorithm 2 over a block of queries at once (the batch traversal engine).

:func:`repro.core.bounds.bound_density` answers one query per call and
pays Python interpreter dispatch for every node it touches — ~20 scalar
numpy calls per heap pop. This module runs the *same* traversal for a
whole block of queries simultaneously: per round, every still-active
query pops the loosest entry of its own frontier (the paper's
discrepancy order), all popped nodes are expanded with a handful of
vectorized sweeps over the :class:`~repro.index.flat.FlatTree` arrays
(the exact sums of every popped leaf in one gathered sweep, whatever
the number of distinct leaves), and the threshold/tolerance pruning
rules retire finished queries as boolean masks. The per-query
semantics — pop order, rule order, the ``±eps*t`` guarantee, and every
:class:`~repro.core.stats.TraversalStats` counter — are preserved
exactly; only the arithmetic is batched.

A block runs as many rounds as its slowest query pops, and a round has
a fixed numpy-dispatch cost however few queries are live: that cost,
not the arithmetic, sets the price of a small served request. So a
round is kept to as few numpy calls as exactness allows. Every stop
test of the block is one comparison of a ``(4, live)`` state array
against per-query limits, and the per-rule masks are built only in
rounds where some query retires. Both children of every expanded node
are bounded by :func:`~repro.index.flat.signed_box_bounds`: one gather,
one ``einsum`` and one kernel call. A round in which no query popped a
leaf gathers nothing per query. The guard's repair ceiling is built
only when some pair needs the repair. The frontier is
append-only with columns in insertion order: ``argmin`` over ``lower -
upper`` (+inf marks a dead slot) is exactly the reference heap's
``(discrepancy, seq)`` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.bounds import BUDGET_STOPS_KEY, EXACT_FALLBACKS_KEY
from repro.core.pruning import PruneOutcome
from repro.core.stats import TraversalStats
from repro.index.flat import FlatTree, pair_box_bounds, signed_box_bounds, signed_pairs
from repro.kernels.base import Kernel
from repro.obs.metrics import record_traversal_block
from repro.obs.registry import REGISTRY
from repro.robustness.faults import FaultInjector
from repro.robustness.guards import (
    escalate,
    guard_interval_arrays,
    guard_values_in_intervals,
)

#: Default number of queries traversed per block. Bounds peak frontier
#: memory (a block's frontier arrays are ``block_size x capacity``)
#: while keeping the vectorized sweeps wide enough to amortize the fixed
#: per-round dispatch cost, which falls per query as the block widens.
DEFAULT_BLOCK_SIZE = 2048

#: Evaluations :func:`_leaf_exact_sums` gathers per chunk (plus at most one
#: leaf), so a gathered ``(evaluations, d)`` array holds at most ~3.5 MB at
#: d = 27. At d = 2 no round of the offline-2d benchmark's fit or classify
#: gathered more than ~4,500, so there a round is one chunk.
_MAX_LEAF_EVALS = 16_384

#: Outcome codes stored per query (0 means the tree was exhausted).
OUTCOME_NONE = 0
OUTCOME_THRESHOLD_HIGH = 1
OUTCOME_THRESHOLD_LOW = 2
OUTCOME_TOLERANCE = 3
#: The anytime budget stopped this query (best-effort bounds, degraded).
OUTCOME_BUDGET = 4

_OUTCOME_BY_CODE: tuple[PruneOutcome | None, ...] = (
    None,
    PruneOutcome.THRESHOLD_HIGH,
    PruneOutcome.THRESHOLD_LOW,
    PruneOutcome.TOLERANCE,
    None,  # budget stop is not a prune
)

#: Engine label this module reports under (see ``repro.obs.metrics``).
ENGINE_LABEL = "batch"

#: Block-internal retirement codes, reported as OUTCOME_NONE.
_EXACT = 5
_EXHAUSTED = 6

#: Trace-rule string for each outcome or retirement code (index = code).
_RULE_BY_CODE = (
    "exhausted", "threshold_high", "threshold_low", "tolerance", "budget", "exact",
    "exhausted",
)


@dataclass(frozen=True)
class BatchBoundResult:
    """Density intervals (and stop reasons) for a batch of queries."""

    lower: np.ndarray  #: (q,) guaranteed lower bounds.
    upper: np.ndarray  #: (q,) guaranteed upper bounds.
    outcome_codes: np.ndarray  #: (q,) int8 ``OUTCOME_*`` codes.
    #: (q,) True where the answer is best-effort (budget stop or exact
    #: guard fallback); the bounds remain valid either way.
    degraded: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.degraded is None:
            object.__setattr__(
                self, "degraded", np.zeros(self.lower.shape, dtype=bool)
            )

    @property
    def midpoint(self) -> np.ndarray:
        """Interval midpoints, the per-query density point estimates."""
        return 0.5 * (self.lower + self.upper)

    def outcomes(self) -> list[PruneOutcome | None]:
        """Per-query :class:`PruneOutcome` (None = tree exhausted)."""
        return [_OUTCOME_BY_CODE[code] for code in self.outcome_codes]


def bound_densities(
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
    kernels_start = stats.kernel_evaluations
    __, children, leaf, __ = flat.sweep
    # Retirements by code, for the registry; out_codes alone cannot
    # distinguish exhausted from exact-fallback (both OUTCOME_NONE).
    retired = np.zeros(len(_RULE_BY_CODE), dtype=np.int64)
    expansions_out = np.zeros(n_queries, dtype=np.int64)

    def guard_pair(node_ids, pair_lower, pair_upper):
        """Inject faults into and guard one (query, node) bound sweep."""
        if faults is not None:
            pair_lower, pair_upper = faults.corrupt_bounds_array(pair_lower, pair_upper)
        if guarded:
            # Only a repair pays for the per-node ceiling.
            pair_lower, pair_upper, __ = guard_interval_arrays(
                pair_lower, pair_upper, guard_policy, stats, site="node",
                ceiling=lambda: flat.node_weight[node_ids] * (inv_n * kernel.max_value),
            )
        return pair_lower, pair_upper

    # Every stop test is one `state > limits` over (4, live) arrays:
    #   f_lower          > high edge        (threshold HIGH)
    #   -f_upper         > -low edge        (threshold LOW: f_upper < edge)
    #   f_lower - f_upper > -tolerance width (f_upper - f_lower < width)
    #   popped rank      > largest float    (exhausted: the rank is +inf)
    # Negation is exact, so each test is the reference comparison. The
    # edges are repro.core.pruning.threshold_rule / tolerance_rule's
    # expressions, including the eta widening (`f_l - eta > edge` is
    # applied as `f_l > edge + eta`); a rule switched off gets +inf.
    reference = t_lower if tolerance_reference is None else tolerance_reference
    limits = np.full((4, n_queries), np.inf)
    if use_threshold_rule:
        limits[0] = t_upper * (1.0 + epsilon) + threshold_shift + eta
        limits[1] = -(t_lower * (1.0 - epsilon) + threshold_shift - eta)
    if use_tolerance_rule:
        limits[2] = -(epsilon * reference - 2.0 * eta)
    limits[3] = np.finfo(np.float64).max

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
    live_pairs = signed_pairs(queries)  # both children of every live query
    state = np.empty((4, n_queries))
    state[0] = root_lower
    state[1] = -root_upper
    f_lower, neg_upper, spread, popped_rank = state
    # Every live query pops once a round, so its expansions are the
    # rounds so far less its leaf pops.
    leaf_pops = np.zeros(n_queries, dtype=np.int64)
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
    # Flat frontier offsets: `base` is each live query's row start and
    # `push_base` its left- then right-child cell at column 0.
    base = frow * capacity
    push_base = np.concatenate((base, base + 1))
    rounds = 0

    while True:
        # Columns past `end` are +inf, so a whole-row argmin (no copy)
        # finds the same first minimum.
        best = fr_rank.argmin(axis=1)
        slot = base + best.take(frow)
        # --- retirements: the per-rule masks are built only in rounds
        # where the screen finds a query that must stop.
        np.add(f_lower, neg_upper, out=spread)
        fr_rank.take(slot, out=popped_rank, mode="clip")
        over = state > limits
        # Any non-finite bound makes the spread's sum non-finite.
        broken = guarded and not math.isfinite(np.add.reduce(spread))
        if (
            np.count_nonzero(over)
            or broken
            # Expansions never exceed rounds.
            or (max_expansions is not None and rounds >= max_expansions)
        ):
            used = rounds - leaf_pops
            # The reference engine's precedence: exhausted frontier,
            # non-finite accumulator (guarded), threshold HIGH, threshold
            # LOW, tolerance, then the anytime budget.
            code = np.zeros(rows.size, dtype=np.int8)
            if max_expansions is not None:
                code[used >= max_expansions] = OUTCOME_BUDGET
            code[over[2]] = OUTCOME_TOLERANCE
            code[over[1]] = OUTCOME_THRESHOLD_LOW
            code[over[0]] = OUTCOME_THRESHOLD_HIGH
            if broken:
                code[~(np.isfinite(f_lower) & np.isfinite(neg_upper))] = _EXACT
            code[over[3]] = _EXHAUSTED
            stop = code != OUTCOME_NONE
        else:
            stop = None
        if stop is not None and np.count_nonzero(stop):
            done = rows[stop]
            done_code = code[stop]
            done_lower = f_lower[stop]
            # `0.0 - x` negates exactly but turns -0.0 into the reference
            # engine's +0.0.
            done_upper = 0.0 - neg_upper[stop]
            counts = np.bincount(done_code, minlength=len(_RULE_BY_CODE))
            retired += counts
            expansions_out[done] = used[stop]
            out_codes[done] = done_code
            if counts[_EXHAUSTED] or counts[OUTCOME_BUDGET]:
                # Exhausted and budget stops report the ordered interval,
                # rule prunes the raw one.
                ordered = (done_code == _EXHAUSTED) | (done_code == OUTCOME_BUDGET)
                done_lower, done_upper = (
                    np.where(ordered, np.minimum(done_lower, done_upper), done_lower),
                    np.where(ordered, np.maximum(done_lower, done_upper), done_upper),
                )
            out_lower[done] = done_lower
            out_upper[done] = done_upper
            if counts[_EXHAUSTED]:
                stats.exhausted += int(counts[_EXHAUSTED])
                out_codes[done[done_code == _EXHAUSTED]] = OUTCOME_NONE
            if counts[_EXACT]:
                # A non-finite running interval has lost its frontier
                # bookkeeping; the sound recovery is one exact
                # evaluation per affected query.
                exact_rows = done[done_code == _EXACT]
                out_codes[exact_rows] = OUTCOME_NONE
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
            rows, live_queries, leaf_pops, frow, base, slot = (
                array[keep] for array in (rows, live_queries, leaf_pops, frow, base, slot)
            )
            state = state[:, keep]
            limits = limits[:, keep]
            f_lower, neg_upper, spread, popped_rank = state
            if not rows.size:
                break
            live_pairs = signed_pairs(live_queries)
            if 2 * rows.size <= fr_rank.shape[0]:
                fr_node, fr_lower, fr_upper, fr_rank = (
                    array[frow] for array in (fr_node, fr_lower, fr_upper, fr_rank)
                )
                frow = np.arange(rows.size)
                slot = frow * capacity + slot % capacity
                base = frow * capacity
            push_base = np.concatenate((base, base + 1))

        # --- pop the loosest frontier entry of every live query.
        rounds += 1
        node_sel = fr_node.take(slot)
        lower_sel = fr_lower.take(slot)
        upper_sel = fr_upper.take(slot)
        fr_rank.put(slot, np.inf)
        f_lower -= lower_sel
        neg_upper += upper_sel
        is_leaf = leaf.take(node_sel)
        n_leaves = np.count_nonzero(is_leaf)

        # --- leaves: exact kernel sums for every (query, leaf) pair in one
        # gathered sweep over all their leaf points.
        if n_leaves:
            leaf_pos = is_leaf.nonzero()[0]
            leaf_pops[leaf_pos] += 1
            leaf_nodes = node_sel.take(leaf_pos)
            stats.kernel_evaluations += int(flat.count.take(leaf_nodes).sum())
            exact = _leaf_exact_sums(
                flat, kernel, leaf_nodes, live_queries.take(leaf_pos, axis=0), inv_n
            )
            if faults is not None:
                exact = faults.corrupt_leaves_array(exact)
            if guarded:
                # Exact sums must land inside the box bounds each leaf
                # was popped with (catches silent underflow).
                exact = guard_values_in_intervals(
                    exact, lower_sel.take(leaf_pos), upper_sel.take(leaf_pos),
                    guard_policy, stats, site="leaf",
                )
            f_lower[leaf_pos] += exact
            neg_upper[leaf_pos] -= exact

        # --- internal nodes: bound both children of every popped node in
        # one sweep, left pairs first (the fault ordinals and the
        # `f += left; f += right` order of the reference engine). A round
        # that popped no leaf expands every live query without gathers.
        if n_leaves < rows.size:
            kids = children.take(node_sel, axis=1)  # left ids, right ids
            if n_leaves:
                sel = (~is_leaf).nonzero()[0]
                pair_pos = np.concatenate((sel, sel + rows.size))
                child_ids = kids.take(sel, axis=1).ravel()
                pairs = live_pairs.take(pair_pos, axis=1)
            else:
                sel = slice(None)
                child_ids = kids.ravel()
                pairs = live_pairs
            child_lower, child_upper = signed_box_bounds(flat, child_ids, pairs, kernel)
            k = child_ids.size // 2
            stats.node_expansions += k
            child_lower, child_upper = guard_pair(child_ids, child_lower, child_upper)
            acc_lower = f_lower[sel]
            acc_lower += child_lower[:k]
            acc_lower += child_lower[k:]
            acc_upper = neg_upper[sel]
            acc_upper -= child_upper[:k]
            acc_upper -= child_upper[k:]
            if n_leaves:  # the fancy index gathered copies
                f_lower[sel] = acc_lower
                neg_upper[sel] = acc_upper

            if end + 2 > capacity:
                fr_node, fr_lower, fr_upper, fr_rank, end, capacity = _pack_frontier(
                    fr_node, fr_lower, fr_upper, fr_rank, frow, end
                )
                frow = np.arange(rows.size)
                base = frow * capacity
                push_base = np.concatenate((base, base + 1))
            # Only children with a positive-width interval are pushed.
            rank = child_lower - child_upper
            rank[~(rank < 0.0)] = np.inf
            cells = (push_base.take(pair_pos) if n_leaves else push_base) + end
            fr_node.put(cells, child_ids)
            fr_lower.put(cells, child_lower)
            fr_upper.put(cells, child_upper)
            fr_rank.put(cells, rank)
            end += 2

        if trace is not None:
            for pos, row in enumerate(rows):
                trace.step(int(row), float(f_lower[pos]), 0.0 - float(neg_upper[pos]))

    if REGISTRY.enabled:
        record_traversal_block(
            ENGINE_LABEL,
            {_RULE_BY_CODE[code]: int(retired[code]) for code in range(1, len(_RULE_BY_CODE))},
            expansions_out,
            stats.kernel_evaluations - kernels_start,
            rounds,
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
    if leaf_nodes.size == 1:
        # One pair (most rounds of a small block): its points are one
        # slice, and `p - q` squares to `q - p`.
        points = slice(flat.start[leaf_nodes[0]], flat.end[leaf_nodes[0]])
        diffs = flat.points[points] - leaf_queries
        values = kernel.value(np.einsum("td,td->t", diffs, diffs))
        if flat.point_weights is not None:
            values *= flat.point_weights[points]
        sums = values.reshape(1, -1).sum(axis=1)
        sums *= inv_n
        return sums
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
