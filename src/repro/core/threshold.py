"""Algorithm 3: bootstrapped quantile-threshold bounds.

Estimating ``t(p)`` needs densities, but computing densities efficiently
needs threshold bounds — the paper's chicken-and-egg problem. The
bootstrap breaks it by training mini-KDEs on geometrically growing
subsamples: quantile bounds computed cheaply on a small subsample become
the pruning bounds for the next, larger subsample. Bounds that turn out
invalid (the new order statistics escape them) are multiplicatively
backed off and the iteration retried.

The returned bounds bracket the full-data threshold ``t(p)`` with
probability at least ``1 - delta`` (per iteration, via the order-statistic
confidence intervals of Section 3.5).

Each round takes the grid shortcut the scoring pass takes (Section 3.7):
a sampled row whose grid lower bound, less its self-contribution
``K(0)/r``, already exceeds ``t_upper (1 + epsilon)`` records that value
and skips the traversal. The round's bracket is bit-identical to scoring
every row by traversal:

- such a row's traversal value also exceeds ``t_upper``: the traversal
  stops on the threshold rule (lower bound above ``t_upper (1 + eps)``),
  on the tolerance rule (midpoint within ``eps t_lower / 2`` of a
  density above ``t_upper (1 + eps)``) or exactly;
- so the multiset of values at or below ``t_upper`` is unchanged, and
  with it every order statistic the round reads and its backoff
  decision (a statistic above ``t_upper`` only triggers a backoff, which
  reads ``t_upper``, not the statistic; ``t_upper > 0`` is required so
  the zero-bound restart never reads one);
- each row's traversal is independent of the other rows in its block.

The shortcut needs the grid to count the round's own sample under the
round's kernel: every mini-KDE round builds one over its sample, and the
final round uses the caller's full-data grid, which a coreset final
round (whose tree indexes the sketch) does not get. No round builds one
for a kernel whose per-cell bound is 0 (compact support; see
:func:`~repro.core.grid.cell_bound`): it could not certify a row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batch_bounds import bound_densities
from repro.core.bounds import bound_density
from repro.core.config import TKDCConfig
from repro.core.grid import GridCache, cell_bound
from repro.core.stats import TraversalStats
from repro.index.kdtree import KDTree
from repro.kernels.base import Kernel
from repro.obs.metrics import (
    BOOTSTRAP_BACKOFFS_TOTAL,
    BOOTSTRAP_FAILURES_TOTAL,
    BOOTSTRAP_ITERATIONS_TOTAL,
)
from repro.quantile.order_stats import normal_order_ci
from repro.robustness.guards import GuardWarning, guard_interval

#: Hard cap on bootstrap iterations (growth rounds plus backoffs); the
#: expected count is ~log_growth(n / r0) + a handful of backoffs.
_MAX_ITERATIONS = 200


class BootstrapExhausted(RuntimeError):
    """Algorithm 3 hit its iteration cap without a converged bracket.

    Carries the last working threshold interval so callers can inspect
    (or, via ``TKDCConfig.bootstrap_accept_widened``, accept) the
    widened-but-unconverged bounds instead of losing them with the
    traceback.
    """

    def __init__(
        self,
        message: str,
        t_lower: float,
        t_upper: float,
        iterations: int,
        backoffs: int,
    ) -> None:
        super().__init__(message)
        self.t_lower = t_lower
        self.t_upper = t_upper
        self.iterations = iterations
        self.backoffs = backoffs


@dataclass(frozen=True)
class ThresholdBootstrapResult:
    """Outcome of the threshold bootstrap."""

    lower: float
    upper: float
    iterations: int
    backoffs: int


def bootstrap_threshold_bounds(
    data: np.ndarray,
    make_kernel: Callable[[np.ndarray], Kernel],
    config: TKDCConfig,
    stats: TraversalStats,
    rng: np.random.Generator,
    full_tree: KDTree | None = None,
    full_kernel: Kernel | None = None,
    eta: float = 0.0,
    full_grid: GridCache | None = None,
) -> ThresholdBootstrapResult:
    """Estimate probabilistic bounds on ``t(p)`` (paper Algorithm 3).

    Parameters
    ----------
    data:
        The full training set, shape ``(n, d)``.
    make_kernel:
        Factory that selects a bandwidth for (and binds a kernel to) a
        training subsample — Algorithm 3 recalculates the bandwidth at
        every subsample size.
    config:
        Supplies ``p``, ``delta``, ``epsilon``, the bootstrap constants
        ``r0, s0, h_backoff, h_buffer, h_growth``, and tree parameters.
    stats:
        Counter sink for all density-bounding work done here.
    rng:
        Source of subsample randomness.
    full_tree, full_kernel:
        Optional prebuilt index/kernel reused for the final iteration
        instead of rebuilding. With coreset compression this is the
        (possibly weighted) tree over the *sketch*, whose densities
        approximate the full-data KDE within ``eta``.
    eta:
        Sup-norm certificate ``|f_X - f_S| <= eta`` for the density the
        final-round tree estimates (0 when ``full_tree`` indexes the
        full data). A sup-norm error of ``eta`` shifts *every* quantile
        of the density distribution by at most ``eta``, so in certified
        mode (``eta < epsilon * t_lower``, see
        :mod:`repro.coresets.base`) both the final round's pruning rules
        and the returned bounds are widened by ``eta``, keeping the
        bracket valid for the full-data ``t(p)``. A coarser or infinite
        ``eta`` degrades to best-effort: no widening anywhere, and the
        bounds describe the compressed estimate's quantile only.
    full_grid:
        Grid cache over the full data under ``full_kernel``, for the
        final round's grid shortcut. Pass it only when ``full_tree``
        indexes the full data (not a coreset); ``None`` disables the
        shortcut in the final round.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    use_grid = config.use_grid and data.shape[1] <= config.grid_max_dim

    t_lower = 0.0
    t_upper = math.inf
    r = min(config.bootstrap_r0, n)
    backoffs = 0

    for iteration in range(1, _MAX_ITERATIONS + 1):
        final_round = r == n and full_tree is not None and full_kernel is not None
        shortcut = use_grid and math.isfinite(t_upper) and t_upper > 0.0
        if final_round:
            subsample = data
            kernel = full_kernel
            tree = full_tree
            grid = full_grid if shortcut else None
        else:
            subsample = data[rng.choice(n, size=r, replace=False)] if r < n else data
            kernel = make_kernel(subsample)
            scaled_sample = kernel.scale(subsample)
            tree = KDTree(
                scaled_sample,
                leaf_size=config.leaf_size,
                split_rule=config.split_rule,
            )
            grid = (
                GridCache(scaled_sample, kernel)
                if shortcut and cell_bound(kernel, data.shape[1]) > 0.0
                else None
            )

        s = min(config.bootstrap_s0, r)
        queries = subsample[rng.choice(r, size=s, replace=False)] if s < r else subsample
        scaled_queries = kernel.scale(queries)

        # Bound the density of each sampled query under the mini-KDE,
        # correcting for the query's own contribution to the estimate.
        # Threshold bounds are in corrected-density space; the pruning
        # rules shift their edges by the self-contribution *after* the
        # epsilon margin (see repro.core.pruning.threshold_rule).
        # Scoring the sample is the dominant fit cost, so it runs on
        # the configured traversal engine (batched by default).
        #
        # Only the final round can index a coreset; the mini-KDE rounds
        # always subsample the raw data, so eta applies only there. The
        # self-contribution stays K(0)/n even over a sketch: the bounds
        # track the *full-data* corrected density f_X - K(0)/n, and the
        # sketch-vs-full gap (including any self-term mismatch) is
        # exactly what eta already accounts for.
        round_eta = eta if final_round and math.isfinite(eta) else 0.0
        rule_eta = (
            round_eta
            if 0.0 < round_eta < config.epsilon * t_lower
            else 0.0
        )
        self_contribution = kernel.max_value / r
        densities = np.empty(s)
        remaining = np.arange(s)
        if grid is not None:
            grid_scores = grid.density_lower_bounds(scaled_queries) - self_contribution
            certain = grid_scores > t_upper * (1.0 + config.epsilon)
            stats.grid_hits += int(np.count_nonzero(certain))
            densities[certain] = grid_scores[certain]
            remaining = np.flatnonzero(~certain)
        if config.engine == "batch":
            result = bound_densities(
                tree.flatten(), kernel, scaled_queries[remaining], t_lower, t_upper,
                config.epsilon, stats,
                use_threshold_rule=config.use_threshold_rule,
                use_tolerance_rule=config.use_tolerance_rule,
                threshold_shift=self_contribution,
                eta=rule_eta,
                block_size=config.batch_block_size,
                guard_policy=config.guard_policy,
            )
            densities[remaining] = np.maximum(result.midpoint - self_contribution, 0.0)
        else:
            for i in remaining:
                result = bound_density(
                    tree, kernel, scaled_queries[i], t_lower, t_upper,
                    config.epsilon, stats,
                    use_threshold_rule=config.use_threshold_rule,
                    use_tolerance_rule=config.use_tolerance_rule,
                    threshold_shift=self_contribution,
                    eta=rule_eta,
                    guard_policy=config.guard_policy,
                )
                densities[i] = max(result.midpoint - self_contribution, 0.0)
        densities.sort()

        rank_lower, rank_upper = normal_order_ci(s, config.p, config.delta)
        d_lower = float(densities[rank_lower - 1])
        d_upper = float(densities[rank_upper - 1])
        if config.guard_policy != "off":
            # Interval sanity: order statistics of a sorted finite array
            # cannot invert or go non-finite unless an upstream guard
            # repaired densities to a vacuous envelope; re-repairing here
            # keeps the bracket a true (if loose) statement.
            d_lower, d_upper = guard_interval(
                d_lower, d_upper, config.guard_policy, stats, site="threshold"
            )

        if d_upper > t_upper:
            # Upper bound was too tight: densities near the quantile were
            # only resolved to the stale bound. Back off and retry. A
            # zero upper bound cannot recover multiplicatively; restart
            # it from the observed value.
            t_upper = t_upper * config.h_backoff if t_upper > 0 else d_upper
            backoffs += 1
        elif d_lower < t_lower:
            # Finite-support kernels can put the quantile at exactly
            # zero density (isolated points with empty neighbourhoods);
            # dividing can never reach 0, so snap there directly.
            t_lower = t_lower / config.h_backoff if d_lower > 0 else 0.0
            backoffs += 1
        else:
            if r == n:
                # Quantile-shift property: |f_X - f_S| <= eta moves any
                # quantile of the density sample by at most eta, so in
                # certified mode the sketch-derived bracket widened by
                # eta still brackets the full-data t(p). In best-effort
                # mode (rule_eta == 0) the bracket is left describing
                # the compressed estimate's quantile: widening it by a
                # coarse eta would blow up the bracket midpoint that
                # refine_threshold=False classifies against.
                BOOTSTRAP_ITERATIONS_TOTAL.inc(iteration)
                BOOTSTRAP_BACKOFFS_TOTAL.inc(backoffs)
                return ThresholdBootstrapResult(
                    max(d_lower - rule_eta, 0.0),
                    d_upper + rule_eta,
                    iteration,
                    backoffs,
                )
            # Valid bounds: buffer them and carry to a larger subsample.
            t_upper = d_upper * config.h_buffer
            t_lower = d_lower / config.h_buffer
            r = min(int(r * config.h_growth), n)

    if (
        config.bootstrap_accept_widened
        and math.isfinite(t_lower)
        and math.isfinite(t_upper)
        and 0.0 <= t_lower <= t_upper
    ):
        # Opt-in graceful degradation: the working bracket is a valid
        # (just looser-than-requested) statement about t(p); accept it
        # with a warning rather than failing the whole fit.
        warnings.warn(
            f"threshold bootstrap hit its {_MAX_ITERATIONS}-iteration cap; "
            f"accepting the widened bracket [{t_lower}, {t_upper}] "
            "(bootstrap_accept_widened=True)",
            GuardWarning,
            stacklevel=2,
        )
        BOOTSTRAP_ITERATIONS_TOTAL.inc(_MAX_ITERATIONS)
        BOOTSTRAP_BACKOFFS_TOTAL.inc(backoffs)
        return ThresholdBootstrapResult(t_lower, t_upper, _MAX_ITERATIONS, backoffs)
    BOOTSTRAP_ITERATIONS_TOTAL.inc(_MAX_ITERATIONS)
    BOOTSTRAP_BACKOFFS_TOTAL.inc(backoffs)
    BOOTSTRAP_FAILURES_TOTAL.inc()
    raise BootstrapExhausted(
        f"threshold bootstrap failed to converge within {_MAX_ITERATIONS} iterations "
        f"(n={n}, p={config.p}); the density distribution may be degenerate. "
        f"Last working bracket: [{t_lower}, {t_upper}]. Set "
        "bootstrap_accept_widened=True to accept a finite widened bracket.",
        t_lower,
        t_upper,
        _MAX_ITERATIONS,
        backoffs,
    )
