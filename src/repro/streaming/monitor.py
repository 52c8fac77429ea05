"""Drift detection: served threshold vs a fresh-sample order-statistic CI.

The served model claims its threshold ``t`` is the ``p``-quantile of the
data's density distribution. If the stream still follows the training
distribution, then for a fresh window of ``s`` points the number of
densities below the true ``p``-quantile is Binomial(s, p) — so the rank
interval from :func:`repro.quantile.order_stats.binomial_order_ci`
brackets that quantile with probability at least ``1 - delta`` (paper
Equation 10, applied to *monitoring* instead of training). A served
threshold that falls outside the bracket is therefore evidence, at
level ``delta``, that the density distribution has moved: the statistical
trigger for a refit.

A side of the test runs only when the window is large enough for an
order statistic to carry its ``delta / 2`` tail: the low side needs
``(1 - p)^s < delta / 2`` (at ``p = 0.01, delta = 0.01`` that is
``s >= 528``), the high side ``p^s <= delta / 2``. With a smaller window
the rank clamps to the window's minimum, and a stable stream has no
point below ``t`` with probability ``(1 - p)^s`` — 7.6% per check at
``s = 256`` — so that side is not tested at all. Each decision carries
``low_testable``/``high_testable``, and the pipeline reports them in
its status as ``drift_sides``, so an untested side is visible.

Two practical guards sit on top of the test:

- **hysteresis** — a refit fires only after ``hysteresis`` *consecutive*
  violating checks, suppressing one-off unlucky windows (the residual
  false-trigger rate drops from ``delta`` per check to roughly
  ``delta ** hysteresis`` per run of checks);
- **min refit interval** — a refit is never triggered within
  ``min_refit_interval`` seconds of the previous one, bounding refit
  churn when the distribution moves continuously.

Window densities are *estimates* from the classify traversal
(:func:`repro.streaming.pipeline.window_densities`: the midpoint of the
interval each point's label was decided on, or its lower bound for grid
hits); callers pass ``tolerance=eps * t`` so estimation error widens the
acceptance band instead of eroding the ``delta`` guarantee. Such an
estimate ``e`` is of one of two kinds, relative to the exact density
``d``:

- *threshold-pruned* (or a grid hit): the certified interval lies
  entirely beyond ``t(1 ± eps)``, so ``e`` and ``d`` are both above
  ``t(1 + eps)`` or both below ``t(1 - eps)`` — same side of ``t``,
  however far apart;
- *everything else* (tolerance-pruned, exhausted, exact fallback, or
  budget-degraded points re-estimated by the tolerance-only
  estimator): ``|e - d| <= eps * t / 2``, as with tolerance-only
  estimation.

So a stream that has not drifted cannot newly trigger a violation.
Suppose the test on exact densities is stable, ``d_(lo) <= t <=
d_(hi)``, but ``drift_low`` fires: ``e_(lo) > t + eps * t``. Then at
least ``s - lo + 1`` estimates exceed ``t(1 + eps)``; none of them is
LOW-pruned, each threshold-pruned one has ``d > t(1 + eps)`` and each
other one ``d >= e - eps * t / 2 > t``, so ``d_(lo) > t`` — a
contradiction. ``drift_high`` is the mirror image (``e_(hi) < t(1 -
eps)`` forces ``hi`` exact densities below ``t``). The comparison is
statistically clean because training thresholds live in
self-contribution-corrected (≈ leave-one-out) density space: a fresh
point's density under the served model is exactly the quantity the
threshold is a quantile of.

The monitor is a pure state machine over injected observations and an
injected clock — no threads, no model access — so its false-positive
behaviour is testable without sleeps (satellite: FP rate bounded by
``delta``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.quantile.order_stats import binomial_order_ci


@dataclass(frozen=True)
class DriftDecision:
    """Outcome of one drift check (JSON-ready via ``as_dict``)."""

    checked: bool  #: False when the window is still filling
    drifted: bool  #: threshold outside this window's CI
    fired: bool  #: hysteresis + min-interval passed: trigger a refit
    reason: str  #: "stable" / "window_filling" / "drift_low" / ...
    threshold: float = float("nan")
    ci_lower: float = float("nan")
    ci_upper: float = float("nan")
    window: int = 0
    consecutive: int = 0  #: consecutive violating checks including this one
    #: Whether each side of the test can fire at this window size.
    low_testable: bool = False
    high_testable: bool = False

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "drifted": self.drifted,
            "fired": self.fired,
            "reason": self.reason,
            "threshold": self.threshold,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "window": self.window,
            "consecutive": self.consecutive,
            "low_testable": self.low_testable,
            "high_testable": self.high_testable,
        }


class DriftMonitor:
    """Hysteresis-wrapped order-statistic drift test.

    Parameters
    ----------
    p:
        The quantile the served threshold claims to be (the model's
        ``config.p``).
    delta:
        Per-check false-trigger level of the CI test.
    window:
        Fresh points required before a check runs; also the subsample
        size ``s`` of the order-statistic CI.
    hysteresis:
        Consecutive violating checks required before firing.
    min_refit_interval:
        Seconds that must elapse after a refit before the next fires.
    clock:
        Injectable monotonic clock (tests pass a fake).
    """

    def __init__(
        self,
        p: float,
        delta: float = 0.01,
        window: int = 256,
        hysteresis: int = 2,
        min_refit_interval: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if window < 8:
            raise ValueError(f"window must be >= 8, got {window}")
        if hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        if min_refit_interval < 0:
            raise ValueError(
                f"min_refit_interval must be >= 0, got {min_refit_interval}"
            )
        self.p = p
        self.delta = delta
        self.window = window
        self.hysteresis = hysteresis
        self.min_refit_interval = min_refit_interval
        self._clock = clock
        self._consecutive = 0
        self._last_refit_at: float | None = None
        self.checks = 0
        self.violations = 0
        self.fires = 0

    def testable_sides(self, size: int) -> tuple[bool, bool]:
        """Whether the (low, high) side of the test can fire at window ``size``.

        A side is tested only if an order statistic can carry its
        delta/2 tail. Otherwise its rank clamps to the window's extreme
        and a stable stream violates it with probability (1 - p)^s
        (low side) or p^s (high side): 7.6% per check at p = 0.01,
        s = 256, where delta/2 is 0.5%.
        """
        return (
            (1.0 - self.p) ** size < self.delta / 2,
            self.p ** size <= self.delta / 2,
        )

    def observe(
        self,
        densities: np.ndarray,
        served_threshold: float,
        tolerance: float = 0.0,
        window: int | None = None,
    ) -> DriftDecision:
        """Run one drift check over a fresh window of density estimates.

        ``tolerance`` (absolute) widens the acceptance band to absorb
        density-estimation error; pass ``eps * t`` when densities come
        from the tolerance-rule estimator. ``window`` overrides the
        configured window size for this check only (the adaptive-window
        pipeline derives it from the observed check cadence); it is
        clamped below at 8, the CI's minimum sample size.
        """
        size = self.window if window is None else max(8, int(window))
        low_testable, high_testable = self.testable_sides(size)
        densities = np.asarray(densities, dtype=np.float64)
        densities = densities[np.isfinite(densities)]
        if densities.shape[0] < size:
            return DriftDecision(
                checked=False, drifted=False, fired=False,
                reason="window_filling", window=int(densities.shape[0]),
                low_testable=low_testable, high_testable=high_testable,
            )
        window_values = np.sort(densities[-size:])
        lo_rank, hi_rank = binomial_order_ci(size, self.p, self.delta)
        ci_lower = float(window_values[lo_rank - 1]) - tolerance
        ci_upper = float(window_values[hi_rank - 1]) + tolerance
        self.checks += 1
        if low_testable and served_threshold < ci_lower:
            drifted, reason = True, "drift_low"
        elif high_testable and served_threshold > ci_upper:
            drifted, reason = True, "drift_high"
        else:
            drifted, reason = False, "stable"
        if drifted:
            self.violations += 1
            self._consecutive += 1
        else:
            self._consecutive = 0
        fired = False
        if drifted and self._consecutive >= self.hysteresis:
            now = self._clock()
            if (
                self._last_refit_at is None
                or now - self._last_refit_at >= self.min_refit_interval
            ):
                fired = True
                self.fires += 1
            else:
                reason = "refit_interval"
        return DriftDecision(
            checked=True, drifted=drifted, fired=fired, reason=reason,
            threshold=served_threshold, ci_lower=ci_lower, ci_upper=ci_upper,
            window=size, consecutive=self._consecutive,
            low_testable=low_testable, high_testable=high_testable,
        )

    def note_refit(self) -> None:
        """Record a completed refit: re-arms hysteresis and the interval."""
        self._last_refit_at = self._clock()
        self._consecutive = 0
