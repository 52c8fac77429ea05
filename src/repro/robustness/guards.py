"""Runtime invariant guards for density-bounding traversals.

The pruning rules are only sound while the traversal's interval
invariants hold: every node contribution and every accumulated interval
must be finite with ``lower <= upper``, and contributions must stay
inside the a-priori envelope ``[0, mass * K(0)]``. A violated invariant
(a NaN from corrupted box arithmetic, an inverted pair from a bad
reduction, a silently underflowed kernel sum) does not crash anything —
it silently *flips a pruning decision*, which is how a single bad float
turns into wrong labels for a whole batch.

Guards check the invariants at well-defined sites and apply one of four
policies:

- ``"off"``     — no checks (the pre-guard behaviour).
- ``"raise"``   — fail fast with :class:`InvariantViolation`.
- ``"repair"``  — widen the offending value to the nearest *valid*
  conservative bound and count the repair in ``stats.extras``. Because
  the repaired interval still contains the true quantity, every prune
  taken afterwards remains certified (see docs/robustness.md).
- ``"warn"``    — repair, but also emit a :class:`GuardWarning`.

Repair never tightens: a non-finite or inverted node contribution is
replaced by the vacuous envelope ``[0, ceiling]``, which is always a
true statement about the node's contribution, so the HIGH/LOW guarantee
survives (at worst the traversal does more work).
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from repro.obs.metrics import GUARD_ESCALATIONS_TOTAL, GUARD_REPAIRS_TOTAL
from repro.obs.registry import REGISTRY

#: Recognised guard policies, in increasing order of loudness.
GUARD_POLICIES = ("off", "repair", "warn", "raise")

#: ``stats.extras`` key counting silent repairs.
REPAIRS_KEY = "guard_repairs"

#: Tolerance for interval inversion caused by benign float accumulation;
#: inversions within it are silently re-ordered under every policy.
_ACCUMULATION_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A traversal invariant was violated under the ``"raise"`` policy."""

    def __init__(self, site: str, detail: str) -> None:
        super().__init__(f"invariant violation at {site}: {detail}")
        self.site = site
        self.detail = detail


class GuardWarning(RuntimeWarning):
    """Emitted for each repaired violation under the ``"warn"`` policy."""


def _record(stats, count: int = 1, site: str = "traversal") -> None:
    if stats is not None:
        stats.extras[REPAIRS_KEY] = stats.extras.get(REPAIRS_KEY, 0.0) + count
    if REGISTRY.enabled:
        GUARD_REPAIRS_TOTAL.labels(site).inc(count)


def _record_escalation(site: str, count: int = 1) -> None:
    if REGISTRY.enabled:
        GUARD_ESCALATIONS_TOTAL.labels(site).inc(count)


def escalate(policy: str, site: str, detail: str, stats=None, count: int = 1) -> None:
    """Raise/warn/count a confirmed violation according to ``policy``.

    Shared by the guard functions below and by engine-level sites whose
    repair is not expressible as local widening (a corrupted running
    accumulator falls back to an exact evaluation instead).
    """
    if policy == "raise":
        _record_escalation(site, count)
        raise InvariantViolation(site, detail)
    if policy == "warn":
        _record_escalation(site, count)
        warnings.warn(f"repaired invariant violation at {site}: {detail}", GuardWarning,
                      stacklevel=3)
    _record(stats, count, site)


def guard_interval(
    lower: float,
    upper: float,
    policy: str,
    stats=None,
    site: str = "traversal",
    floor: float = 0.0,
    ceiling: float = float("inf"),
) -> tuple[float, float]:
    """Guard one scalar interval; returns a valid (possibly widened) pair.

    ``floor``/``ceiling`` are the a-priori envelope the true value is
    known to lie in; repairs clamp into it. With ``policy == "off"`` the
    input is returned untouched.
    """
    if policy == "off":
        return lower, upper
    finite = np.isfinite(lower) and np.isfinite(upper)
    if finite and lower <= upper:
        return lower, upper
    if finite and lower - upper <= _ACCUMULATION_TOL:
        # Benign float-accumulation inversion: reorder quietly.
        return upper, lower
    detail = f"interval [{lower}, {upper}] is " + (
        "inverted" if finite else "non-finite"
    )
    escalate(policy, site, detail, stats)
    # Which side is trustworthy is unknowable here, so repair widens to
    # the full a-priori envelope — always a true statement.
    return floor, ceiling


def guard_interval_arrays(
    lower: np.ndarray,
    upper: np.ndarray,
    policy: str,
    stats=None,
    site: str = "traversal",
    floor: float = 0.0,
    ceiling: np.ndarray | float | Callable[[], np.ndarray] = float("inf"),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`guard_interval` over aligned bound arrays.

    Returns ``(lower, upper, repaired_mask)``; the inputs are copied
    only when a repair is needed. ``ceiling`` may be an array aligned
    with the bounds (per-node mass envelopes), or a function returning
    one, called only when some pair needs the repair.
    """
    if policy == "off" or lower.size == 0:
        return lower, upper, np.zeros(lower.shape, dtype=bool)
    # A finite, non-negative width means every pair is finite and
    # ordered (NaN fails both tests): the common case in three calls.
    width = upper - lower
    if np.minimum.reduce(width) >= 0.0 and np.maximum.reduce(width) < np.inf:
        return lower, upper, np.zeros(lower.shape, dtype=bool)
    finite = np.isfinite(lower) & np.isfinite(upper)
    inverted = lower > upper
    if np.count_nonzero(finite) == finite.size and not np.count_nonzero(inverted):
        return lower, upper, inverted  # the common case: nothing to repair
    inverted &= finite
    with np.errstate(invalid="ignore"):  # inf - inf on non-finite rows
        benign = inverted & (lower - upper <= _ACCUMULATION_TOL)
    bad = (~finite) | (inverted & ~benign)
    if benign.any():
        lower = lower.copy()
        upper = upper.copy()
        swap_l = lower[benign]
        lower[benign] = upper[benign]
        upper[benign] = swap_l
    if not bad.any():
        return lower, upper, bad
    count = int(np.count_nonzero(bad))
    if policy == "raise":
        _record_escalation(site, count)
        idx = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            site, f"{count} invalid interval(s); first is "
                  f"[{lower[idx]}, {upper[idx]}] at offset {idx}"
        )
    if policy == "warn":
        _record_escalation(site, count)
        warnings.warn(
            f"repaired {count} invariant violation(s) at {site}", GuardWarning,
            stacklevel=3,
        )
    _record(stats, count, site)
    lower = lower.copy()
    upper = upper.copy()
    lower[bad] = floor
    if callable(ceiling):
        ceiling = ceiling()
    upper[bad] = ceiling[bad] if isinstance(ceiling, np.ndarray) else ceiling
    return lower, upper, bad


def guard_value_in_interval(
    value: float,
    lower: float,
    upper: float,
    policy: str,
    stats=None,
    site: str = "leaf",
) -> float:
    """Guard an exact evaluation against its own a-priori interval.

    A leaf's exact kernel sum must land inside the box bounds computed
    for that leaf; an escape (classically: silent underflow to 0 when
    the box bounds prove the sum is positive) is repaired by clamping
    into the interval — the nearest value consistent with the envelope.
    """
    if policy == "off":
        return value
    if np.isfinite(value) and lower - _ACCUMULATION_TOL <= value <= upper + _ACCUMULATION_TOL:
        return value
    detail = f"exact value {value} escapes its envelope [{lower}, {upper}]"
    escalate(policy, site, detail, stats)
    if not np.isfinite(value):
        return 0.5 * (lower + upper)
    return min(max(value, lower), upper)


def guard_values_in_intervals(
    values: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    policy: str,
    stats=None,
    site: str = "leaf",
) -> np.ndarray:
    """Vectorized :func:`guard_value_in_interval`."""
    if policy == "off" or values.size == 0:
        return values
    # Finite values inside their intervals (NaN and inf - inf fail the
    # tests) need none of the checks below.
    if (
        np.minimum.reduce(values - lower) >= 0.0
        and np.minimum.reduce(upper - values) >= 0.0
    ):
        return values
    finite = np.isfinite(values)
    bad = (~finite) | (values < lower - _ACCUMULATION_TOL) | (
        values > upper + _ACCUMULATION_TOL
    )
    if not bad.any():
        return values
    count = int(np.count_nonzero(bad))
    if policy == "raise":
        _record_escalation(site, count)
        idx = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            site, f"{count} exact value(s) escape their envelopes; first is "
                  f"{values[idx]} outside [{lower[idx]}, {upper[idx]}]"
        )
    if policy == "warn":
        _record_escalation(site, count)
        warnings.warn(
            f"repaired {count} invariant violation(s) at {site}", GuardWarning,
            stacklevel=3,
        )
    _record(stats, count, site)
    values = values.copy()
    midpoint = 0.5 * (lower + upper)
    values[~finite] = midpoint[~finite]
    return np.clip(values, lower, upper)
