"""Unit tests for the invariant-guard primitives (all four policies)."""

import numpy as np
import pytest

from repro.core.stats import TraversalStats
from repro.robustness.guards import (
    REPAIRS_KEY,
    GuardWarning,
    InvariantViolation,
    guard_interval,
    guard_interval_arrays,
    guard_value_in_interval,
    guard_values_in_intervals,
)


class TestGuardInterval:
    def test_valid_interval_passes_untouched(self):
        assert guard_interval(0.2, 0.8, "repair") == (0.2, 0.8)

    def test_off_passes_even_garbage(self):
        lower, upper = guard_interval(float("nan"), -1.0, "off")
        assert np.isnan(lower) and upper == -1.0

    def test_benign_float_inversion_is_reordered_under_every_policy(self):
        for policy in ("repair", "warn", "raise"):
            lower, upper = guard_interval(0.5 + 1e-12, 0.5, policy)
            assert lower <= upper

    def test_repair_widens_to_envelope(self):
        stats = TraversalStats()
        lower, upper = guard_interval(
            float("nan"), 0.8, "repair", stats, ceiling=2.0
        )
        assert (lower, upper) == (0.0, 2.0)
        assert stats.extras[REPAIRS_KEY] == 1.0

    def test_repair_on_genuine_inversion(self):
        lower, upper = guard_interval(0.9, 0.1, "repair", ceiling=3.0)
        assert (lower, upper) == (0.0, 3.0)

    def test_warn_repairs_and_warns(self):
        with pytest.warns(GuardWarning, match="threshold"):
            lower, upper = guard_interval(
                float("inf"), float("inf"), "warn", site="threshold"
            )
        assert np.isfinite(lower)

    def test_raise_carries_site_and_detail(self):
        with pytest.raises(InvariantViolation, match="root") as info:
            guard_interval(float("nan"), 1.0, "raise", site="root")
        assert info.value.site == "root"
        assert "non-finite" in info.value.detail


class TestGuardIntervalArrays:
    def test_mixed_batch_repairs_only_bad_rows(self):
        stats = TraversalStats()
        lower = np.array([0.1, np.nan, 0.9, 0.3])
        upper = np.array([0.5, 0.6, 0.2, 0.7])
        ceiling = np.array([1.0, 2.0, 3.0, 4.0])
        out_l, out_u, bad = guard_interval_arrays(
            lower, upper, "repair", stats, ceiling=ceiling
        )
        assert list(bad) == [False, True, True, False]
        assert out_l[1] == 0.0 and out_u[1] == 2.0  # per-node ceiling applied
        assert out_l[2] == 0.0 and out_u[2] == 3.0
        assert out_l[0] == 0.1 and out_u[3] == 0.7  # good rows untouched
        assert stats.extras[REPAIRS_KEY] == 2.0
        assert np.isnan(lower[1])  # inputs not mutated

    def test_clean_batch_returns_inputs_without_copy(self):
        lower = np.array([0.1, 0.2])
        upper = np.array([0.3, 0.4])
        out_l, out_u, bad = guard_interval_arrays(lower, upper, "repair")
        assert out_l is lower and out_u is upper
        assert not bad.any()

    def test_infinite_upper_is_repaired_with_lazy_ceiling(self):
        stats = TraversalStats()
        out_l, out_u, bad = guard_interval_arrays(
            np.array([0.1, 0.2]), np.array([0.3, np.inf]), "repair", stats,
            ceiling=lambda: np.array([1.0, 2.0]),
        )
        assert list(bad) == [False, True]
        assert out_l[1] == 0.0 and out_u[1] == 2.0
        assert out_l[0] == 0.1 and out_u[0] == 0.3

    def test_clean_batch_never_builds_the_ceiling(self):
        def ceiling():
            raise AssertionError("ceiling built for a clean batch")

        guard_interval_arrays(
            np.array([0.1, 0.2]), np.array([0.1, 0.4]), "repair", ceiling=ceiling
        )

    def test_raise_reports_first_offender(self):
        with pytest.raises(InvariantViolation, match="offset 1"):
            guard_interval_arrays(
                np.array([0.1, np.inf]), np.array([0.2, np.inf]), "raise"
            )

    def test_warn_counts_all_offenders(self):
        with pytest.warns(GuardWarning, match="2 invariant violation"):
            guard_interval_arrays(
                np.array([np.nan, 5.0, 0.0]),
                np.array([1.0, 1.0, 1.0]),
                "warn",
            )


class TestGuardValueInInterval:
    def test_escape_is_clamped(self):
        assert guard_value_in_interval(0.0, 0.2, 0.8, "repair") == 0.2
        assert guard_value_in_interval(1.5, 0.2, 0.8, "repair") == 0.8

    def test_inside_passes(self):
        assert guard_value_in_interval(0.5, 0.2, 0.8, "repair") == 0.5

    def test_non_finite_repairs_to_midpoint(self):
        assert guard_value_in_interval(float("nan"), 0.2, 0.8, "repair") == 0.5

    def test_raise_on_escape(self):
        with pytest.raises(InvariantViolation, match="leaf"):
            guard_value_in_interval(-1.0, 0.2, 0.8, "raise")

    def test_vectorized_matches_scalar(self):
        values = np.array([0.0, 0.5, np.nan, 2.0])
        lower = np.full(4, 0.2)
        upper = np.full(4, 0.8)
        with pytest.warns(GuardWarning):
            out = guard_values_in_intervals(values, lower, upper, "warn")
        expected = [0.2, 0.5, 0.5, 0.8]
        assert np.allclose(out, expected)
        assert np.isnan(values[2])  # input untouched

    def test_vectorized_clamps_a_value_above_its_interval(self):
        out = guard_values_in_intervals(
            np.array([0.5, 2.0]), np.full(2, 0.2), np.full(2, 0.8), "repair"
        )
        assert list(out) == [0.5, 0.8]

    def test_vectorized_infinite_value_is_an_escape(self):
        with pytest.raises(InvariantViolation, match="leaf"):
            guard_values_in_intervals(
                np.array([np.inf]), np.array([0.2]), np.array([np.inf]), "raise"
            )
