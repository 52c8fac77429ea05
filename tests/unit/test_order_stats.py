"""Unit tests for order-statistic quantile confidence intervals."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.quantile.order_stats import (
    binomial_order_ci,
    normal_order_ci,
    order_statistic_coverage,
    quantile_index,
    quantile_of_sorted,
)


class TestQuantileIndex:
    def test_basic(self):
        assert quantile_index(100, 0.01) == 0  # 1st order statistic
        assert quantile_index(100, 0.5) == 49
        assert quantile_index(100, 1.0) == 99

    def test_zero_quantile(self):
        assert quantile_index(100, 0.0) == 0

    def test_rounds_up(self):
        # ceil(10 * 0.25) = 3rd smallest -> index 2.
        assert quantile_index(10, 0.25) == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quantile_index(0, 0.5)
        with pytest.raises(ValueError):
            quantile_index(10, 1.5)

    def test_quantile_of_sorted(self):
        values = np.arange(1.0, 11.0)
        assert quantile_of_sorted(values, 0.1) == 1.0
        assert quantile_of_sorted(values, 0.95) == 10.0


class TestNormalOrderCI:
    def test_matches_paper_worked_example(self):
        """Section 3.5: s=20000, delta=0.01, p=0.01 -> ranks ~[164, 236].

        The paper rounds ``200 -/+ 36.25`` to the nearest rank; we round
        conservatively outward (floor/ceil) to preserve the coverage
        guarantee, landing one rank wider on each side.
        """
        lower, upper = normal_order_ci(20_000, 0.01, 0.01)
        assert lower in (163, 164)
        assert upper in (236, 237)

    def test_brackets_expected_rank(self):
        lower, upper = normal_order_ci(1_000, 0.1, 0.05)
        assert lower <= 100 <= upper

    def test_wider_for_smaller_delta(self):
        loose = normal_order_ci(5_000, 0.05, 0.1)
        tight = normal_order_ci(5_000, 0.05, 0.001)
        assert tight[0] <= loose[0]
        assert tight[1] >= loose[1]

    def test_clamped_to_valid_ranks(self):
        lower, upper = normal_order_ci(20, 0.01, 0.01)
        assert 1 <= lower <= upper <= 20

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            normal_order_ci(0, 0.5, 0.01)
        with pytest.raises(ValueError):
            normal_order_ci(100, 0.0, 0.01)
        with pytest.raises(ValueError):
            normal_order_ci(100, 0.5, 1.0)


class TestBinomialOrderCI:
    def test_coverage_at_least_target(self):
        for s, p, delta in [(100, 0.1, 0.05), (1000, 0.01, 0.01), (50, 0.3, 0.1)]:
            lower, upper = binomial_order_ci(s, p, delta)
            coverage = order_statistic_coverage(s, p, lower, upper)
            assert coverage >= 1.0 - delta - 1e-9

    def test_close_to_normal_for_large_samples(self):
        exact = binomial_order_ci(50_000, 0.01, 0.01)
        approx = normal_order_ci(50_000, 0.01, 0.01)
        assert abs(exact[0] - approx[0]) <= 5
        assert abs(exact[1] - approx[1]) <= 5


class TestCoverage:
    def test_full_range_has_high_coverage(self):
        assert order_statistic_coverage(100, 0.5, 1, 100) > 0.999

    def test_empty_interval_low_coverage(self):
        assert order_statistic_coverage(100, 0.5, 50, 50) < 0.2

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            order_statistic_coverage(10, 0.5, 0, 5)
        with pytest.raises(ValueError):
            order_statistic_coverage(10, 0.5, 7, 3)

    def test_monte_carlo_coverage(self, rng):
        """Empirical check of Equation 10 on simulated subsamples."""
        population = rng.normal(size=5_000)
        p, delta, s = 0.1, 0.05, 400
        true_quantile = np.sort(population)[int(5_000 * p) - 1]
        lower, upper = binomial_order_ci(s, p, delta)
        hits = 0
        trials = 300
        for __ in range(trials):
            sample = np.sort(rng.choice(population, size=s, replace=False))
            if sample[lower - 1] <= true_quantile <= sample[upper - 1]:
                hits += 1
        # Allow generous slack: 300 trials of a >= 95% event.
        assert hits / trials >= 0.88


class TestAgainstScipy:
    """The scipy-free distributions give scipy's ranks and coverages.

    Sizes span the threshold bootstrap's samples and the drift monitor's
    windows; ``p`` and ``delta`` span the configurations in use.
    """

    SIZES = [*range(1, 41), 64, 100, 128, 200, 256, 500, 512, 528, 1000, 1024,
             2048, 4096, 5000, 8192, 10_000, 16_384, 20_000, 50_000]
    PS = [0.001, 0.01, 0.02, 0.05, 0.1, 0.5, 0.9]
    DELTAS = [1e-4, 0.001, 0.01, 0.05, 0.1, 0.5]

    def test_normal_ranks(self):
        stats = pytest.importorskip("scipy.stats")
        for size in self.SIZES:
            for p in self.PS:
                for delta in self.DELTAS:
                    z = stats.norm.ppf(1.0 - delta / 2.0)
                    center, spread = size * p, z * np.sqrt(size * p * (1.0 - p))
                    lower = min(max(int(np.floor(center - spread)), 1), size)
                    upper = min(max(int(np.ceil(center + spread)), lower), size)
                    assert normal_order_ci(size, p, delta) == (lower, upper), (size, p, delta)

    def test_binomial_ranks_and_coverage(self):
        stats = pytest.importorskip("scipy.stats")
        for size in self.SIZES:
            for p in self.PS:
                for delta in self.DELTAS:
                    lower = int(stats.binom.ppf(delta / 2.0, size, p))
                    upper = int(stats.binom.ppf(1.0 - delta / 2.0, size, p)) + 1
                    lower = min(max(lower, 1), size)
                    upper = min(max(upper, lower), size)
                    assert binomial_order_ci(size, p, delta) == (lower, upper), (size, p, delta)
                    expected = stats.binom.cdf(upper, size, p) - stats.binom.cdf(lower - 1, size, p)
                    assert order_statistic_coverage(size, p, lower, upper) == pytest.approx(
                        expected, rel=0.0, abs=1e-9
                    )


def test_library_import_does_not_load_scipy():
    script = (
        "import sys, repro, repro.cli, repro.serve.daemon; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"
