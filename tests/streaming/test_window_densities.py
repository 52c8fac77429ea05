"""Drift evidence from the classify traversal.

``window_densities`` feeds the drift monitor with the intervals the
classifier decided each window point on. Threshold-pruned estimates can
be far from the exact density but stay on its side of ``t(1 ± eps)``,
so a window the exact-density test calls stable must never be reported
as drifted (the argument is in :mod:`repro.streaming.monitor`).
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro import TKDCClassifier, TKDCConfig
from repro.baselines.simple import NaiveKDE
from repro.obs.registry import REGISTRY, render_prometheus
from repro.streaming.monitor import DriftMonitor
from repro.streaming.pipeline import window_densities

WINDOW = 128


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(3000, 2))
    classifier = TKDCClassifier(TKDCConfig(p=0.05, seed=11)).fit(data)
    return classifier, NaiveKDE().fit(data)


@pytest.mark.parametrize("budget", [None, 3])
def test_stable_exact_decision_is_never_reported_as_drift(fitted, budget):
    classifier, exact = fitted
    if budget is not None:
        classifier = copy.copy(classifier)
        classifier.config = replace(classifier.config, max_node_expansions=budget)
    t = classifier.threshold.value
    tolerance = classifier.config.epsilon * t
    outcomes = {"stable": 0, "drifted": 0}
    for seed in range(40):
        rng = np.random.default_rng(seed)
        # Windows from barely to clearly moved distributions, so the
        # exact-density test lands on both sides.
        window = rng.normal(size=(WINDOW, 2)) * rng.uniform(0.7, 1.6) + rng.uniform(0, 1.5)
        reference = DriftMonitor(p=0.05, window=WINDOW).observe(exact.density(window), t)
        decision = DriftMonitor(p=0.05, window=WINDOW).observe(
            window_densities(classifier, window), t, tolerance=tolerance
        )
        outcomes["drifted" if reference.drifted else "stable"] += 1
        if not reference.drifted:
            assert not decision.drifted, (seed, decision.as_dict())
    assert outcomes["stable"] >= 5 and outcomes["drifted"] >= 5, outcomes


def test_estimates_sit_on_the_exact_density_side_or_within_half_band(fitted):
    classifier, exact = fitted
    t = classifier.threshold.value
    eps = classifier.config.epsilon
    window = np.random.default_rng(5).uniform(-4, 4, size=(400, 2))
    estimates = window_densities(classifier, window)
    truth = exact.density(window)
    near = np.abs(estimates - truth) <= eps * t / 2 * (1 + 1e-9)
    same_side_high = (estimates > t * (1 + eps)) & (truth > t * (1 + eps))
    same_side_low = (estimates < t * (1 - eps)) & (truth < t * (1 - eps))
    assert np.all(near | same_side_high | same_side_low)
    assert np.count_nonzero(~near) > 0  # threshold prunes did occur


def test_status_and_metrics_report_drift_check_seconds(pipeline_factory):
    pipeline = pipeline_factory()
    assert pipeline.status()["drift_check_seconds"] == {"last": None, "max": 0.0}
    pipeline.ingest(np.random.default_rng(7).normal(size=(64, 2)) * 0.5)
    pipeline.check_drift_once()
    seconds = pipeline.status()["drift_check_seconds"]
    assert 0.0 < seconds["last"] <= seconds["max"]
    if REGISTRY.enabled:
        assert 'tkdc_drift_check_seconds{stat="max"}' in render_prometheus(REGISTRY)


@pytest.mark.parametrize("size, testable", [(256, False), (600, True)])
def test_low_side_runs_only_when_its_tail_fits_the_window(size, testable):
    """At p = delta = 0.01 the low side needs (1 - p)^s < delta / 2, i.e. s >= 528."""
    monitor = DriftMonitor(p=0.01, delta=0.01, window=size)
    window = np.random.default_rng(0).uniform(0.5, 1.0, size=size)  # all above t
    decision = monitor.observe(window, 0.01)
    assert decision.drifted is testable
    assert decision.reason == ("drift_low" if testable else "stable")


def test_small_window_false_alarm_rate_stays_under_delta():
    """Uniform densities put the true 0.01-quantile at 0.01 exactly."""
    monitor = DriftMonitor(p=0.01, delta=0.01, window=256)
    rng = np.random.default_rng(1)
    violations = sum(
        monitor.observe(rng.uniform(size=256), 0.01).drifted for __ in range(2000)
    )
    assert violations / 2000 <= 0.01 + 3 * np.sqrt(0.01 * 0.99 / 2000)
