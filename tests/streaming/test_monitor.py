"""Unit tests for the order-statistic drift monitor.

The monitor is a pure state machine over injected density windows and an
injected clock, so every branch — including the statistical
false-positive guarantee — is exercised without fitting a model or
sleeping.
"""

import numpy as np
import pytest

from repro.streaming import DriftMonitor

P = 0.1
DELTA = 0.05
WINDOW = 64


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_monitor(**overrides) -> DriftMonitor:
    kwargs = dict(p=P, delta=DELTA, window=WINDOW, hysteresis=2,
                  min_refit_interval=0.0, clock=FakeClock())
    kwargs.update(overrides)
    return DriftMonitor(**kwargs)


def stable_window(rng: np.random.Generator) -> np.ndarray:
    """Uniform(0,1) densities: the true p-quantile is exactly p."""
    return rng.uniform(size=WINDOW)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(p=0.0), dict(p=1.0), dict(delta=0.0), dict(delta=1.0),
        dict(window=4), dict(hysteresis=0), dict(min_refit_interval=-1.0),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            make_monitor(**bad)


class TestDecisions:
    def test_window_filling(self):
        monitor = make_monitor()
        decision = monitor.observe(np.linspace(0, 1, WINDOW - 1), P)
        assert not decision.checked
        assert decision.reason == "window_filling"
        assert monitor.checks == 0

    def test_nonfinite_densities_do_not_count(self):
        monitor = make_monitor()
        densities = np.full(WINDOW, np.nan)
        densities[:10] = 0.5
        decision = monitor.observe(densities, P)
        assert decision.reason == "window_filling"
        assert decision.window == 10

    def test_stable_at_true_quantile(self):
        monitor = make_monitor()
        rng = np.random.default_rng(0)
        decision = monitor.observe(stable_window(rng), P)
        assert decision.checked and not decision.drifted
        assert decision.reason == "stable"
        assert decision.ci_lower <= P <= decision.ci_upper

    def test_drift_low_and_high_reasons(self):
        rng = np.random.default_rng(0)
        window = stable_window(rng)
        low = make_monitor().observe(window, -1.0)
        assert low.drifted and low.reason == "drift_low"
        high = make_monitor().observe(window, 2.0)
        assert high.drifted and high.reason == "drift_high"

    def test_tolerance_widens_acceptance(self):
        rng = np.random.default_rng(0)
        window = stable_window(rng)
        bare = make_monitor().observe(window, 2.0)
        assert bare.drifted
        widened = make_monitor().observe(window, 2.0, tolerance=3.0)
        assert not widened.drifted


class TestTestableSides:
    def test_low_side_needs_528_points_at_p_001(self):
        monitor = make_monitor(p=0.01, delta=0.01)
        assert monitor.testable_sides(256) == (False, True)
        assert monitor.testable_sides(527) == (False, True)
        assert monitor.testable_sides(528) == (True, True)
        assert monitor.testable_sides(600) == (True, True)

    def test_decisions_carry_the_sides(self):
        monitor = make_monitor(p=0.01, delta=0.01, window=256)
        rng = np.random.default_rng(0)
        filling = monitor.observe(rng.uniform(size=10), 0.01).as_dict()
        checked = monitor.observe(rng.uniform(size=256), 0.01).as_dict()
        for decision in (filling, checked):
            assert (decision["low_testable"], decision["high_testable"]) == (False, True)
        wide = monitor.observe(rng.uniform(size=600), 0.01, window=600).as_dict()
        assert (wide["low_testable"], wide["high_testable"]) == (True, True)


class TestHysteresis:
    def test_fires_only_after_consecutive_violations(self):
        monitor = make_monitor(hysteresis=2)
        rng = np.random.default_rng(1)
        first = monitor.observe(stable_window(rng), 2.0)
        assert first.drifted and not first.fired
        assert first.consecutive == 1
        second = monitor.observe(stable_window(rng), 2.0)
        assert second.fired and second.consecutive == 2
        assert monitor.fires == 1

    def test_stable_check_resets_the_run(self):
        monitor = make_monitor(hysteresis=2)
        rng = np.random.default_rng(2)
        monitor.observe(stable_window(rng), 2.0)
        # Guaranteed-stable check (tolerance swallows the gap): run broken.
        monitor.observe(stable_window(rng), P, tolerance=10.0)
        third = monitor.observe(stable_window(rng), 2.0)
        assert third.drifted and not third.fired
        assert third.consecutive == 1

    def test_min_refit_interval_gates_fire(self):
        clock = FakeClock()
        monitor = make_monitor(hysteresis=1, min_refit_interval=10.0,
                               clock=clock)
        rng = np.random.default_rng(3)
        assert monitor.observe(stable_window(rng), 2.0).fired
        monitor.note_refit()
        clock.now = 5.0  # inside the interval
        held = monitor.observe(stable_window(rng), 2.0)
        assert held.drifted and not held.fired
        assert held.reason == "refit_interval"
        clock.now = 15.0  # past it
        assert monitor.observe(stable_window(rng), 2.0).fired

    def test_note_refit_resets_consecutive(self):
        monitor = make_monitor(hysteresis=3)
        rng = np.random.default_rng(4)
        monitor.observe(stable_window(rng), 2.0)
        monitor.observe(stable_window(rng), 2.0)
        monitor.note_refit()
        after = monitor.observe(stable_window(rng), 2.0)
        assert after.consecutive == 1 and not after.fired


class TestFalsePositiveRate:
    def test_iid_stream_never_fires(self):
        """Satellite guarantee: on an i.i.d. stream the per-check
        violation rate stays near delta and hysteresis suppresses every
        fire (fixed seeds make this fully deterministic)."""
        checks = violations = fires = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            monitor = make_monitor(delta=0.01, hysteresis=2)
            for __ in range(6):
                decision = monitor.observe(stable_window(rng), P)
                checks += 1
                violations += int(decision.drifted)
                fires += int(decision.fired)
        assert fires == 0
        # Violation rate is one Binomial(checks, <=delta) draw; allow
        # generous sampling slack above the nominal level.
        assert violations / checks <= 0.01 + 3 * np.sqrt(0.01 / checks)
