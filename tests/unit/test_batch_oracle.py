"""The batch engine's round loop against the parent loop kept as an oracle.

``tests/unit/batch_oracle.py`` keeps the round loop as it was before its
per-round numpy calls were cut. Every case here runs both on the same
inputs and requires bit-identical results: lower and upper bounds (as
raw float64 bits), outcome codes, ``degraded``, every ``TraversalStats``
field including ``extras``, the fault injector's consumed ordinals, and
each ``TraceRecorder`` step and stop.
"""

import warnings

import numpy as np
import pytest

from repro.core import batch_bounds
from repro.core.batch_bounds import bound_densities
from repro.core.stats import TraversalStats
from repro.index.kdtree import KDTree
from repro.kernels.factory import KERNELS, kernel_for_data
from repro.obs.metrics import TRAVERSAL_ROUNDS
from repro.obs.registry import REGISTRY
from repro.obs.trace import TraceRecorder
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.guards import GuardWarning, InvariantViolation
from tests.unit.batch_oracle import oracle_bound_densities


def _workload(kernel_name="gaussian", dim=2, n=900, queries=48, weighted=False, seed=0):
    rng = np.random.default_rng(seed * 131 + dim)
    data = rng.normal(size=(n, dim))
    kernel = kernel_for_data(data, kernel_name)
    weights = rng.uniform(0.5, 2.0, size=n) if weighted else None
    tree = KDTree(kernel.scale(data), leaf_size=12, weights=weights)
    flat = tree.flatten()
    # Half near the data, half spread over a wider box: both pruning
    # rules, deep traversals and early stops all occur.
    near = data[rng.choice(n, queries // 2, replace=False)] + rng.normal(
        scale=0.2, size=(queries // 2, dim)
    )
    far = rng.uniform(-3.0, 3.0, size=(queries - queries // 2, dim))
    scaled_queries = kernel.scale(np.concatenate((near, far)))
    densities = kernel.sums_at(flat.points, scaled_queries, flat.point_weights)
    t = float(np.quantile(densities / flat.total_weight, 0.4))
    return flat, kernel, scaled_queries, t


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def _run(engine, flat, kernel, queries, t_lower, t_upper, eps, plan=None, trace=False,
         **kwargs):
    stats = TraversalStats()
    faults = None if plan is None else FaultInjector(plan)
    recorder = TraceRecorder(engine="batch") if trace else None
    error = None
    result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = engine(
                flat, kernel, queries, t_lower, t_upper, eps, stats,
                faults=faults, trace=recorder, **kwargs,
            )
        except InvariantViolation as exc:
            error = str(exc)
    return {
        "result": result,
        "stats": stats,
        "faults": None if faults is None else (
            faults._bound_ordinal, faults._leaf_ordinal, faults.fired
        ),
        # repr() is exact for floats and makes NaN compare equal to NaN.
        "trace": None if recorder is None else repr(
            [trace_.to_dict() for trace_ in recorder.traces()]
        ),
        "error": error,
        "warnings": [str(w.message) for w in caught if issubclass(w.category, GuardWarning)],
    }


def assert_matches_oracle(flat, kernel, queries, t_lower, t_upper=None, eps=0.01, **kwargs):
    t_upper = t_lower if t_upper is None else t_upper
    got = _run(bound_densities, flat, kernel, queries, t_lower, t_upper, eps, **kwargs)
    want = _run(oracle_bound_densities, flat, kernel, queries, t_lower, t_upper, eps, **kwargs)
    assert got["error"] == want["error"]
    assert got["warnings"] == want["warnings"]
    assert got["faults"] == want["faults"]
    assert got["stats"] == want["stats"]
    assert got["trace"] == want["trace"]
    if want["error"] is not None:
        return got
    result, expected = got["result"], want["result"]
    np.testing.assert_array_equal(_bits(result.lower), _bits(expected.lower))
    np.testing.assert_array_equal(_bits(result.upper), _bits(expected.upper))
    np.testing.assert_array_equal(result.outcome_codes, expected.outcome_codes)
    np.testing.assert_array_equal(result.degraded, expected.degraded)
    return got


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("dim", [1, 2, 3, 27])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_kernels_dims_and_weights(kernel_name, dim, weighted):
    flat, kernel, queries, t = _workload(kernel_name, dim, weighted=weighted)
    assert_matches_oracle(flat, kernel, queries, t, guard_policy="repair")


@pytest.mark.parametrize("guard_policy", ["off", "repair"])
@pytest.mark.parametrize("block_size", [1, 5, 2048])
def test_block_sizes(guard_policy, block_size):
    flat, kernel, queries, t = _workload(seed=1)
    assert_matches_oracle(
        flat, kernel, queries, t, guard_policy=guard_policy, block_size=block_size
    )


def test_bracketed_threshold():
    flat, kernel, queries, t = _workload(seed=2)
    assert_matches_oracle(flat, kernel, queries, 0.5 * t, 2.0 * t)


def test_per_query_thresholds():
    flat, kernel, queries, t = _workload(seed=3)
    rng = np.random.default_rng(3)
    shifted = t * rng.uniform(-0.5, 1.5, size=queries.shape[0])
    assert_matches_oracle(
        flat, kernel, queries, shifted, shifted, tolerance_reference=t, block_size=7
    )


@pytest.mark.parametrize("shift", [-0.3, 0.25])
def test_threshold_shift(shift):
    flat, kernel, queries, t = _workload(seed=4)
    assert_matches_oracle(flat, kernel, queries, t, threshold_shift=shift * t)


@pytest.mark.parametrize("eta_share", [0.001, 0.004])
def test_eta(eta_share):
    flat, kernel, queries, t = _workload(seed=5)
    assert_matches_oracle(flat, kernel, queries, t, eta=eta_share * t)


@pytest.mark.parametrize(
    "rules",
    [(False, True), (True, False), (False, False)],
    ids=["no-threshold-rule", "no-tolerance-rule", "no-rules"],
)
def test_rules_switched_off(rules):
    flat, kernel, queries, t = _workload(n=400, queries=12, seed=6)
    assert_matches_oracle(
        flat, kernel, queries, t,
        use_threshold_rule=rules[0], use_tolerance_rule=rules[1],
    )


@pytest.mark.parametrize("budget", [1, 3, 10, 40])
def test_budgets(budget):
    flat, kernel, queries, t = _workload(seed=7)
    got = assert_matches_oracle(flat, kernel, queries, t, max_expansions=budget)
    if budget <= 10:
        assert got["result"].degraded.any()


_FAULT_PLANS = {
    "bound-nan": FaultPlan(corrupt_bound_nodes=(0, 3, 17, 40)),
    "bound-inf": FaultPlan(corrupt_bound_nodes=(1, 9, 33), corrupt_bound_mode="inf"),
    "bound-invert": FaultPlan(corrupt_bound_nodes=(2, 5, 60), corrupt_bound_mode="invert"),
    "leaf-underflow": FaultPlan(underflow_leaves=(0, 4, 11)),
    "leaf-nan": FaultPlan(underflow_leaves=(1, 7), underflow_value=float("nan")),
    "rates": FaultPlan(bound_rate=0.02, leaf_rate=0.05, seed=11),
}


@pytest.mark.parametrize("guard_policy", ["off", "repair", "warn", "raise"])
@pytest.mark.parametrize("plan", sorted(_FAULT_PLANS))
def test_guards_under_faults(guard_policy, plan):
    flat, kernel, queries, t = _workload(seed=8)
    got = assert_matches_oracle(
        flat, kernel, queries, t, guard_policy=guard_policy, plan=_FAULT_PLANS[plan],
        block_size=16,
    )
    assert got["faults"][2] > 0  # the plan fired


@pytest.mark.parametrize("guard_policy", ["off", "repair"])
def test_trace_steps_and_stops(guard_policy):
    flat, kernel, queries, t = _workload(seed=9, queries=20)
    got = assert_matches_oracle(
        flat, kernel, queries, t, guard_policy=guard_policy, trace=True,
        max_expansions=25, plan=FaultPlan(corrupt_bound_nodes=(4,)),
    )
    assert got["trace"].count("'query_index'") == queries.shape[0]


def test_trace_of_poisoned_intervals():
    flat, kernel, queries, t = _workload(seed=10, queries=10)
    # Unguarded, an infinite leaf sum poisons the running interval and
    # every later rule test and trace step sees it.
    assert_matches_oracle(
        flat, kernel, queries, t, guard_policy="off", trace=True,
        plan=FaultPlan(underflow_leaves=(0, 1, 2), underflow_value=float("inf")),
    )


def test_block_that_packs_its_frontier(monkeypatch):
    flat, kernel, queries, t = _workload(n=1500, queries=6, seed=12)
    packs = []
    original = batch_bounds._pack_frontier

    def spy(*args):
        packs.append(args[-1])
        return original(*args)

    monkeypatch.setattr(batch_bounds, "_pack_frontier", spy)
    # With the tolerance rule off and a threshold no query settles on,
    # traversals run long enough to outgrow the 64 initial columns.
    assert_matches_oracle(
        flat, kernel, queries, t, use_tolerance_rule=False, eps=0.0, trace=True,
    )
    assert packs


def test_rounds_histogram_counts_slowest_query():
    flat, kernel, queries, t = _workload(seed=13, queries=30)
    REGISTRY.enable()
    child = TRAVERSAL_ROUNDS.labels("batch")
    count, total = child.count, child.snapshot()["sum"]
    recorder = TraceRecorder(engine="batch")
    bound_densities(
        flat, kernel, queries, t, t, 0.01, TraversalStats(), block_size=10, trace=recorder,
    )
    # Each query's trace holds its root bounds plus one entry per pop.
    pops = np.array([len(trace.bounds) - 1 for trace in recorder.traces()])
    assert child.count == count + 3
    assert child.snapshot()["sum"] == total + sum(
        int(pops[begin : begin + 10].max()) for begin in range(0, 30, 10)
    )
