"""``offline-2d``: the library's large-batch path, ``fit`` then repeated ``classify``.

Fit on ``make_gauss(50_000, d=2)``; classify 8192 queries, half from the
same generator under another seed and half uniform over the training
bounding box, so some queries hit the grid cache and the rest traverse
the tree. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import spans
from perfbench.common import (
    HostSpeed, Outcome, box_queries, derived_seed, median, own_peak_rss_mb, percentile,
)

N_TRAIN = 50_000
N_QUERIES = 8192
#: Queries also classified by the per-query reference engine.
PER_QUERY_CHECK = 256
#: Fits timed per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Highest percentile with at least ten classify passes beyond it in a run.
TAIL_Q = 0.8

#: Self-time layers of one fit, metric name -> span name under the fit root.
FIT_LAYERS = {
    "kernels.bandwidth_s": "kernels.bandwidth",
    "index.kdtree_build_s": "index.kdtree_build",
    "index.flatten_s": "index.flatten",
    "core.grid.build_s": "core.grid.build",
    "core.threshold.bootstrap_s": "core.threshold.bootstrap",
    "core.batch_bounds.bootstrap_s": "core.batch_bounds.bootstrap",
    "core.batch_bounds.fit_score_s": "core.batch_bounds",
}
#: Per-pass layers of a classify call; together they cover its span.
CLASSIFY_LAYERS = ("core.grid.lookup_s", "core.batch_bounds.traverse_s", "core.classifier.self_s")
FIT_ROOT = "core.classifier.fit"
CLASSIFY_ROOT = "core.classifier.classify"

#: TraversalStats counters; for one seed they must repeat exactly.
COUNTER_FIELDS = (
    "kernel_evaluations", "node_expansions", "queries", "grid_hits",
    "threshold_prunes_high", "threshold_prunes_low", "tolerance_prunes", "exhausted",
)


def make_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training set and query set, from ``seed`` alone."""
    from repro.datasets.generators import make_gauss

    train = make_gauss(N_TRAIN, d=2, seed=seed)
    half = N_QUERIES // 2
    queries = np.concatenate([
        make_gauss(half, d=2, seed=derived_seed(seed, 1)),
        box_queries(train, N_QUERIES - half, derived_seed(seed, 2)),
    ])
    return train, queries


def counters(stats) -> dict[str, int]:
    return {name: int(getattr(stats, name)) for name in COUNTER_FIELDS}


def timed_fit(data: np.ndarray, seed: int, out: Outcome):
    """One fit under the default config; checks the exact-p*n LOW count."""
    from repro import TKDCClassifier, TKDCConfig
    from repro.core.result import Label

    config = TKDCConfig(seed=seed)
    started = time.perf_counter()
    clf = TKDCClassifier(config).fit(data)
    elapsed = time.perf_counter() - started
    lows = int(np.count_nonzero(clf.training_labels_ == Label.LOW))
    out.check("fit_low_count_is_p_n", lows == round(config.p * data.shape[0]))
    return clf, elapsed


def fit_layer_metrics(agg: dict, fit_seconds: float) -> tuple[dict[str, float], float]:
    """Self times of one traced fit, its residual, and the stopwatch gap."""
    metrics = {
        name: spans.self_time(agg, FIT_ROOT, span) for name, span in FIT_LAYERS.items()
    }
    covered = spans.root_self_sum(agg, FIT_ROOT)
    metrics["fit.unattributed_s"] = covered - sum(metrics.values())
    return metrics, fit_seconds - covered


def fit_layer_sum(metrics: dict) -> float:
    """What the fit layers and the fit residual add up to (the traced fit)."""
    return sum(metrics[k] for k in FIT_LAYERS) + metrics["fit.unattributed_s"]


def traversal_ratios(delta: dict, rows: int) -> dict[str, float]:
    """Machine-independent per-query ratios of one stretch of classify work."""
    traversed = delta["queries"]
    share = (lambda k: k / traversed) if traversed else (lambda k: 0.0)
    return {
        "core.grid.hit_ratio": delta["grid_hits"] / rows,
        "core.batch_bounds.kernel_evals_per_query": delta["kernel_evaluations"] / rows,
        "core.batch_bounds.node_expansions_per_query": delta["node_expansions"] / rows,
        "core.pruning.threshold_rule_share": share(
            delta["threshold_prunes_high"] + delta["threshold_prunes_low"]
        ),
        "core.pruning.tolerance_rule_share": share(delta["tolerance_prunes"]),
        "core.pruning.exhausted_share": share(delta["exhausted"]),
    }


def classify_pass(clf, queries, reference, out: Outcome) -> tuple[float, dict]:
    """One timed ``classify(queries)``; returns its time and counter delta."""
    before = counters(clf.stats)
    started = time.perf_counter()
    labels = clf.classify(queries)
    elapsed = time.perf_counter() - started
    out.check("labels_repeat_across_passes", bool(np.array_equal(labels, reference)))
    after = counters(clf.stats)
    return elapsed, {name: after[name] - before[name] for name in after}


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    train, queries = make_inputs(seed)

    # Set-up: the same fit several times; with tracing, the last one is traced.
    host = HostSpeed()
    tracer = spans.Tracer()
    setups, fit_probes, fit_counters = [], [host.probe(3)], []
    n_setups = 2 if traced else SETUPS
    for index in range(n_setups):
        undo = spans.install(tracer) if traced and index == n_setups - 1 else None
        try:
            clf, elapsed = timed_fit(train, seed, out)
        finally:
            if undo is not None:
                spans.uninstall(undo)
        setups.append(elapsed)
        fit_probes.append(host.probe(3))
        fit_counters.append(counters(clf.stats))
    fit_spans = tracer.snapshot()
    scaled_setups = [
        elapsed * HostSpeed.scale((before + after) / 2.0)
        for elapsed, before, after in zip(setups, fit_probes, fit_probes[1:])
    ]
    out.check("fit_counters_repeat", all(c == fit_counters[0] for c in fit_counters))

    reference = clf.classify(queries)  # warm-up pass
    out.op(True)
    subsample = np.arange(0, N_QUERIES, N_QUERIES // PER_QUERY_CHECK)
    per_query = clf.classify(queries[subsample], engine="per-query")
    out.check("batch_matches_per_query_engine",
              bool(np.array_equal(per_query, reference[subsample])))

    # Each untraced pass follows a host probe. Traced passes alternate with
    # untraced ones, so drift hits both alike.
    tracer.reset()
    times, scaled, traced_times, deltas = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        probe = host.probe()
        elapsed, delta = classify_pass(clf, queries, reference, out)
        times.append(elapsed)
        scaled.append(elapsed * HostSpeed.scale(probe))
        deltas.append(delta)
        if traced:
            undo = spans.install(tracer)
            try:
                elapsed, delta = classify_pass(clf, queries, reference, out)
            finally:
                spans.uninstall(undo)
            traced_times.append(elapsed)
            deltas.append(delta)
    out.check("pass_counters_repeat", all(d == deltas[0] for d in deltas))

    fit_work = fit_counters[0]
    ratios = traversal_ratios(deltas[0], N_QUERIES)
    out.detail.update({
        "setup_samples_s": setups,
        "host_probe_ms": median(host.samples) * 1e3,
        "raw": {
            "setup_s": median(setups),
            "classify_qps": N_QUERIES / median(times),
            "latency_p50_ms": median(times) * 1e3,
            "latency_tail_ms": percentile(times, TAIL_Q) * 1e3,
        },
        "pass_samples": len(times),
        "queries_per_pass": N_QUERIES,
        "latency_tail_q": TAIL_Q,
        "requests_per_s": len(times) / sum(times),
        "fit.kernel_evals": fit_work["kernel_evaluations"],
        "fit.node_expansions": fit_work["node_expansions"],
        "classify_counters_per_pass": deltas[0],
        **ratios,
    })
    out.end_to_end.update({
        "setup_s": median(scaled_setups),
        "classify_qps": N_QUERIES / median(scaled),
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_tail_ms": percentile(scaled, TAIL_Q) * 1e3,
        "peak_rss_mb": own_peak_rss_mb(),
    })
    if traced:
        out.per_layer.update(layers(fit_spans, setups[-1], tracer.snapshot(), traced_times, times))
        out.detail["reconcile_s"] = {
            "fit": [fit_layer_sum(out.per_layer), setups[-1]],
            "classify_pass": [
                sum(out.per_layer[k] for k in CLASSIFY_LAYERS),
                sum(traced_times) / len(traced_times),
            ],
        }
        out.per_layer.update({
            "fit.kernel_evals": fit_work["kernel_evaluations"],
            "fit.node_expansions": fit_work["node_expansions"],
            **ratios,
        })
    return out


def layers(fit_agg, fit_seconds, agg, traced_times, times) -> dict[str, float]:
    """Per-layer times of the traced fit and traced passes, and the trace's own cost."""
    metrics, fit_gap = fit_layer_metrics(fit_agg, fit_seconds)
    passes = len(traced_times)
    lookup = spans.self_time(agg, CLASSIFY_ROOT, "core.grid.lookup")
    traverse = spans.self_time(agg, CLASSIFY_ROOT, "core.batch_bounds")
    covered = spans.root_self_sum(agg, CLASSIFY_ROOT)
    metrics.update({
        "core.grid.lookup_s": lookup / passes,
        "core.batch_bounds.traverse_s": traverse / passes,
        "core.classifier.self_s": (covered - lookup - traverse) / passes,
    })
    untraced = median(times)
    metrics["trace.overhead_share"] = (median(traced_times) - untraced) / untraced
    pass_gap = sum(traced_times) - covered
    metrics["trace.unattributed_share"] = (
        (metrics["fit.unattributed_s"] + fit_gap + pass_gap) / (fit_seconds + sum(traced_times))
    )
    return metrics
