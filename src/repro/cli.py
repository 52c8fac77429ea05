"""Command-line interface: run any paper experiment or a quick demo.

Usage examples::

    python -m repro list
    python -m repro run fig7 --n 4000
    python -m repro run fig9 --seed 1 --save
    python -m repro demo
    python -m repro explain queries.csv --model model.tkdc
    python -m repro metrics-dump --model model.tkdc --queries queries.csv
    python -m repro bench run --suite smoke
    python -m repro bench report smoke-a smoke-b --format table
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from repro.bench.charts import ascii_bar_chart, ascii_chart
from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import save_results


def _add_run_parser(subparsers: argparse._SubParsersAction) -> None:
    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--n", type=int, default=None, help="override workload size")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--p", type=float, default=None, help="override quantile p")
    run.add_argument("--save", action="store_true", help="save rows under results/")
    run.add_argument("--svg", action="store_true",
                     help="also write the figure as results/<name>.svg")


def _add_fit_parser(subparsers: argparse._SubParsersAction) -> None:
    fit = subparsers.add_parser(
        "fit", help="train a classifier on a CSV dataset and save the model"
    )
    fit.add_argument("data", help="CSV file of training points (rows = points)")
    fit.add_argument("--model", required=True, help="output model path (.tkdc)")
    fit.add_argument("--p", type=float, default=0.01)
    fit.add_argument("--epsilon", type=float, default=0.01)
    fit.add_argument("--kernel", default="gaussian")
    fit.add_argument("--bandwidth-scale", type=float, default=1.0)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--header", action="store_true", help="CSV has a header row")
    fit.add_argument("--coreset", choices=["uniform", "merge-reduce"], default=None,
                     help="compress the training set with this coreset "
                          "construction before indexing")
    fit.add_argument("--coreset-fraction", type=float, default=0.05,
                     help="target coreset size as a fraction of n "
                          "(with --coreset; default 0.05)")


def _add_classify_parser(subparsers: argparse._SubParsersAction) -> None:
    classify = subparsers.add_parser(
        "classify", help="classify a CSV of query points with a saved model"
    )
    classify.add_argument("queries", help="CSV file of query points")
    classify.add_argument("--model", required=True, help="model saved by 'tkdc fit'")
    classify.add_argument("--output", default=None,
                          help="write labels CSV here (default: stdout)")
    classify.add_argument("--header", action="store_true", help="CSV has a header row")
    classify.add_argument("--densities", action="store_true",
                          help="also compute eps-precise density estimates")
    classify.add_argument("--max-expansions", type=int, default=None,
                          help="anytime budget: per-query cap on traversal node "
                               "expansions; capped queries return best-effort "
                               "labels flagged as degraded")
    classify.add_argument("--on-invalid", choices=["raise", "flag"], default=None,
                          help="non-finite query rows: reject the whole batch "
                               "('raise', the model default) or label them "
                               "UNCERTAIN ('flag')")


def _add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="run a saved model as a resilient long-running HTTP daemon",
        description="Serve a .tkdc model over HTTP with admission control, "
                    "deadline-aware budgets, a circuit breaker, and verified "
                    "hot reload (see docs/serving.md).",
    )
    serve.add_argument("--model", required=True, help="model saved by 'tkdc fit'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7317,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests that may wait for the one classify "
                            "slot per process; arrivals past that are "
                            "shed with a 429")
    serve.add_argument("--default-deadline-ms", type=float, default=1000.0,
                       help="deadline granted to requests that name none")
    serve.add_argument("--max-rows", type=int, default=4096,
                       help="per-request query-row ceiling (413 beyond)")
    serve.add_argument("--watchdog-grace", type=float, default=2.0,
                       help="seconds past the deadline before a wedged "
                            "handler is abandoned with a 503")
    serve.add_argument("--breaker-threshold", type=float, default=0.5,
                       help="failure rate (errors + exact-O(n) fallbacks) "
                            "that opens the circuit breaker")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       help="seconds the breaker stays open before "
                            "half-open recovery probes")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds SIGTERM waits for in-flight requests")
    serve.add_argument("--workers", type=int, default=1,
                       help="serving processes: 1 (default) is the in-process "
                            "daemon; N>1 pre-forks N workers behind a router "
                            "sharing the model over shared memory "
                            "(Linux; see docs/serving.md)")
    serve.add_argument("--streaming", action="store_true",
                       help="enable POST /ingest with drift-triggered "
                            "background refit and verified hot swap "
                            "(see docs/streaming.md)")
    serve.add_argument("--wal-dir", default=None,
                       help="directory for the ingest write-ahead log; "
                            "makes /ingest durable and enables crash "
                            "recovery (requires --streaming)")
    serve.add_argument("--fsync-policy", default="always",
                       choices=("always", "interval", "off"),
                       help="WAL durability point: 'always' fsyncs before "
                            "each ack, 'interval' batches fsyncs, 'off' "
                            "trusts the page cache")
    serve.add_argument("--fsync-interval", type=float, default=0.05,
                       help="seconds between fsyncs under "
                            "--fsync-policy=interval")
    serve.add_argument("--adaptive-window", action="store_true",
                       help="derive the drift-check window from the "
                            "observed ingest cadence (EWMA) instead of "
                            "the fixed --drift-window")
    serve.add_argument("--drift-delta", type=float, default=0.01,
                       help="per-check false-trigger level of the drift CI")
    serve.add_argument("--drift-window", type=int, default=256,
                       help="fresh points per drift check")
    serve.add_argument("--drift-hysteresis", type=int, default=2,
                       help="consecutive violating checks before a refit")
    serve.add_argument("--drift-check-interval", type=float, default=1.0,
                       help="seconds between background drift checks")
    serve.add_argument("--min-refit-interval", type=float, default=30.0,
                       help="seconds between drift-triggered refits")
    serve.add_argument("--refit-deadline", type=float, default=120.0,
                       help="per-attempt deadline of the supervised refit")
    serve.add_argument("--refit-sample-cap", type=int, default=20000,
                       help="max training rows materialized per refit")
    serve.add_argument("--sketch-capacity", type=int, default=4096,
                       help="weighted points kept by the stream sketch")


def _add_serve_worker_parser(subparsers: argparse._SubParsersAction) -> None:
    worker = subparsers.add_parser(
        "serve-worker",
        help=argparse.SUPPRESS,
        description="INTERNAL: one fleet worker process, spawned by "
                    "'tkdc serve --workers N'. Attaches the shared-memory "
                    "model plane named by --manifest and serves on an "
                    "ephemeral port announced on stdout.",
    )
    worker.add_argument("--manifest", required=True,
                        help="shared-memory model-plane manifest (JSON)")
    worker.add_argument("--config-json", default="",
                        help="ServeConfig field overrides as a JSON object")
    worker.add_argument("--worker-index", type=int, default=0)


def _add_explain_parser(subparsers: argparse._SubParsersAction) -> None:
    explain = subparsers.add_parser(
        "explain",
        help="per-query pruning audit: why each query got its label",
        description="Classify a CSV of query points with tracing enabled "
                    "and render, per query, the (f_l, f_u) bound trajectory "
                    "against the threshold band and the rule that terminated "
                    "the traversal (see docs/observability.md).",
    )
    explain.add_argument("queries", help="CSV file of query points")
    explain.add_argument("--model", required=True, help="model saved by 'tkdc fit'")
    explain.add_argument("--engine",
                         choices=["batch", "per-query", "hbe", "auto"],
                         default=None,
                         help="traversal engine (default: the model's choice)")
    explain.add_argument("--limit", type=int, default=10,
                         help="queries rendered in full (0 = all)")
    explain.add_argument("--max-steps", type=int, default=12,
                         help="trajectory steps shown per query before elision")
    explain.add_argument("--header", action="store_true", help="CSV has a header row")
    explain.add_argument("--jsonl", default=None,
                         help="also write every trace as JSONL to this path "
                              "(size-bounded sink)")


def _add_metrics_dump_parser(subparsers: argparse._SubParsersAction) -> None:
    dump = subparsers.add_parser(
        "metrics-dump",
        help="print the process-global metrics registry as Prometheus text",
        description="Without arguments, prints the registered metric families "
                    "(zeros in a fresh process). With --model and --queries, "
                    "classifies that workload first so the dump carries real "
                    "traversal counters and histograms.",
    )
    dump.add_argument("--model", default=None, help="model saved by 'tkdc fit'")
    dump.add_argument("--queries", default=None,
                      help="CSV of query points to classify before dumping")
    dump.add_argument("--engine",
                      choices=["batch", "per-query", "hbe", "auto"],
                      default=None)
    dump.add_argument("--header", action="store_true", help="CSV has a header row")


def _add_diagnose_parser(subparsers: argparse._SubParsersAction) -> None:
    diagnose = subparsers.add_parser(
        "diagnose", help="per-query cost profile of a saved model on a CSV workload"
    )
    diagnose.add_argument("queries", help="CSV file of query points")
    diagnose.add_argument("--model", required=True, help="model saved by 'tkdc fit'")
    diagnose.add_argument("--header", action="store_true", help="CSV has a header row")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tkdc",
        description="tKDC reproduction: thresholded kernel density classification",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    subparsers.add_parser("demo", help="run the 60-second quickstart demo")
    _add_run_parser(subparsers)
    _add_fit_parser(subparsers)
    _add_classify_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_serve_worker_parser(subparsers)
    _add_diagnose_parser(subparsers)
    _add_explain_parser(subparsers)
    _add_metrics_dump_parser(subparsers)
    # The bench tree lives with the orchestrator package it drives.
    from repro.orchestrator.cli import add_bench_parser

    add_bench_parser(subparsers)
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, fn in EXPERIMENTS.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:20s} {summary}")
        return 0
    if args.command == "demo":
        _demo()
        return 0
    if args.command == "fit":
        return _fit(args)
    if args.command == "classify":
        return _classify(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "serve-worker":
        return _serve_worker(args)
    if args.command == "diagnose":
        return _diagnose(args)
    if args.command == "explain":
        return _explain(args)
    if args.command == "metrics-dump":
        return _metrics_dump(args)
    if args.command == "bench":
        from repro.orchestrator.cli import run_bench

        return run_bench(args)
    return _run(args)


def _serve(args: argparse.Namespace) -> int:
    import logging

    from repro.serve import ServeConfig
    from repro.serve.daemon import serve

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        default_deadline=args.default_deadline_ms / 1000.0,
        max_rows=args.max_rows,
        watchdog_grace=args.watchdog_grace,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        drain_timeout=args.drain_timeout,
        workers=args.workers,
    )
    stream_settings = None
    if args.streaming:
        from repro.streaming import StreamSettings

        stream_settings = StreamSettings(
            drift_delta=args.drift_delta,
            monitor_window=args.drift_window,
            hysteresis=args.drift_hysteresis,
            check_interval=args.drift_check_interval,
            min_refit_interval=args.min_refit_interval,
            refit_deadline=args.refit_deadline,
            refit_sample_cap=args.refit_sample_cap,
            sketch_capacity=args.sketch_capacity,
            fsync_policy=args.fsync_policy,
            fsync_interval=args.fsync_interval,
            adaptive_window=args.adaptive_window,
        )
    return serve(
        args.model, config,
        streaming=args.streaming, stream_settings=stream_settings,
        wal_dir=args.wal_dir,
    )


def _serve_worker(args: argparse.Namespace) -> int:
    import logging

    from repro.serve.worker import main as worker_main

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s worker %(name)s %(levelname)s %(message)s",
    )
    return worker_main(args)


def _explain(args: argparse.Namespace) -> int:
    from repro.io.datasets import import_csv
    from repro.io.models import load_model

    clf = load_model(args.model)
    queries = import_csv(args.queries, has_header=args.header)
    limit = args.limit if args.limit > 0 else queries.shape[0]
    if args.jsonl is None:
        print(clf.explain(queries, engine=args.engine,
                          limit=limit, max_steps=args.max_steps))
        return 0

    # With --jsonl, classify once and feed both the sink and the
    # rendering from the same recorder.
    from repro.obs.explain import explain_traces
    from repro.obs.trace import TraceSink

    __, recorder = clf.trace_classify(queries, engine=args.engine)
    with TraceSink(args.jsonl) as sink:
        sink.write_all(recorder.traces())
    threshold = clf.threshold.value
    band = (
        threshold * (1.0 - clf.config.epsilon),
        threshold * (1.0 + clf.config.epsilon),
    )
    print(explain_traces(recorder.traces(), thresholds=band,
                         limit=limit, max_steps=args.max_steps))
    print(f"wrote {len(recorder)} traces to {args.jsonl}", file=sys.stderr)
    return 0


def _metrics_dump(args: argparse.Namespace) -> int:
    import repro.obs.metrics  # noqa: F401  (registers the shared families)
    from repro.obs.registry import REGISTRY, render_prometheus

    if (args.model is None) != (args.queries is None):
        print("metrics-dump: --model and --queries go together",
              file=sys.stderr)
        return 2
    if args.model is not None:
        from repro.io.datasets import import_csv
        from repro.io.models import load_model

        clf = load_model(args.model)
        clf.classify(import_csv(args.queries, has_header=args.header),
                     engine=args.engine)
    sys.stdout.write(render_prometheus(REGISTRY))
    return 0


def _diagnose(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import profile_queries
    from repro.io.datasets import import_csv
    from repro.io.models import load_model

    clf = load_model(args.model)
    queries = import_csv(args.queries, has_header=args.header)
    profile = profile_queries(clf, queries)
    print(profile.summary())
    print(f"(training set size for reference: {clf.tree.size} kernels "
          "per exact query)")
    return 0


def _fit(args: argparse.Namespace) -> int:
    from repro import TKDCClassifier, TKDCConfig
    from repro.io.datasets import import_csv
    from repro.io.models import save_model

    data = import_csv(args.data, has_header=args.header)
    config = TKDCConfig(
        p=args.p, epsilon=args.epsilon, kernel=args.kernel,
        bandwidth_scale=args.bandwidth_scale, seed=args.seed,
        coreset=args.coreset, coreset_fraction=args.coreset_fraction,
    )
    clf = TKDCClassifier(config).fit(data)
    path = save_model(args.model, clf)
    low = int(np.count_nonzero(np.asarray(clf.training_labels_) == 0))
    print(f"fitted on {data.shape[0]} points (d={data.shape[1]}); "
          f"threshold t({args.p}) = {clf.threshold.value:.6g}; "
          f"{low} training points below threshold")
    if clf.coreset_ is not None:
        mode = "certified" if clf.certified else "best-effort"
        print(f"coreset: {clf.coreset_.method}, k={clf.coreset_.k} of "
              f"n={clf.coreset_.n} ({clf.coreset_.compression:.1%}), "
              f"eta={clf.eta:.4g} ({mode})")
    print(f"model saved to {path}")
    return 0


def _classify(args: argparse.Namespace) -> int:
    from repro.io.datasets import import_csv
    from repro.io.models import load_model

    clf = load_model(args.model)
    overrides: dict[str, object] = {}
    if args.max_expansions is not None:
        overrides["max_node_expansions"] = args.max_expansions
    if args.on_invalid is not None:
        overrides["query_policy"] = args.on_invalid
    if overrides:
        clf.config = clf.config.with_updates(**overrides)
    queries = import_csv(args.queries, has_header=args.header)
    result = clf.classify_detailed(queries)
    labels = np.array([int(label) for label in result.resolved_labels()])
    # The degraded column appears only when something actually degraded
    # (budget stop, guard fallback, or flagged-invalid input row).
    columns = ["label"]
    if args.densities:
        columns.append("density")
        densities = clf.estimate_density(queries)
    if result.any_degraded:
        columns.append("degraded")
    lines = [",".join(columns)] if len(columns) > 1 else ["label"]
    for i, label in enumerate(labels):
        row = [str(label)]
        if args.densities:
            row.append(f"{densities[i]:.8g}")
        if result.any_degraded:
            row.append(str(int(result.degraded[i])))
        lines.append(",".join(row))
    output = "\n".join(lines) + "\n"
    summary = f"({int(np.sum(labels == 0))} LOW"
    if result.any_degraded:
        summary += (f", {result.n_degraded} degraded, "
                    f"{int(np.count_nonzero(result.uncertain))} UNCERTAIN")
    summary += ")"
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(output)
        print(f"wrote {queries.shape[0]} labels to {args.output} {summary}")
    else:
        print(output, end="")
        if result.any_degraded:
            print(f"# {summary}", file=sys.stderr)
    return 0


def _run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        fn = EXPERIMENTS[name]
        kwargs: dict[str, object] = {"seed": args.seed, "verbose": True}
        signature = inspect.signature(fn)
        if args.n is not None and "n" in signature.parameters:
            kwargs["n"] = args.n
        if args.p is not None and "p" in signature.parameters:
            kwargs["p"] = args.p
        rows = fn(**kwargs)  # type: ignore[arg-type]
        chart = _render_chart(name, rows)
        if chart:
            print()
            print(chart)
        if args.save:
            path = save_results(name, rows)
            print(f"saved {len(rows)} rows to {path}")
        if getattr(args, "svg", False):
            svg_path = _render_svg(name, rows)
            if svg_path:
                print(f"saved figure to {svg_path}")
    return 0


def _render_svg(name: str, rows: list[dict]) -> str | None:
    """Write the experiment's figure as results/<name>.svg when charted."""
    from repro.bench.svg import bar_chart_svg, line_chart_svg, save_svg

    if name in ("fig9", "fig10"):
        series = _sweep_series(rows, "n", "queries_per_s",
                               skip=lambda row: row["n"] == 0)
        svg = line_chart_svg(series, title=f"{name}: queries/s vs n",
                             x_label="n", y_label="queries/s",
                             logx=True, logy=True)
    elif name in ("fig11", "fig14"):
        series = _sweep_series(rows, "d", "queries_per_s")
        svg = line_chart_svg(series, title=f"{name}: queries/s vs dimension",
                             x_label="d", y_label="queries/s",
                             logx=True, logy=True)
    elif name == "fig13":
        series = _sweep_series(
            rows, "radius", "queries_per_s",
            skip=lambda row: not np.isfinite(float(row["radius"])),
        )
        svg = line_chart_svg(series, title="fig13: queries/s vs rkde radius",
                             x_label="radius (bandwidths)", y_label="queries/s",
                             logy=True)
    elif name == "fig15":
        series = _sweep_series(
            rows, "p", "queries_per_s",
            skip=lambda row: not np.isfinite(float(row["p"])),
        )
        svg = line_chart_svg(series, title="fig15: queries/s vs quantile p",
                             x_label="p", y_label="queries/s", logy=True)
    elif name in ("fig12", "fig16"):
        svg = bar_chart_svg(
            [str(row["variant"]) for row in rows],
            [float(row["points_per_s"]) for row in rows],
            title=f"{name}: throughput by variant", value_label=" pts/s",
            logscale=True,
        )
    elif name == "fig7":
        svg = bar_chart_svg(
            [f"{row['dataset']}-d{row['d']}/{row['algorithm']}" for row in rows],
            [float(row["throughput"]) for row in rows],
            title="fig7: amortized throughput", value_label=" pts/s",
            logscale=True,
        )
    else:
        return None
    return str(save_svg(f"results/{name}.svg", svg))


def _render_chart(name: str, rows: list[dict]) -> str | None:
    """Draw the experiment's figure as a terminal chart where one exists."""
    if name in ("fig9", "fig10"):
        series = _sweep_series(rows, "n", "queries_per_s",
                               skip=lambda row: row["n"] == 0)
        return ascii_chart(series, logx=True, logy=True,
                           title=f"{name}: queries/s vs n (log-log)")
    if name in ("fig11", "fig14"):
        series = _sweep_series(rows, "d", "queries_per_s")
        return ascii_chart(series, logx=True, logy=True,
                           title=f"{name}: queries/s vs dimension (log-log)")
    if name == "fig13":
        series = _sweep_series(
            rows, "radius", "queries_per_s",
            skip=lambda row: not np.isfinite(float(row["radius"])),
        )
        return ascii_chart(series, logy=True, title="fig13: queries/s vs rkde radius")
    if name == "fig15":
        series = _sweep_series(
            rows, "p", "queries_per_s",
            skip=lambda row: not np.isfinite(float(row["p"])),
        )
        return ascii_chart(series, logy=True, title="fig15: queries/s vs quantile p")
    if name in ("fig12", "fig16"):
        labels = [str(row["variant"]) for row in rows]
        values = [float(row["points_per_s"]) for row in rows]
        return (
            f"{name}: throughput by optimization variant (log bars)\n"
            + ascii_bar_chart(labels, values, logscale=True, unit=" pts/s")
        )
    if name == "fig7":
        labels = [f"{row['dataset']}-d{row['d']}/{row['algorithm']}" for row in rows]
        values = [float(row["throughput"]) for row in rows]
        return (
            "fig7: amortized throughput (log bars)\n"
            + ascii_bar_chart(labels, values, logscale=True, unit=" pts/s")
        )
    return None


def _sweep_series(
    rows: list[dict], x_key: str, y_key: str, skip=None
) -> dict[str, tuple[list[float], list[float]]]:
    """Group sweep rows into per-algorithm (xs, ys) series."""
    series: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        name = str(row.get("algorithm", "series"))
        if name.endswith("loglog_slope"):
            continue
        if skip is not None and skip(row):
            continue
        xs, ys = series.setdefault(name, ([], []))
        xs.append(float(row[x_key]))
        ys.append(float(row[y_key]))
    return series


def _demo() -> None:
    """Train tKDC on a bimodal sample and print the classified region."""
    from repro import TKDCClassifier, TKDCConfig
    from repro.analysis.contours import classification_mask, render_ascii
    from repro.datasets.generators import make_iris_like

    data = make_iris_like(4000, seed=0)
    clf = TKDCClassifier(TKDCConfig(p=0.2, seed=0)).fit(data)
    print(f"threshold t(p=0.2) = {clf.threshold.value:.4g}")
    print(f"kernel evaluations/query = {clf.stats.kernels_per_query:.1f} "
          f"(of {data.shape[0]} training points)")
    xlim = (float(data[:, 0].min()) - 0.3, float(data[:, 0].max()) + 0.3)
    ylim = (float(data[:, 1].min()) - 0.3, float(data[:, 1].max()) + 0.3)
    __, __, mask = classification_mask(clf.classify, xlim, ylim, 48, 24)
    print(render_ascii(mask))
    low = int(np.count_nonzero(np.asarray(clf.training_labels_) == 0))
    print(f"{low}/{data.shape[0]} training points classified LOW (target p=0.2)")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
