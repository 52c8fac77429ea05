"""Served workloads: the ``offline-2d`` model behind a single-process daemon.

The daemon runs in its own process, started the way ``repro serve``
starts it; the load comes from this process as a closed loop through
:class:`repro.serve.client.ServeClient`. ``serve-small`` is two clients
sending 8-row ``/classify`` requests; ``serve-ingest`` adds a durable
streaming pipeline and one client cycling one 32-row ``/ingest`` and
three 64-row ``/classify`` requests. See ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from pathlib import Path

import numpy as np

from perfbench import offline, spans
from perfbench.common import (
    ROOT, WORK_DIR, Outcome, derived_seed, median, percentile, process_peak_rss_mb,
)

SHAPES = {
    "serve-small": {"clients": 2, "rows": 8, "pool": 512, "streaming": False},
    "serve-ingest": {"clients": 1, "rows": 64, "pool": 64, "streaming": True,
                     "ingest_rows": 32, "classify_per_ingest": 3, "replay_checks": 12},
}
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Tail percentile of request latencies. p99 keeps ten samples beyond it on
#: serve-small, but its spread over seeds reached 0.6 on the bench host.
TAIL_Q = 0.9
DEADLINE_MS = 2000
WARMUP_SECONDS = 0.5
SOURCE = "perfbench"
#: Per-request layers of a /classify; together they cover the client latency.
REQUEST_LAYERS = (
    "serve.client.transport_ms", "serve.daemon.admission_wait_ms",
    "serve.daemon.handle_self_ms", "streaming.pipeline.serving_view_ms",
    "serve.reload.manager_self_ms", "core.classifier.detailed_ms",
)
HANDLE_ROOT = "serve.daemon.handle"
INGEST_ROOT = "serve.daemon.ingest"


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, model_path: Path, workdir: Path, streaming: bool, trace_prefix=None):
        args = ["serve", "--model", str(model_path), "--port", "0", "--workers", "1"]
        if streaming:
            args += ["--streaming", "--wal-dir", str(workdir / "wal"), "--fsync-policy", "always"]
        if trace_prefix is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                       str(trace_prefix), *args[1:]]
        self.trace_prefix = trace_prefix
        self._dumps = 0
        self.log_path = workdir / "daemon.log"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True,
            )
        self.client = None

    def wait_ready(self, timeout: float = 120.0):
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + timeout
        port = None
        while port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start:\n{self.log_path.read_text()}")
            found = re.search(r"on http://[^:\s]+:(\d+)", self.log_path.read_text())
            if found:
                port = int(found.group(1))
            else:
                time.sleep(0.005)
        self.client = ServeClient("127.0.0.1", port)
        if not self.client.wait_ready(timeout=deadline - time.monotonic(), interval=0.005):
            raise RuntimeError(f"daemon never became ready:\n{self.log_path.read_text()}")
        return self.client

    def statz(self) -> dict:
        status, body = self.client.statz()
        if status != 200:
            raise RuntimeError(f"/statz answered {status}")
        return body

    def spans(self) -> dict:
        """Span aggregates so far (traced daemons only)."""
        path = Path(f"{self.trace_prefix}.{self._dumps}")
        self._dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced daemon wrote no span snapshot")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain and stop the daemon, then anything it started, and wait for all."""
        group = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        raise RuntimeError("processes started by the daemon did not exit")


def request_pool(queries: np.ndarray, requests: int, rows: int) -> np.ndarray:
    """``requests`` blocks of ``rows`` from the ``offline-2d`` query set.

    Each block is half in-distribution rows and half bounding-box rows.
    """
    dense, box = queries[: queries.shape[0] // 2], queries[queries.shape[0] // 2:]
    half = rows // 2
    needed = requests * half
    if needed > dense.shape[0]:
        raise ValueError("request pool larger than the query set")
    return np.concatenate(
        [dense[:needed].reshape(requests, half, 2), box[:needed].reshape(requests, half, 2)],
        axis=1,
    )


def setup(train, seed, workdir, streaming, out: Outcome, tracer=None):
    """Fit, save, start the daemon; returns (daemon, classifier, model path, times)."""
    from repro.io import models

    undo = spans.install(tracer) if tracer is not None else None
    try:
        started = time.perf_counter()
        clf, fit_seconds = offline.timed_fit(train, seed, out)
        saved = time.perf_counter()
        model_path = models.save_model(workdir / "model.tkdc", clf)
        save_seconds = time.perf_counter() - saved
    finally:
        if undo is not None:
            spans.uninstall(undo)
    launched = time.perf_counter()
    prefix = workdir / "spans" if tracer is not None else None
    daemon = Daemon(model_path, workdir, streaming, prefix)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    ready = time.perf_counter()
    times = {"setup": ready - started, "fit": fit_seconds, "save": save_seconds,
             "start": ready - launched}
    return daemon, clf, model_path, times


class Load:
    """One daemon's share of the closed loop; every exchange is kept for the checks."""

    def __init__(self, daemon: Daemon, model_path: Path, pool, shape, seed):
        self.daemon = daemon
        self.model_path = model_path
        self.pool = pool
        self.shape = shape
        # Every daemon of a run receives the same ingest stream.
        self.rng = np.random.default_rng(derived_seed(seed, 3))
        self.classified = []  # (pool index, latency_s, status, payload)
        self.ingested = []  # (latency_s, status, payload, points)
        self.events = []  # serve-ingest order: ("ingest", i) / ("classify", i)
        self._lock = threading.Lock()
        self._next = 0

    def _classify(self) -> None:
        with self._lock:
            index = self._next % len(self.pool)
            self._next += 1
        started = time.perf_counter()
        try:
            status, payload = self.daemon.client.classify(
                self.pool[index], deadline_ms=DEADLINE_MS,
            )
        except (OSError, HTTPException) as exc:
            status, payload = 0, {"error": repr(exc)}
        latency = time.perf_counter() - started
        with self._lock:
            self.classified.append((index, latency, status, payload))
            self.events.append(("classify", len(self.classified) - 1))

    def _ingest(self) -> None:
        # One ingest client per daemon, so the (source, seq) order is the send order.
        points = self.rng.normal(size=(self.shape["ingest_rows"], 2))
        started = time.perf_counter()
        try:
            status, payload = self.daemon.client.ingest(
                points, source=SOURCE, seq=len(self.ingested) + 1,
            )
        except (OSError, HTTPException) as exc:
            status, payload = 0, {"error": repr(exc)}
        self.ingested.append((time.perf_counter() - started, status, payload, points))
        self.events.append(("ingest", len(self.ingested) - 1))

    def step(self) -> None:
        """One closed-loop unit: a classify, or an ingest and its classifies."""
        if self.shape["streaming"]:
            self._ingest()
            for __ in range(self.shape["classify_per_ingest"]):
                self._classify()
        else:
            self._classify()


def drive(loads: list[Load], seconds: float, clients: int) -> float:
    """``clients`` threads, each stepping through ``loads`` in turn; returns wall seconds."""
    started = time.perf_counter()
    until = started + seconds
    errors = []

    def client() -> None:
        try:
            while time.perf_counter() < until:
                for load in loads:
                    load.step()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client) for __ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def check_small(load: Load, out: Outcome) -> None:
    """Served labels of non-degraded rows equal in-process ``classify`` of the model file."""
    from repro.io.models import load_model

    reference = load_model(load.model_path)
    flat = load.pool.reshape(-1, load.pool.shape[-1])
    expected = np.array([int(label) for label in reference.classify(flat)]).reshape(
        load.pool.shape[:2]
    )
    for index, __, status, payload in load.classified:
        if status != 200:
            out.op(False)
            continue
        served = np.array(payload["labels"])
        degraded = np.array(payload["degraded"], dtype=bool)
        out.check("served_labels_match_in_process",
                  bool(np.array_equal(served[~degraded], expected[index][~degraded])))


def check_ingest(load: Load, statz: dict, out: Outcome) -> None:
    """Acknowledged ingest accounting, then labels replayed in-process before any swap."""
    from repro.core.incremental import IncrementalTKDC
    from repro.io.models import load_model

    acked = 0
    for __, status, payload, points in load.ingested:
        ok = status == 200 and payload["ingested"] == len(points) and not payload["duplicate"]
        out.op(ok)
        acked += len(points) if ok else 0
    for exchange in load.classified:
        out.op(exchange[2] == 200)
    stream = statz["streaming"]
    out.check("statz_accounting_balanced", bool(stream["accounting"]["ok"]))
    out.check("ingested_total_equals_acknowledged", stream["ingested_total"] == acked)

    # A classify can be replayed in-process while the served model is the
    # saved one: the next ingest's acknowledgement names the generation.
    base = load.ingested[0][2].get("generation")
    replayable, pending = [], []
    for kind, position in load.events:
        if kind == "classify":
            pending.append(position)
            continue
        __, status, payload, __ = load.ingested[position]
        if status != 200 or payload["generation"] != base:
            break
        replayable += [p for p in pending if load.classified[p][2] == 200]
        pending = []
    out.detail["replayable_requests"] = len(replayable)
    if not replayable:
        return
    picks = np.linspace(0, len(replayable) - 1, load.shape["replay_checks"]).astype(int)
    chosen = {replayable[i] for i in picks}
    classifier = load_model(load.model_path)
    model = IncrementalTKDC(classifier.config, auto_refit=False)
    model.adopt(classifier, n_indexed=int(classifier.tree.size))
    for kind, position in load.events:
        if not chosen:
            break
        if kind == "ingest":
            model.insert(load.ingested[position][3])
        elif position in chosen:
            chosen.discard(position)
            index, __, __, payload = load.classified[position]
            expected = np.array([int(x) for x in model.classify_detailed(load.pool[index]).labels])
            degraded = np.array(payload["degraded"], dtype=bool)
            served = np.array(payload["labels"])
            out.check("served_labels_match_in_process_replay",
                      bool(np.array_equal(served[~degraded], expected[~degraded])))


def window(loads: list[Load], seconds: float, shape: dict) -> list[dict]:
    """Warm up, then one measured window over every daemon; what each one saw."""
    drive(loads, WARMUP_SECONDS, shape["clients"])
    before = [load.daemon.statz() for load in loads]
    spans_before = [load.daemon.spans() if load.daemon.trace_prefix else {} for load in loads]
    first = [(len(load.classified), len(load.ingested)) for load in loads]
    wall = drive(loads, seconds, shape["clients"])
    seen = []
    for load, (first_classify, first_ingest), statz_before, startup in zip(
        loads, first, before, spans_before
    ):
        traced = load.daemon.trace_prefix is not None
        after_spans = load.daemon.spans() if traced else {}
        classified = load.classified[first_classify:]
        ok = [c for c in classified if c[2] == 200]
        seen.append({
            "wall": wall,
            "latencies": [c[1] for c in ok],
            "rows": sum(len(c[3]["labels"]) for c in ok),
            "requests": len(classified),
            "ingests": len(load.ingested) - first_ingest,
            "ingest_latencies": [i[0] for i in load.ingested[first_ingest:] if i[1] == 200],
            "statz_before": statz_before,
            "statz_after": load.daemon.statz(),
            "spans": spans.diff(after_spans, startup) if traced else {},
            "startup_spans": startup,
            "peak_rss_mb": load.daemon.peak_rss_mb(),
        })
    return seen


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Untraced: ``setups`` set-ups, load on the last. Traced: an untraced and a
    traced daemon side by side, each client alternating between them."""
    shape = SHAPES[workload]
    out = Outcome()
    train, queries = offline.make_inputs(seed)
    pool = request_pool(queries, shape["pool"], shape["rows"])
    workdir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    n_setups = 2 if traced else SETUPS
    setups, loads, daemons, tracer = [], [], [], None
    try:
        for index in range(n_setups):
            if traced and index == 1:
                tracer = spans.Tracer()
            rundir = workdir / f"setup-{index}"
            rundir.mkdir(parents=True)
            daemon, clf, model_path, times = setup(
                train, seed, rundir, shape["streaming"], out, tracer,
            )
            daemons.append(daemon)
            setups.append(times)
            if traced or index == n_setups - 1:
                loads.append(Load(daemon, model_path, pool, shape, seed))
            else:
                daemon.stop()
        seen = window(loads, seconds, shape)
        for load in loads:
            if shape["streaming"]:
                check_ingest(load, load.daemon.statz(), out)
            else:
                check_small(load, out)
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    threshold = clf.threshold.value
    measured = seen[0]
    latencies = measured["latencies"]
    out.end_to_end.update({
        "setup_s": median([t["setup"] for t in setups]),
        "classify_qps": measured["rows"] / measured["wall"],
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_tail_ms": percentile(latencies, TAIL_Q) * 1e3,
        "peak_rss_mb": measured["peak_rss_mb"],
    })
    out.detail.update({
        "latency_ms": {f"p{q}": percentile(latencies, q / 100) * 1e3 for q in (90, 95, 99)},
        "setup_samples_s": setups,
        "requests": measured["requests"],
        "latency_samples": len(latencies),
        "latency_tail_q": TAIL_Q,
        "latency_beyond_tail": int(len(latencies) * (1.0 - TAIL_Q)),
        "requests_per_s": len(latencies) / measured["wall"],
        "fit.kernel_evals": clf.stats.kernel_evaluations,
        "fit.node_expansions": clf.stats.node_expansions,
        **serve_counters(measured, shape, threshold),
    })
    if measured["ingest_latencies"]:
        out.detail.update({
            "ingest_p50_ms": percentile(measured["ingest_latencies"], 0.5) * 1e3,
            "ingest_tail_ms": percentile(measured["ingest_latencies"], TAIL_Q) * 1e3,
            "ingest_samples": len(measured["ingest_latencies"]),
        })
    if traced:
        out.per_layer.update(serve_layers(seen[0], seen[1], tracer, setups[1], shape, threshold))
        traced_ms = seen[1]["latencies"]
        out.detail["reconcile_s"] = {
            "fit": [offline.fit_layer_sum(out.per_layer), setups[1]["fit"]],
            "request": [
                sum(out.per_layer[k] for k in REQUEST_LAYERS) / 1e3,
                sum(traced_ms) / len(traced_ms),
            ],
        }
        out.per_layer["fit.kernel_evals"] = clf.stats.kernel_evaluations
        out.per_layer["fit.node_expansions"] = clf.stats.node_expansions
    return out


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def serve_counters(seen: dict, shape: dict, threshold: float) -> dict:
    """Counters of the measured window, from ``/statz`` before and after it."""
    before, after = seen["statz_before"], seen["statz_after"]
    completed = _delta(after, before, "completed")
    rows = seen["rows"]
    traversal = {
        name: _delta(after["traversal"], before["traversal"], name)
        for name in offline.COUNTER_FIELDS
    }
    counters = {
        "serve.daemon.shed": _delta(after, before, "shed"),
        "serve.daemon.degraded_share": _delta(after, before, "degraded") / max(completed, 1.0),
        "serve.daemon.exact_fallbacks": _delta(after, before, "exact_fallbacks"),
        **offline.traversal_ratios(traversal, max(rows, 1)),
    }
    if shape["streaming"]:
        stream_before, stream_after = before["streaming"], after["streaming"]
        accounting = stream_after["accounting"]
        fsyncs = _delta(stream_after["wal"], stream_before["wal"], "fsyncs")
        counters.update({
            "streaming.wal.fsyncs": fsyncs / max(seen["ingests"], 1),
            "streaming.buffered_points": stream_after["n_buffered"],
            "streaming.refits": accounting["refits_triggered"],
            "streaming.swaps": accounting["swaps"],
            "streaming.threshold_ratio": stream_after["threshold"] / threshold,
        })
    return counters


def serve_layers(
    untraced: dict, traced: dict, tracer, times: dict, shape: dict, threshold: float,
) -> dict:
    """Per-layer metrics of the traced daemon and set-up, against the untraced daemon."""
    tracer_spans = tracer.snapshot()
    layers, fit_gap = offline.fit_layer_metrics(tracer_spans, times["fit"])
    layers["io.models.save_s"] = spans.total_time(tracer_spans, "io.models.save", "io.models.save")
    startup = traced["startup_spans"]
    load_s = spans.total_time(startup, "serve.reload.load", "serve.reload.load")
    layers["serve.reload.load_s"] = load_s

    agg = traced["spans"]
    requests = max(spans.count(agg, HANDLE_ROOT, HANDLE_ROOT), 1)
    per_request = lambda seconds: seconds / requests * 1e3  # noqa: E731
    client_ms = sum(traced["latencies"]) / max(len(traced["latencies"]), 1) * 1e3
    layers.update({
        "serve.client.transport_ms":
            client_ms - per_request(spans.total_time(agg, HANDLE_ROOT, HANDLE_ROOT)),
        "serve.daemon.admission_wait_ms":
            per_request(spans.total_time(agg, HANDLE_ROOT, "serve.daemon.admission_wait")),
        "serve.daemon.handle_self_ms":
            per_request(spans.self_time(agg, HANDLE_ROOT, HANDLE_ROOT)),
        "streaming.pipeline.serving_view_ms":
            per_request(spans.total_time(agg, HANDLE_ROOT, "streaming.pipeline.serving_view")),
        "serve.reload.manager_self_ms":
            per_request(spans.self_time(agg, HANDLE_ROOT, "serve.reload.manager")),
        "core.classifier.detailed_ms":
            per_request(spans.total_time(agg, HANDLE_ROOT, "core.classifier.detailed")),
    })
    layers.update(serve_counters(traced, shape, threshold))
    if shape["streaming"]:
        ingests = max(spans.count(agg, INGEST_ROOT, INGEST_ROOT), 1)
        layers.update({
            "streaming.pipeline.ingest_ms":
                spans.total_time(agg, INGEST_ROOT, "streaming.pipeline.ingest") / ingests * 1e3,
            "streaming.wal.append_ms":
                spans.total_time(agg, INGEST_ROOT, "streaming.wal.append") / ingests * 1e3,
            "serve.client.ingest_p50_ms": percentile(untraced["ingest_latencies"], 0.5) * 1e3,
            "serve.client.ingest_tail_ms":
                percentile(untraced["ingest_latencies"], TAIL_Q) * 1e3,
        })
    untraced_p50 = median(untraced["latencies"])
    layers["trace.overhead_share"] = (median(traced["latencies"]) - untraced_p50) / untraced_p50
    unattributed = layers["fit.unattributed_s"] + fit_gap + (times["start"] - load_s)
    layers["trace.unattributed_share"] = unattributed / (times["setup"] + sum(traced["latencies"]))
    return layers
