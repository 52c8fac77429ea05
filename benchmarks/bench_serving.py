"""Serving-daemon behaviour under load: latency, shedding, degradation.

Spins up the real HTTP daemon (in-process, ephemeral port) against a
synthetic gauss model and drives it through three phases:

- **steady**: offered load inside the admission capacity — the
  baseline p50/p99 service latency of the full pipeline (HTTP parse,
  admission, budgeting, watchdog, JSON response).
- **overload**: twice as many concurrent clients as the admission
  capacity (one execution slot plus the queue) — measures how much
  traffic is shed with structured 429s and verifies latency of the
  *answered* requests stays bounded instead of queueing without limit.
- **tight deadlines**: per-request deadlines far below what the full
  traversal needs — measures how often the anytime budget produces
  honestly-flagged degraded answers instead of deadline blowups.

It then sweeps the multi-process fleet (``workers`` = 1/2/4; the
workers=1 point is the unchanged single-process daemon) and records
the throughput-scaling ratio together with ``cpu_count`` — scaling is
physically bounded by the cores available, so the gate interprets the
ratio relative to the recorded core count, not an absolute target.

Writes ``BENCH_serving.json`` at the repo root. ``--smoke`` runs a
tiny workload and skips the report (CI guard: the daemon starts,
serves, sheds, and drains inside the job timeout).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import report_metadata
from repro.core.classifier import TKDCClassifier
from repro.core.config import TKDCConfig
from repro.io.atomic import atomic_write_text
from repro.io.models import save_model
from repro.serve import (
    FleetServer,
    ModelManager,
    ServeClient,
    ServeConfig,
    TKDCServer,
    WorkerFleet,
)

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

N_TRAIN = 20_000
N_TRAIN_SMOKE = 2_000
SEED = 7


def fit_and_save(n_train: int, directory: Path) -> Path:
    rng = np.random.default_rng(SEED)
    a = rng.normal(size=(n_train // 2, 2)) * 0.5 + np.array([-2.0, 0.0])
    b = rng.normal(size=(n_train // 2, 2)) * 0.5 + np.array([2.0, 0.0])
    data = np.concatenate([a, b])
    clf = TKDCClassifier(TKDCConfig(p=0.05, seed=SEED)).fit(data)
    return save_model(directory / "bench_model", clf)


def start_server(model_path: Path, config: ServeConfig):
    manager = ModelManager(model_path, config)
    server = TKDCServer(manager)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    client = ServeClient("127.0.0.1", server.port, timeout=60.0)
    assert client.wait_ready(15.0), "daemon never became ready"
    return server, thread, client


def start_fleet(model_path: Path, config: ServeConfig):
    fleet = WorkerFleet(model_path, config)
    server = FleetServer(fleet)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    client = ServeClient("127.0.0.1", server.port, timeout=60.0)
    assert client.wait_ready(90.0), "fleet never became ready"
    return fleet, server, thread, client


def workers_sweep(model_path: Path, smoke: bool, rng: np.random.Generator) -> dict:
    """Measure answered/s at workers = 1, 2, 4 over identical load shape.

    Offered load scales with the worker count (2 clients per worker) so
    each point is driven at the same per-worker pressure; the workers=1
    point goes through the unchanged single-process TKDCServer path.
    """
    counts = (1, 2) if smoke else (1, 2, 4)
    requests_per_thread = 5 if smoke else 25
    points = []
    for workers in counts:
        config = ServeConfig(
            port=0,
            workers=workers,
            queue_depth=5,
            default_deadline=2.0,
            calibration_queries=64 if smoke else 256,
        )
        if workers == 1:
            server, thread, client = start_server(model_path, config)
            fleet = None
        else:
            fleet, server, thread, client = start_fleet(model_path, config)
        try:
            sample = drive(
                client, 2 * workers, requests_per_thread, 2_000.0, rng
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            if fleet is not None:
                fleet.stop()
        points.append({"workers": workers, **sample})

    base = points[0]["answered_per_s"]
    top = points[-1]["answered_per_s"]
    return {
        "cpu_count": os.cpu_count() or 1,
        "points": points,
        "max_workers": points[-1]["workers"],
        "scaling_ratio": round(top / base, 3) if base else 0.0,
    }


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def drive(
    client: ServeClient,
    n_threads: int,
    requests_per_thread: int,
    deadline_ms: float,
    rng: np.random.Generator,
) -> dict:
    """Hammer /classify from ``n_threads`` workers; aggregate outcomes."""
    points_pool = [
        (rng.normal(size=(8, 2)) * 3.0).tolist() for __ in range(32)
    ]
    lock = threading.Lock()
    latencies: list[float] = []
    counts = {"ok": 0, "shed": 0, "timed_out": 0, "degraded": 0, "other": 0}

    def worker(offset: int) -> None:
        for i in range(requests_per_thread):
            body = points_pool[(offset + i) % len(points_pool)]
            t0 = time.monotonic()
            status, payload = client.classify(body, deadline_ms=deadline_ms)
            elapsed = time.monotonic() - t0
            with lock:
                if status == 200:
                    counts["ok"] += 1
                    latencies.append(elapsed)
                    if payload.get("degraded_any"):
                        counts["degraded"] += 1
                elif status == 429:
                    counts["shed"] += 1
                elif status == 503:
                    counts["timed_out"] += 1
                else:
                    counts["other"] += 1

    threads = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(n_threads)
    ]
    t0 = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - t0

    total = n_threads * requests_per_thread
    return {
        "clients": n_threads,
        "requests": total,
        "seed": SEED,
        "deadline_ms": deadline_ms,
        "wall_s": round(wall, 3),
        "answered_per_s": round(counts["ok"] / wall, 1) if wall else 0.0,
        "ok": counts["ok"],
        "shed": counts["shed"],
        "timed_out": counts["timed_out"],
        "other": counts["other"],
        "shed_rate": round(counts["shed"] / total, 4),
        "degraded_rate": (
            round(counts["degraded"] / counts["ok"], 4) if counts["ok"] else 0.0
        ),
        "latency_p50_ms": round(percentile(latencies, 0.50) * 1000.0, 3),
        "latency_p99_ms": round(percentile(latencies, 0.99) * 1000.0, 3),
    }


def run_benchmark(smoke: bool) -> dict:
    import tempfile

    scale = 1 if smoke else 4
    config = ServeConfig(
        port=0,
        queue_depth=5,
        default_deadline=2.0,
        calibration_queries=64 if smoke else 256,
    )
    with tempfile.TemporaryDirectory() as tmp:
        model_path = fit_and_save(
            N_TRAIN_SMOKE if smoke else N_TRAIN, Path(tmp)
        )
        server, thread, client = start_server(model_path, config)
        rng = np.random.default_rng(SEED)
        try:
            phases = {
                # Offered load ~= capacity: latency baseline.
                "steady": drive(client, 2, 10 * scale, 2_000.0, rng),
                # 12 clients against 1 slot + 5 queued: shedding must kick in.
                "overload": drive(client, 12, 5 * scale, 2_000.0, rng),
                # Deadlines below the full-traversal time: degraded answers.
                "tight_deadline": drive(client, 2, 10 * scale, 2.0, rng),
            }
            statz = client.statz()[1]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
        fleet_scaling = workers_sweep(model_path, smoke, rng)

    terminal = (
        statz["completed"] + statz["shed"] + statz["rejected"]
        + statz["timed_out"] + statz["errors"] + statz["drained"]
    )
    return {
        "benchmark": "serving",
        **report_metadata(),
        "n_train": N_TRAIN_SMOKE if smoke else N_TRAIN,
        "serve_config": {"queue_depth": config.queue_depth},
        "expansions_per_second": statz["expansions_per_second"],
        "phases": phases,
        "fleet_scaling": fleet_scaling,
        "accounting": {
            "submitted": statz["submitted"],
            "terminal": terminal,
            "balanced": terminal == statz["submitted"],
        },
    }


def main() -> int:
    smoke = "--smoke" in sys.argv
    report = run_benchmark(smoke)
    print(json.dumps(report, indent=2))
    if not report["accounting"]["balanced"]:
        print("FAIL: statz accounting does not balance", file=sys.stderr)
        return 1
    overload = report["phases"]["overload"]
    if overload["shed"] == 0:
        print("FAIL: overload phase shed nothing", file=sys.stderr)
        return 1
    if any(p["ok"] == 0 for p in report["fleet_scaling"]["points"]):
        print("FAIL: a fleet sweep point answered nothing", file=sys.stderr)
        return 1
    if smoke:
        print("\nsmoke OK (report not written)")
        return 0
    atomic_write_text(REPORT_PATH, json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
