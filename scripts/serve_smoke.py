"""End-to-end smoke of the serving daemon as a real OS process.

Fits a tiny model, then runs three phases:

1. **Single process** — launches ``python -m repro serve``, waits for
   readiness, exercises the health/classify/statz endpoints through one
   keep-alive ``ServeClient``, requires the daemon's thread count to
   stay flat across 200 more classifies, sends ``/admin/drain`` on the
   same connection, then sends SIGTERM and requires a clean exit (code 0).
2. **Streaming** — relaunches with ``--streaming --wal-dir``: a keyed
   ingest is acknowledged and logged, a NaN ingest is refused with 400
   and never logged, a classify sees the ingested cluster, ``/statz``
   accounting holds, and SIGTERM drains cleanly.
3. **Fleet** — relaunches with ``--workers 2`` (router + shared-memory
   workers), SIGKILLs one worker mid-load, and requires zero dropped
   requests, a respawned worker, a balanced accounting invariant, and
   no leaked ``/dev/shm`` segments after shutdown.

Run via ``make serve-smoke``; CI wraps it in a hard ``timeout`` so a
daemon that fails to drain turns into a job failure, not a stuck runner.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.core.classifier import TKDCClassifier  # noqa: E402
from repro.core.config import TKDCConfig  # noqa: E402
from repro.io.models import save_model  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.stats import TERMINAL_OUTCOMES  # noqa: E402

PORT = 7399
FLEET_PORT = 7398
STREAM_PORT = 7397


def fail(message: str, process: subprocess.Popen | None = None) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    if process is not None and process.poll() is None:
        process.kill()
    return 1


def shm_segments(prefix: str = "tkdc-") -> set[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # non-Linux: nothing to leak-check
        return set()
    return {name for name in os.listdir(shm_dir) if name.startswith(prefix)}


def launch(model_path: Path, port: int, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--model", str(model_path),
            "--port", str(port),
            "--default-deadline-ms", "2000",
            *extra,
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=REPO,
    )


def terminate_cleanly(process: subprocess.Popen, what: str) -> int | None:
    """SIGTERM + wait; returns an exit code on failure, None on success."""
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        return fail(f"{what} did not drain within 30s of SIGTERM", process)
    if code != 0:
        return fail(f"{what} exited {code} after SIGTERM")
    return None


def thread_count(pid: int) -> int | None:
    """The ``Threads:`` line of ``/proc/<pid>/status`` (None off Linux)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def single_process_phase(model_path: Path) -> int:
    process = launch(model_path, PORT)
    client = ServeClient("127.0.0.1", PORT, timeout=30.0)
    try:
        if not client.wait_ready(30.0):
            return fail("daemon never became ready", process)

        status, payload = client.healthz()
        if status != 200 or payload.get("status") != "ok":
            return fail(f"healthz: {status} {payload}", process)

        status, payload = client.classify(
            [[-2.0, 0.0], [0.0, 9.0]], deadline_ms=2000
        )
        if status != 200:
            return fail(f"classify: {status} {payload}", process)
        if payload["labels"][0] != 1 or payload["labels"][1] != 0:
            return fail(f"unexpected labels: {payload['labels']}", process)

        status, payload = client.classify([[1.0]], deadline_ms=2000)
        if status != 400:
            return fail(f"bad request not rejected: {status}", process)

        status, statz = client.statz()
        if status != 200 or statz["submitted"] != 2:
            return fail(f"statz: {status} {statz}", process)
        if statz["completed"] != 1 or statz["rejected"] != 1:
            return fail(f"statz counters off: {statz}", process)
        # The smoke model is 1-dimensional with a concretely configured
        # engine, so serving calibration must have pinned batch.
        if statz.get("engine") != "batch":
            return fail(f"statz engine off: {statz}", process)

        status, text = client.metrics()
        if status != 200:
            return fail(f"metrics: {status}", process)
        # /metrics and /statz read the same registry cells, so the
        # exposition must agree with the JSON counters exactly.
        for needle in (
            'tkdc_serve_events_total{event="submitted"} 2',
            'tkdc_serve_events_total{event="completed"} 1',
            'tkdc_serve_events_total{event="rejected"} 1',
            "tkdc_serve_request_latency_seconds_bucket",
            "# TYPE tkdc_serve_request_latency_seconds histogram",
            'tkdc_engine_selected_total{engine="batch",reason="configured"}',
        ):
            if needle not in text:
                return fail(f"metrics missing {needle!r}:\n{text}", process)

        # Classifies run on one standing worker and the client keeps its
        # connection, so 200 more requests must not add daemon threads.
        threads_before = thread_count(process.pid)
        for __ in range(200):
            status, payload = client.classify([[-2.0, 0.0]], deadline_ms=2000)
            if status != 200:
                return fail(f"classify: {status} {payload}", process)
        threads_after = thread_count(process.pid)
        if threads_before is not None and threads_after > threads_before + 1:
            return fail(
                f"daemon threads grew {threads_before} -> {threads_after} "
                "over 200 classifies", process,
            )

        # The drain's body must be consumed like any other on the
        # kept-alive connection the requests above used.
        status, payload = client.drain()
        if status != 202 or payload.get("status") != "draining":
            return fail(f"drain: {status} {payload}", process)
    except OSError as exc:
        return fail(f"daemon connection failed: {exc}", process)

    code = terminate_cleanly(process, "daemon")
    if code is not None:
        return code
    print("serve smoke phase 1 OK: ready -> classify -> statz -> metrics "
          f"-> 200 classifies, threads {threads_before} -> {threads_after} "
          "-> drain 202 -> SIGTERM exit 0")
    return 0


def streaming_phase(model_path: Path, wal_dir: Path) -> int:
    process = launch(model_path, STREAM_PORT, "--streaming", "--wal-dir", str(wal_dir))
    client = ServeClient("127.0.0.1", STREAM_PORT, timeout=30.0)
    spot = [0.0, 6.0]  # empty region of the two-mode smoke model
    try:
        if not client.wait_ready(60.0):
            return fail("streaming daemon never became ready", process)

        cluster = np.asarray(spot) + np.random.default_rng(5).normal(
            scale=0.05, size=(200, 2)
        )
        status, payload = client.ingest(cluster, source="smoke", seq=1)
        if status != 200 or payload["ingested"] != 200 or not payload["durable"]:
            return fail(f"keyed ingest: {status} {payload}", process)
        __, statz = client.statz()
        appends = statz["streaming"]["wal"]["appends"]

        # json.dumps writes the NaN literal; the daemon must refuse the
        # row before the WAL makes it durable.
        status, payload = client.ingest([[float("nan"), 0.0]])
        if status != 400:
            return fail(f"NaN ingest not rejected: {status} {payload}", process)

        status, payload = client.classify([spot, [-2.0, 0.0]], deadline_ms=2000)
        if status != 200 or payload["labels"] != [1, 1]:
            return fail(f"streaming classify: {status} {payload}", process)

        status, statz = client.statz()
        streaming = statz["streaming"]
        if status != 200 or not streaming["accounting"]["ok"]:
            return fail(f"streaming accounting: {status} {streaming}", process)
        if streaming["wal"]["appends"] != appends or streaming["ingested_total"] != 200:
            return fail(f"NaN ingest reached the WAL: {streaming}", process)
        counters = [statz[f"ingest_{name}"] for name in ("submitted", "completed", "rejected")]
        if counters != [2, 1, 1]:
            return fail(f"ingest counters off: {statz}", process)
    except OSError as exc:
        return fail(f"streaming daemon connection failed: {exc}", process)

    code = terminate_cleanly(process, "streaming daemon")
    if code is not None:
        return code
    print("serve smoke phase 2 OK: --streaming --wal-dir -> keyed ingest 200 "
          "-> NaN ingest 400, not logged -> classify -> accounting ok -> SIGTERM drain")
    return 0


def fleet_phase(model_path: Path) -> int:
    segments_before = shm_segments()
    process = launch(model_path, FLEET_PORT, "--workers", "2")
    client = ServeClient("127.0.0.1", FLEET_PORT, timeout=30.0)
    try:
        # Fleet startup forks and calibrates workers: allow more time.
        if not client.wait_ready(90.0):
            return fail("fleet never became ready", process)

        status, statz = client.statz()
        if status != 200 or statz["fleet"]["workers_healthy"] != 2:
            return fail(f"fleet not fully healthy: {status} {statz}", process)

        # Drive load from 4 threads while one worker is SIGKILLed.
        stop = threading.Event()
        statuses: list[int] = []
        drops: list[str] = []
        lock = threading.Lock()

        def drive() -> None:
            local = ServeClient("127.0.0.1", FLEET_PORT, timeout=30.0)
            while not stop.is_set():
                try:
                    code, __ = local.classify([[-2.0, 0.0]], deadline_ms=5000)
                except OSError as exc:
                    with lock:
                        drops.append(repr(exc))
                    continue
                with lock:
                    statuses.append(code)

        threads = [threading.Thread(target=drive, daemon=True) for __ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        victim = statz["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        time.sleep(3.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

        if drops:
            return fail(f"requests dropped during worker kill: {drops}", process)
        bad = [code for code in statuses if code not in (200, 429, 503)]
        if bad:
            return fail(f"unexpected statuses during kill: {bad}", process)
        if statuses.count(200) == 0:
            return fail("no request succeeded during the kill window", process)

        # Supervision must respawn the victim and the fleet must settle.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, statz = client.statz()
            pids = [worker["pid"] for worker in statz["workers"]]
            if (
                statz["fleet"]["workers_healthy"] == 2
                and victim not in pids
                and statz["in_flight"] == 0
            ):
                break
            time.sleep(0.2)
        else:
            return fail(f"worker never respawned: {statz}", process)

        terminal = sum(statz[name] for name in TERMINAL_OUTCOMES)
        if statz["submitted"] != terminal:
            return fail(
                f"fleet accounting broken: submitted={statz['submitted']} "
                f"terminal={terminal}", process,
            )
        if sum(worker["restarts"] for worker in statz["workers"]) < 1:
            return fail(f"no restart recorded: {statz['workers']}", process)
    except OSError as exc:
        return fail(f"fleet connection failed: {exc}", process)

    code = terminate_cleanly(process, "fleet")
    if code is not None:
        return code
    leaked = shm_segments() - segments_before
    if leaked:
        return fail(f"leaked /dev/shm segments: {sorted(leaked)}")
    print(
        f"serve smoke phase 3 OK: fleet of 2 -> kill pid {victim} -> "
        f"{statuses.count(200)} ok / {len(statuses)} answered, 0 dropped "
        "-> respawn -> SIGTERM drain, no shm leaks"
    )
    return 0


def main() -> int:
    rng = np.random.default_rng(11)
    data = np.concatenate([
        rng.normal(size=(500, 2)) * 0.5 + np.array([-2.0, 0.0]),
        rng.normal(size=(500, 2)) * 0.5 + np.array([2.0, 0.0]),
    ])
    clf = TKDCClassifier(TKDCConfig(p=0.05, seed=1)).fit(data)

    with tempfile.TemporaryDirectory() as tmp:
        model_path = save_model(Path(tmp) / "smoke", clf)
        code = single_process_phase(model_path)
        if code != 0:
            return code
        code = streaming_phase(model_path, Path(tmp) / "wal")
        if code != 0:
            return code
        code = fleet_phase(model_path)
        if code != 0:
            return code

    print("serve smoke OK: single-process + streaming + fleet phases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
