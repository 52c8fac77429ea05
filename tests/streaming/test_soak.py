"""Soak: injected drift + refit crash + corrupted artifact, live serving.

The tentpole scenario from the issue. A :class:`DriftPlan` scripts the
whole run:

- the stream's distribution shifts mid-stream (a new mode appears far
  from the training data);
- refit generation 1 produces a **corrupted artifact** — the verified
  reload path must refuse it and roll back, with the old model serving
  on;
- refit generation 2's first attempt **crashes its subprocess** — the
  supervised retry clears the transient fault and the verified swap
  lands.

Throughout, a concurrent client thread classifies nonstop; the pipeline
must drop zero requests, converge to the post-drift threshold within the
declared staleness bound, and keep its conservation accounting exact.
"""

import threading
import time

import numpy as np
import pytest

from repro import Label
from repro.robustness.faults import DriftPlan

#: Stream script: 200 in-distribution points, then the shifted regime.
SHIFT_AFTER = 200
NEW_MODE = np.array([5.0, 5.0])
STREAM_LEN = 640
BATCH = 40

PLAN = DriftPlan(
    shift_after=SHIFT_AFTER,
    mean_shift=tuple(NEW_MODE),
    corrupt_artifacts=(1,),   # generation 1: artifact refused -> rollback
    refit_crash=(2,),         # generation 2: transient crash -> retry wins
    fail_attempts=1,
)

SOAK_SETTINGS = dict(
    check_interval=0.05,
    min_refit_interval=0.2,
    hysteresis=2,
)


class ClassifyClient(threading.Thread):
    """Hammers classify() until stopped; any exception is a drop."""

    def __init__(self, pipeline) -> None:
        super().__init__(daemon=True)
        self.pipeline = pipeline
        self.stop_event = threading.Event()
        self.requests = 0
        self.errors: list[BaseException] = []
        rng = np.random.default_rng(99)
        self.queries = np.concatenate([
            rng.normal(size=(4, 2)) * 0.5,
            rng.normal(size=(4, 2)) * 0.5 + NEW_MODE,
        ])

    def run(self) -> None:
        while not self.stop_event.is_set():
            try:
                labels = self.pipeline.classify(self.queries)
                assert labels.shape == (8,)
                self.requests += 1
            except BaseException as exc:  # noqa: BLE001 - the assertion
                self.errors.append(exc)
                return


def test_drift_soak_with_faults(pipeline_factory):
    pipeline = pipeline_factory(settings_overrides=SOAK_SETTINGS, plan=PLAN)
    bound = pipeline.settings.staleness_bound

    probe_new_mode = NEW_MODE[None, :]
    assert pipeline.classify(probe_new_mode)[0] is Label.LOW

    client = ClassifyClient(pipeline)
    client.start()
    pipeline.start()
    max_staleness = 0.0
    try:
        rng = np.random.default_rng(1234)
        for position in range(0, STREAM_LEN, BATCH):
            batch = rng.normal(size=(BATCH, 2)) * 0.5
            pipeline.ingest(PLAN.apply_shift(batch, position))
            max_staleness = max(max_staleness, pipeline.staleness_seconds())
            time.sleep(0.02)

        # The scripted run: rollback (gen 1) then a successful swap
        # (gen 2, after its transient crash). Wait out the declared
        # staleness bound at most.
        deadline = time.monotonic() + bound
        while time.monotonic() < deadline:
            max_staleness = max(max_staleness, pipeline.staleness_seconds())
            if pipeline.swaps >= 1:
                break
            time.sleep(0.05)
    finally:
        pipeline.stop(join=True)
        client.stop_event.set()
        client.join(timeout=10.0)

    # --- zero dropped requests, nonstop service -----------------------
    assert client.errors == []
    assert client.requests > 0

    # --- the scripted failures actually happened, and were survived ---
    assert pipeline.rollbacks >= 1, "corrupted artifact was never refused"
    assert pipeline.swaps >= 1, "no refit ever swapped in"
    swap_outcome = pipeline._last_refit
    assert swap_outcome is not None and swap_outcome.ok
    assert swap_outcome.crashes >= 1, "the transient crash never fired"
    assert swap_outcome.retries >= 1
    assert pipeline.monitor_errors == 0
    # Each detection step is check_interval plus one drift test; the
    # staleness derivation (docs/streaming.md) needs the test shorter.
    check_seconds = pipeline.status()["drift_check_seconds"]["max"]
    assert 0.0 < check_seconds < pipeline.settings.check_interval

    # --- served labels track the post-drift threshold -----------------
    assert pipeline.classify(probe_new_mode)[0] is Label.HIGH
    assert pipeline.classify(np.array([[12.0, 12.0]]))[0] is Label.LOW
    assert pipeline.model.generation >= 1

    # --- staleness never exceeded the declared bound. (It need not be
    # exactly zero at the end: once the stream is pure new-regime, a
    # post-swap check may legitimately re-detect drift of the
    # mixture-trained threshold and start the next refit cycle.)
    assert max_staleness <= bound
    assert pipeline.staleness_seconds() <= bound

    # --- conservation accounting survived every fault -----------------
    accounting = pipeline.verify_accounting()
    assert accounting["ok"], accounting
    assert accounting["ingested_total"] == STREAM_LEN
    assert accounting["model_total"] == pipeline.initial_n + STREAM_LEN
    status = pipeline.status()
    assert status["accounting"]["ok"]
    assert status["last_swap"]["ok"]


def test_soak_artifacts_on_disk(pipeline_factory, tmp_path):
    """Every refit generation leaves its artifact where status says."""
    pipeline = pipeline_factory(plan=PLAN)
    rng = np.random.default_rng(77)
    pipeline.ingest(rng.normal(size=(128, 2)) * 0.5 + NEW_MODE)
    first = pipeline.refit_and_swap()   # gen 1: corrupted -> rollback
    second = pipeline.refit_and_swap()  # gen 2: crash, retry -> swap
    assert first.ok and pipeline.rollbacks == 1
    assert second.ok and pipeline.swaps == 1
    artifacts = sorted(p.name for p in pipeline.artifact_dir.iterdir())
    assert artifacts == ["model-gen-0001.tkdc", "model-gen-0002.tkdc"]


# ---------------------------------------------------------------------------
# Crash-recovery soak: SIGKILL mid-ingest, zero acknowledged-point loss
# ---------------------------------------------------------------------------

CHILD_SCRIPT = r"""
import sys
from pathlib import Path

import numpy as np

from repro.io.models import load_model
from repro.serve.reload import prepare_classifier
from repro.streaming import StreamingPipeline, StreamSettings

model_path, wal_dir = sys.argv[1], sys.argv[2]
settings = StreamSettings(
    fsync_policy="always", check_interval=0.05, min_refit_interval=0.0,
)
classifier = prepare_classifier(load_model(model_path))
if any(Path(wal_dir).glob("wal-*.seg")):
    pipeline = StreamingPipeline.recover(
        wal_dir, settings=settings, fallback_classifier=classifier,
    )
else:
    pipeline = StreamingPipeline.from_classifier(
        classifier, settings=settings, wal_dir=wal_dir,
    )
seq = pipeline._ingest_watermarks.get("soak", 0)
print(f"READY n_total={pipeline.model.n_total} seq={seq}", flush=True)
rng = np.random.default_rng(1000 + seq)
while True:
    seq += 1
    batch = rng.normal(size=(16, 2)) * 0.5
    out = pipeline.ingest_batch(batch, source="soak", source_seq=seq)
    # The ACK is printed only after ingest_batch returns — i.e. after
    # the WAL fsync under fsync_policy="always". Printing IS the
    # client-visible acknowledgement the parent holds us to.
    print(f"ACK {seq} {out['accepted']}", flush=True)
"""

KILL_AFTER_ACKS = (3, 7, 2)  # three phases, killed at different depths
SOAK_BATCH_ROWS = 16


def _run_child_until_kill(script_path, model_path, wal_dir, ack_target):
    """Start one ingest child, SIGKILL it after ``ack_target`` ACKs.

    Returns every sequence number the child acknowledged. The kill is
    sent as soon as the Nth ACK line is read, i.e. while the next append
    is very likely mid-flight — the torn-tail case recovery must absorb.
    The child keeps ingesting until the signal lands, so ACKs it printed
    after the Nth are read from the pipe once it is dead: each one was a
    client-visible acknowledgement and must survive too.
    """
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).resolve().parents[1]),
        env.get("PYTHONPATH", ""),
    ]))
    process = subprocess.Popen(
        [sys.executable, str(script_path), str(model_path), str(wal_dir)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    acked = []
    try:
        ready = process.stdout.readline().strip()
        assert ready.startswith("READY"), f"child not ready: {ready!r}"
        while len(acked) < ack_target:
            line = process.stdout.readline().strip()
            assert line.startswith("ACK"), f"unexpected child line: {line!r}"
            __, seq, rows = line.split()
            assert int(rows) == SOAK_BATCH_ROWS
            acked.append(int(seq))
        os.kill(process.pid, signal.SIGKILL)
        process.wait()
        # One ACK line is one write of a few bytes, so a line is in the
        # pipe whole or not at all.
        for line in process.stdout.read().splitlines():
            assert line.startswith("ACK"), f"unexpected child line: {line!r}"
            __, seq, rows = line.split()
            assert int(rows) == SOAK_BATCH_ROWS
            acked.append(int(seq))
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    return acked


def test_kill9_soak_zero_acknowledged_loss(stream_config, base_data, tmp_path):
    """SIGKILL an ingesting process at arbitrary points; every point it
    acknowledged must survive recovery, across repeated takeovers."""
    from repro import TKDCClassifier
    from repro.io.models import load_model, save_model
    from repro.serve.reload import prepare_classifier
    from repro.streaming import StreamingPipeline, StreamSettings

    classifier = TKDCClassifier(stream_config).fit(base_data)
    model_path = save_model(tmp_path / "soak-model.tkdc", classifier)
    script_path = tmp_path / "ingest_child.py"
    script_path.write_text(CHILD_SCRIPT)
    wal_dir = tmp_path / "wal"

    all_acked: list[int] = []
    phases: list[list[int]] = []
    for ack_target in KILL_AFTER_ACKS:
        acked = _run_child_until_kill(
            script_path, model_path, wal_dir, ack_target
        )
        phases.append(acked)
        all_acked.extend(acked)
    # Within a phase the ACK stream is gapless; across a kill the
    # successor may resume ONE past the last ACK — a batch that became
    # durable between its fsync and its ACK print. It must never repeat
    # a sequence (double-ingest) and never skip more than that one.
    for acked in phases:
        assert acked == list(range(acked[0], acked[0] + len(acked)))
    for previous, current in zip(phases, phases[1:]):
        assert current[0] - previous[-1] in (1, 2)

    # Final takeover happens in-process so we can inspect everything.
    recovered = StreamingPipeline.recover(
        wal_dir,
        settings=StreamSettings(fsync_policy="always"),
        fallback_classifier=prepare_classifier(load_model(model_path)),
    )
    try:
        acked_points = SOAK_BATCH_ROWS * len(all_acked)
        # ZERO acknowledged-point loss: everything acked is in n_total.
        assert recovered.ingested_total >= acked_points
        # At most one un-acked batch per kill can have reached the WAL
        # (appended + fsynced, killed before the ACK printed). Those are
        # durable-but-unacknowledged: replaying them is correct, losing
        # acked ones is not.
        assert recovered.ingested_total <= acked_points + (
            SOAK_BATCH_ROWS * len(KILL_AFTER_ACKS)
        )
        assert recovered._ingest_watermarks["soak"] >= max(all_acked)
        assert recovered.model.n_total == (
            recovered.initial_n + recovered.ingested_total
        )
        accounting = recovered.verify_accounting()
        assert accounting["ok"], accounting
        # Serving works immediately on the recovered state.
        labels = recovered.classify(np.zeros((1, 2)))
        assert labels.shape == (1,)
    finally:
        recovered.stop(join=True)
