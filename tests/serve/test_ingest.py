"""The daemon's /ingest endpoint and its accounting invariant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming import StreamingPipeline, StreamSettings
from repro.streaming.wal import WriteAheadLog

#: Fast pipeline settings for endpoint tests (no background thread).
PIPE_SETTINGS = StreamSettings(
    monitor_window=32, check_interval=0.05, min_refit_interval=0.0,
    refit_sample_cap=2000, sketch_capacity=256, canary_queries=8,
)


def ingest_invariant(stats) -> tuple[int, int]:
    return (
        stats.ingest_submitted,
        stats.ingest_completed + stats.ingest_rejected,
    )


@pytest.fixture
def streaming_server(server_factory, tmp_path):
    server, client = server_factory()
    pipeline = StreamingPipeline.from_classifier(
        server.manager.classifier,
        settings=PIPE_SETTINGS,
        reloader=server.manager,
        artifact_dir=tmp_path,
    )
    server.attach_pipeline(pipeline, start=False)
    yield server, client, pipeline
    pipeline.stop(join=True)


class TestWithoutPipeline:
    def test_ingest_409_when_not_streaming(self, server_factory):
        server, client = server_factory()
        status, body = client.request(
            "POST", "/ingest", {"points": [[0.0, 0.0]]}
        )
        assert status == 409
        assert body["error"] == "no_streaming_pipeline"
        submitted, terminal = ingest_invariant(server.stats)
        assert submitted == terminal == 1
        assert server.stats.ingest_rejected == 1


class TestWithPipeline:
    def test_ingest_folds_points_in(self, streaming_server):
        server, client, pipeline = streaming_server
        points = np.random.default_rng(0).normal(size=(12, 2)).tolist()
        status, body = client.request("POST", "/ingest", {"points": points})
        assert status == 200
        assert body["ingested"] == 12
        assert body["n_total"] == pipeline.initial_n + 12
        assert body["generation"] == pipeline.model.generation
        assert pipeline.ingested_total == 12
        assert server.stats.ingested_points == 12
        submitted, terminal = ingest_invariant(server.stats)
        assert submitted == terminal == 1

    def test_bad_bodies_rejected_with_accounting(self, streaming_server):
        server, client, __ = streaming_server
        cases = [
            ("POST", "/ingest", None),                       # no JSON body
            ("POST", "/ingest", {"rows": [[0.0, 0.0]]}),     # wrong key
            ("POST", "/ingest", {"points": [[0.0, 0.0, 0.0]]}),  # bad dim
        ]
        for method, path, body in cases:
            status, __payload = client.request(method, path, body)
            assert status == 400
        submitted, terminal = ingest_invariant(server.stats)
        assert submitted == terminal == len(cases)
        assert server.stats.ingest_rejected == len(cases)
        assert server.stats.ingested_points == 0

    def test_nan_ingest_refused_and_never_logged(self, server_factory, tmp_path):
        """Regression: one NaN row used to be accepted and written to the
        WAL, after which every streaming classify answered LOW with NaN
        bounds, durably across restarts."""
        server, client = server_factory()
        pipeline = StreamingPipeline.from_classifier(
            server.manager.classifier, settings=PIPE_SETTINGS,
            reloader=server.manager, artifact_dir=tmp_path,
            wal=WriteAheadLog(tmp_path / "wal"),
        )
        server.attach_pipeline(pipeline, start=False)
        try:
            rng = np.random.default_rng(2)
            probes = {"points": rng.uniform(-4.0, 4.0, size=(64, 2)).tolist()}
            status, body = client.request("POST", "/ingest", {"points": [[0.5, 0.5]] * 8})
            assert status == 200
            n_total = body["n_total"]
            status, before = client.request("POST", "/classify", probes)
            assert status == 200 and 1 in before["labels"]
            appends = pipeline.wal.appends
            # json.dumps writes the NaN literal, which json.loads accepts.
            status, body = client.request("POST", "/ingest", {"points": [[float("nan"), 0.0]]})
            assert status == 400
            assert "not finite" in body["detail"]
            assert pipeline.wal.appends == appends
            assert pipeline.model.n_total == n_total
            status, after = client.request("POST", "/classify", probes)
            assert status == 200
            assert after["labels"] == before["labels"]
            assert after["degraded"] == before["degraded"]
            submitted, terminal = ingest_invariant(server.stats)
            assert submitted == terminal == 2
            assert server.stats.ingest_rejected == 1
            status, snapshot = client.statz()
            assert status == 200 and snapshot["streaming"]["accounting"]["ok"]
        finally:
            pipeline.stop(join=True)

    def test_served_classify_includes_ingested_points(self, streaming_server):
        """Regression: /classify used to clone the manager's batch
        classifier directly, so ingested points never reached served
        answers until a refit swapped the model."""
        __, client, pipeline = streaming_server
        spot = [0.0, 3.0]  # empty region of the two-mode training set
        status, before = client.request("POST", "/classify", {"points": [spot]})
        assert status == 200
        assert before["labels"] == [0]
        rng = np.random.default_rng(1)
        cluster = (
            np.asarray(spot) + rng.normal(scale=0.05, size=(220, 2))
        ).tolist()
        status, __body = client.request("POST", "/ingest", {"points": cluster})
        assert status == 200
        # No refit happened: the flip must come from the exact buffer.
        assert pipeline.model.n_buffered == 220
        status, after = client.request("POST", "/classify", {"points": [spot]})
        assert status == 200
        assert after["labels"] == [1]

    def test_statz_exposes_streaming_section(self, streaming_server):
        __, client, pipeline = streaming_server
        client.request("POST", "/ingest", {"points": [[0.0, 0.0]] * 5})
        status, snapshot = client.statz()
        assert status == 200
        streaming = snapshot["streaming"]
        assert streaming["ingested_total"] == 5
        assert streaming["accounting"]["ok"]
        assert streaming["n_total"] == pipeline.initial_n + 5

    def test_draining_refuses_ingest(self, streaming_server):
        # Drive the policy layer directly: a full drain also races the
        # listener shutdown, which is the daemon suite's concern.
        server, __, __pipeline = streaming_server
        server.draining.set()
        try:
            status, body = server.handle_ingest(b'{"points": [[0.0, 0.0]]}')
        finally:
            server.draining.clear()
        assert status == 503
        assert body["error"] == "draining"
        submitted, terminal = ingest_invariant(server.stats)
        assert submitted == terminal
        assert server.stats.ingest_rejected == 1
