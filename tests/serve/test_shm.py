"""Shared-memory model-plane tests: the fleet's zero-copy substrate.

Covers the contract the fleet depends on: publish→attach round-trips
are bit-identical (weighted and unweighted trees alike), attached
arrays are read-only, a stale or tampered manifest fails loudly before
anything is unpickled, and a clean shutdown leaves nothing behind in
``/dev/shm``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.index.flat import FlatTree
from repro.index.kdtree import KDTree
from repro.index.shm import (
    ARRAY_FIELDS,
    ShmAttachError,
    ShmManifestError,
    TreeManifest,
    attach_flat_tree,
    new_generation_id,
    publish_flat_tree,
)
from repro.io.models import load_model
from repro.serve.calibrate import calibrate
from repro.serve.plane import (
    attach_classifier,
    calibration_from_manifest,
    file_sha256,
    publish_classifier,
)
from repro.serve.reload import prepare_classifier


def _segments_named(generation: str) -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm to inspect on this platform")
    return [name for name in os.listdir(shm_dir) if name.startswith(generation)]


@pytest.fixture
def flat(rng) -> FlatTree:
    return KDTree(rng.normal(size=(257, 3)), leaf_size=16).flatten()


@pytest.fixture
def weighted_flat(rng) -> FlatTree:
    points = rng.normal(size=(128, 2))
    weights = rng.uniform(0.5, 2.0, size=128)
    return KDTree(points, leaf_size=8, weights=weights).flatten()


class TestRoundTrip:
    def test_bit_identical_unweighted(self, flat):
        published = publish_flat_tree(flat)
        attachment = attach_flat_tree(published.manifest)
        try:
            for name in ARRAY_FIELDS:
                source = getattr(flat, name)
                mirrored = getattr(attachment.flat, name)
                if source is None:
                    assert mirrored is None
                    continue
                assert mirrored.dtype == source.dtype
                np.testing.assert_array_equal(mirrored, source)
        finally:
            attachment.close()
            published.unlink()

    def test_bit_identical_weighted(self, weighted_flat):
        published = publish_flat_tree(weighted_flat)
        attachment = attach_flat_tree(published.manifest)
        try:
            assert attachment.flat.point_weights is not None
            np.testing.assert_array_equal(
                attachment.flat.point_weights, weighted_flat.point_weights
            )
            np.testing.assert_array_equal(
                attachment.flat.node_weight, weighted_flat.node_weight
            )
            assert attachment.flat.total_weight == pytest.approx(
                weighted_flat.total_weight
            )
        finally:
            attachment.close()
            published.unlink()

    def test_attached_tree_absorbs_like_the_kdtree(self, rng):
        tree = KDTree(rng.normal(size=(257, 3)), leaf_size=16)
        rows = rng.normal(size=(90, 3)) * 1.5
        published = publish_flat_tree(tree.flatten(), splits=tree.splits)
        attachment = attach_flat_tree(published.manifest)
        try:
            for mass in (257, 1000.0):
                expected = tree.absorb(rows, mass=mass)
                absorbed = attachment.tree.absorb(rows, mass=mass)
                for name in ARRAY_FIELDS:
                    if getattr(expected, name) is None:
                        assert getattr(absorbed, name) is None
                    else:
                        np.testing.assert_array_equal(
                            getattr(absorbed, name), getattr(expected, name)
                        )
        finally:
            attachment.close()
            published.unlink()

    def test_tree_published_without_splits_cannot_absorb(self, flat):
        published = publish_flat_tree(flat)
        attachment = attach_flat_tree(published.manifest)
        try:
            with pytest.raises(AttributeError, match="without its splits"):
                attachment.tree.absorb(np.zeros((1, 3)), mass=flat.size)
        finally:
            attachment.close()
            published.unlink()

    def test_attached_arrays_are_read_only(self, flat):
        published = publish_flat_tree(flat)
        attachment = attach_flat_tree(published.manifest)
        try:
            with pytest.raises(ValueError, match="read-only"):
                attachment.flat.points[0, 0] = 99.0
        finally:
            attachment.close()
            published.unlink()

    def test_manifest_file_round_trip(self, flat, tmp_path):
        published = publish_flat_tree(
            flat, model_sha256="ab" * 32, extras={"note": "x"}
        )
        path = published.manifest.save(tmp_path / "MANIFEST.json")
        attachment = attach_flat_tree(path)
        try:
            assert attachment.manifest.model_sha256 == "ab" * 32
            assert attachment.manifest.extras == {"note": "x"}
            np.testing.assert_array_equal(attachment.flat.points, flat.points)
        finally:
            attachment.close()
            published.unlink()

    def test_facade_matches_kdtree_surface(self, flat):
        published = publish_flat_tree(flat)
        attachment = attach_flat_tree(published.manifest)
        try:
            tree = attachment.tree
            assert tree.flatten() is attachment.flat
            assert tree.size == flat.size
            assert tree.dim == flat.dim
            assert tree.total_weight == pytest.approx(flat.total_weight)
            np.testing.assert_array_equal(tree.points, flat.points)
        finally:
            attachment.close()
            published.unlink()


class TestFailsLoudly:
    def test_stale_manifest_after_unlink(self, flat):
        published = publish_flat_tree(flat)
        manifest = published.manifest
        published.unlink()
        with pytest.raises(ShmAttachError, match="stale manifest"):
            attach_flat_tree(manifest)

    def test_never_published_generation(self, flat):
        published = publish_flat_tree(flat)
        # A manifest whose names point at segments nobody ever created.
        ghost = dataclasses.replace(
            published.manifest, generation=new_generation_id("ghost")
        )
        ghost = dataclasses.replace(
            ghost,
            segments={
                name: dataclasses.replace(spec, segment=f"ghost-{name}")
                for name, spec in ghost.segments.items()
            },
        )
        try:
            with pytest.raises(ShmAttachError, match="does not exist"):
                attach_flat_tree(ghost)
        finally:
            published.unlink()

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(ShmAttachError, match="no manifest file"):
            attach_flat_tree(tmp_path / "nope.json")

    def test_foreign_manifest_refused(self, tmp_path):
        path = tmp_path / "MANIFEST.json"
        path.write_text('{"magic": "something-else", "version": 1}')
        with pytest.raises(ShmManifestError, match="magic"):
            TreeManifest.load(path)

    def test_version_skew_refused(self, flat, tmp_path):
        published = publish_flat_tree(flat)
        try:
            raw = published.manifest.to_dict()
            raw["version"] = 999
            with pytest.raises(ShmManifestError, match="version"):
                TreeManifest.from_dict(raw)
        finally:
            published.unlink()

    def test_missing_required_array_refused(self, flat):
        published = publish_flat_tree(flat)
        try:
            raw = published.manifest.to_dict()
            del raw["segments"]["points"]
            with pytest.raises(ShmManifestError, match="points"):
                TreeManifest.from_dict(raw)
        finally:
            published.unlink()

    def test_size_mismatch_refused(self, flat):
        published = publish_flat_tree(flat)
        try:
            lying = dataclasses.replace(
                published.manifest,
                segments={
                    name: (
                        dataclasses.replace(
                            spec, shape=(spec.shape[0] * 1000,) + spec.shape[1:]
                        )
                        if name == "points"
                        else spec
                    )
                    for name, spec in published.manifest.segments.items()
                },
            )
            with pytest.raises(ShmAttachError, match="bytes"):
                attach_flat_tree(lying)
        finally:
            published.unlink()


class TestLifecycle:
    def test_unlink_leaves_no_segments(self, flat):
        published = publish_flat_tree(flat)
        generation = published.manifest.generation
        assert _segments_named(generation)
        published.unlink()
        assert not _segments_named(generation)

    def test_unlink_is_idempotent(self, flat):
        published = publish_flat_tree(flat)
        published.unlink()
        published.unlink()

    def test_attacher_close_does_not_destroy(self, flat):
        published = publish_flat_tree(flat)
        try:
            first = attach_flat_tree(published.manifest)
            first.close()
            # The generation must survive an attacher's exit: a second
            # attach still works (the bpo-39959 regression guard).
            second = attach_flat_tree(published.manifest)
            np.testing.assert_array_equal(second.flat.points, flat.points)
            second.close()
        finally:
            published.unlink()


class TestModelPlane:
    @pytest.fixture(scope="class")
    def plane(self, model_path, tmp_path_factory):
        classifier = prepare_classifier(load_model(model_path))
        calibration = calibrate(classifier, 32, seed=0)
        published = publish_classifier(
            classifier, model_path, file_sha256(model_path), calibration
        )
        manifest_file = published.manifest.save(
            tmp_path_factory.mktemp("plane") / "MANIFEST.json"
        )
        yield classifier, calibration, published, manifest_file
        published.unlink()

    def test_classify_parity_with_source_model(self, plane, rng):
        classifier, __, __, manifest_file = plane
        attached, attachment, __ = attach_classifier(manifest_file)
        try:
            queries = rng.normal(size=(32, 2)) * 2.5
            reference = classifier.classify_detailed(queries)
            mirrored = attached.classify_detailed(queries)
            np.testing.assert_array_equal(
                reference.resolved_labels(), mirrored.resolved_labels()
            )
            np.testing.assert_allclose(reference.lower, mirrored.lower)
            np.testing.assert_allclose(reference.upper, mirrored.upper)
        finally:
            attachment.close()

    def test_attached_model_streams_like_the_source(self, plane, rng):
        # A fleet's ingest owner streams over its attached model: once
        # the buffer reaches an absorb step it must answer as the model
        # loaded from its file does.
        from repro.core.incremental import _ABSORB_STEP, IncrementalTKDC

        classifier, __, __, manifest_file = plane
        attached, attachment, __ = attach_classifier(manifest_file)
        try:
            rows = rng.normal(size=(_ABSORB_STEP + 50, 2))
            queries = rng.normal(size=(32, 2)) * 2.5
            answers = []
            for model in (classifier, attached):
                stream = IncrementalTKDC(model.config, auto_refit=False)
                stream.adopt(model, n_indexed=model.tree.size)
                stream.insert(rows)
                assert stream.n_absorbed == _ABSORB_STEP
                answers.append(stream.classify_detailed(queries))
            np.testing.assert_array_equal(answers[0].labels, answers[1].labels)
            np.testing.assert_array_equal(answers[0].lower, answers[1].lower)
            np.testing.assert_array_equal(answers[0].upper, answers[1].upper)
        finally:
            attachment.close()

    def test_calibration_ships_in_manifest(self, plane):
        __, calibration, __, manifest_file = plane
        manifest = TreeManifest.load(manifest_file)
        shipped = calibration_from_manifest(manifest)
        assert shipped == calibration
        # Engine selection rides along so workers resolve identically.
        assert shipped.engine == calibration.engine
        assert shipped.engine_reason == calibration.engine_reason
        assert shipped.per_engine == calibration.per_engine

    def test_pre_hbe_manifest_defaults_to_batch(self, plane):
        """Manifests written before the hbe engine carry no engine
        fields; those fleets were batch-only by construction."""
        *__, manifest_file = plane
        manifest = TreeManifest.load(manifest_file)
        doctored = dict(manifest.extras)
        legacy = dict(doctored["calibration"])
        for key in ("engine", "engine_reason", "per_engine"):
            legacy.pop(key, None)
        doctored["calibration"] = legacy
        shipped = calibration_from_manifest(
            dataclasses.replace(manifest, extras=doctored)
        )
        assert shipped.engine == "batch"
        assert shipped.engine_reason == "configured"
        assert shipped.per_engine == ()

    def test_skeleton_strips_hbe_index(self, plane):
        """The hbe tables are per-point state rebuilt deterministically
        from the seed; the published skeleton must not carry them."""
        classifier, *__, manifest_file = plane
        attached, attachment, __ = attach_classifier(manifest_file)
        try:
            assert attached._hbe is None
        finally:
            attachment.close()

    def test_tampered_skeleton_refused(self, plane, tmp_path):
        *__, manifest_file = plane
        manifest = TreeManifest.load(manifest_file)
        doctored = dict(manifest.extras)
        doctored["skeleton_sha256"] = "0" * 64
        tampered = dataclasses.replace(manifest, extras=doctored)
        path = tampered.save(tmp_path / "tampered.json")
        with pytest.raises(ShmManifestError, match="sha256"):
            attach_classifier(path)

    def test_manifest_records_model_identity(self, plane, model_path):
        *__, manifest_file = plane
        manifest = TreeManifest.load(manifest_file)
        assert manifest.model_sha256 == file_sha256(model_path)
        assert manifest.extras["source_model"] == str(model_path)
        assert manifest.build  # provenance present
