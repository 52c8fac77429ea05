"""The shared-memory *model plane* the serving fleet attaches to.

:mod:`repro.index.shm` moves the heavy ``FlatTree`` arrays across
processes; this module moves everything else a worker needs to serve the
model: a pickled classifier *skeleton* (config, kernel, threshold, grid
cache, coreset certificate — with the tree and all per-point arrays
stripped, so the pickle stays kilobytes regardless of model size), the
router-measured deadline→budget calibration, and the source model file's
sha256. All of it rides in the tree manifest's ``extras``, so one JSON
file fully describes one servable generation:

    publish_classifier(clf, ...)    router: segments + manifest
    manifest.save(path)             router: atomic file for workers
    attach_classifier(path)         worker: classifier wired to shm tree

The skeleton blob carries its own sha256 in the manifest so a torn or
hand-edited manifest is refused before unpickling, mirroring the
integrity-first posture of :mod:`repro.io.models` for whole model files.
"""

from __future__ import annotations

import base64
import copy
import dataclasses
import hashlib
import pickle
from pathlib import Path

import numpy as np

from repro.core.classifier import TKDCClassifier
from repro.core.stats import TraversalStats
from repro.index.shm import (
    PublishedTree,
    ShmManifestError,
    TreeAttachment,
    TreeManifest,
    attach_flat_tree,
    publish_flat_tree,
)
from repro.obs.buildinfo import build_info
from repro.serve.calibrate import BudgetCalibration

#: Conventional basename for the live-generation manifest file.
MANIFEST_BASENAME = "MANIFEST.json"


def file_sha256(path: Path | str) -> str:
    """Hex sha256 of a file's bytes (the manifest's model identity)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def model_skeleton(classifier: TKDCClassifier) -> TKDCClassifier:
    """A copy of ``classifier`` with every per-point array stripped.

    What remains is exactly the state ``classify_detailed`` reads besides
    the tree: config, kernel, threshold, ``_rule_eta``, the grid cache
    (a small Counter), and the coreset *certificate* (``eta``/``delta``/
    ``deterministic`` drive the ``certified`` semantics; the coreset's
    own point arrays already live in the tree segments, so they are
    replaced by a one-row placeholder rather than pickled twice).
    """
    skeleton = copy.copy(classifier)
    skeleton._tree = None
    skeleton._stats = TraversalStats()
    skeleton.training_scores_ = None
    skeleton.training_labels_ = None
    # The hbe index is per-point state (hash tables over every tree
    # point); workers rebuild it deterministically from config.seed and
    # the shm tree's point order, so dropping it costs one lazy rebuild
    # and guarantees identical tables fleet-wide.
    skeleton._hbe = None
    if skeleton.coreset_ is not None:
        coreset = skeleton.coreset_
        placeholder = np.zeros((1, coreset.points.shape[1]), dtype=np.float64)
        skeleton.coreset_ = dataclasses.replace(
            coreset,
            points=placeholder,
            weights=None if coreset.weights is None else np.ones(1),
        )
    return skeleton


def publish_classifier(
    classifier: TKDCClassifier,
    model_path: Path | str,
    model_sha256: str,
    calibration: BudgetCalibration,
    generation: str | None = None,
) -> PublishedTree:
    """Publish one servable generation: tree segments + full manifest.

    The caller (the router) keeps the returned :class:`PublishedTree`
    alive for the generation's lifetime and is responsible for
    ``manifest.save(...)`` and the eventual ``unlink()``.
    """
    blob = pickle.dumps(
        model_skeleton(classifier), protocol=pickle.HIGHEST_PROTOCOL
    )
    extras = {
        "skeleton_pickle_b64": base64.b64encode(blob).decode("ascii"),
        "skeleton_sha256": hashlib.sha256(blob).hexdigest(),
        "source_model": str(model_path),
        "threshold": float(classifier.threshold.value),
        "calibration": {
            "expansions_per_second": calibration.expansions_per_second,
            "measured": calibration.measured,
            "sample_queries": calibration.sample_queries,
            "expansions_observed": calibration.expansions_observed,
            "engine": calibration.engine,
            "engine_reason": calibration.engine_reason,
            "per_engine": [list(item) for item in calibration.per_engine],
        },
    }
    return publish_flat_tree(
        classifier.tree.flatten(),
        generation=generation,
        model_sha256=model_sha256,
        build=build_info(),
        extras=extras,
        splits=classifier.tree.splits,
    )


def calibration_from_manifest(manifest: TreeManifest) -> BudgetCalibration:
    """The router-measured calibration shipped in the manifest.

    Workers use this instead of re-running ``measure_expansion_rate``
    at boot, so fleet startup is O(1) calibrations and every worker maps
    deadlines to budgets identically.
    """
    raw = manifest.extras.get("calibration")
    if not isinstance(raw, dict):
        raise ShmManifestError("manifest carries no calibration block")
    try:
        per_engine = tuple(
            (str(name), float(rate))
            for name, rate in raw.get("per_engine", [])
        )
        return BudgetCalibration(
            expansions_per_second=float(raw["expansions_per_second"]),
            measured=bool(raw["measured"]),
            sample_queries=int(raw["sample_queries"]),
            expansions_observed=int(raw["expansions_observed"]),
            # Manifests written before the hbe engine carry no engine
            # fields; those fleets were batch-only by construction.
            engine=str(raw.get("engine", "batch")),
            engine_reason=str(raw.get("engine_reason", "configured")),
            per_engine=per_engine,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShmManifestError(
            f"manifest calibration block is malformed: {exc}"
        ) from exc


def attach_classifier(
    manifest: TreeManifest | Path | str,
) -> tuple[TKDCClassifier, TreeAttachment, TreeManifest]:
    """Reconstruct a servable classifier from a published generation.

    Verifies the skeleton blob's sha256 *before* unpickling, then wires
    the skeleton to the shm-attached tree. The returned attachment must
    outlive the classifier (its arrays are views into the mappings).
    """
    if not isinstance(manifest, TreeManifest):
        manifest = TreeManifest.load(manifest)
    encoded = manifest.extras.get("skeleton_pickle_b64")
    expected = manifest.extras.get("skeleton_sha256")
    if not isinstance(encoded, str) or not isinstance(expected, str):
        raise ShmManifestError(
            "manifest carries no classifier skeleton — published without "
            "publish_classifier?"
        )
    try:
        blob = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ShmManifestError(
            f"manifest skeleton is not valid base64: {exc}"
        ) from exc
    actual = hashlib.sha256(blob).hexdigest()
    if actual != expected:
        raise ShmManifestError(
            f"manifest skeleton failed its sha256 check (stored "
            f"{expected[:16]}…, computed {actual[:16]}…); refusing to unpickle"
        )
    skeleton = pickle.loads(blob)
    if not isinstance(skeleton, TKDCClassifier):
        raise ShmManifestError("manifest skeleton is not a TKDCClassifier")
    attachment = attach_flat_tree(manifest)
    skeleton._tree = attachment.tree
    return skeleton, attachment, manifest
