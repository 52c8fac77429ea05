"""Zero-copy publication of :class:`FlatTree` arrays over shared memory.

The multi-process serving fleet (``docs/serving.md``) needs every worker
to traverse the same index without holding its own copy of the point
arrays. This module publishes a :class:`~repro.index.flat.FlatTree`'s
backing arrays into named :mod:`multiprocessing.shared_memory` segments
and reconstructs a *read-only* ``FlatTree`` in any other process by
attaching — per-worker memory beyond the mapping is O(1) regardless of
model size, and no point array is ever pickled across the process
boundary.

A published *generation* is described by a small JSON manifest (segment
name, dtype, and shape per array, plus the source model's sha256 and
build info) that is written to disk and handed to workers.
:func:`attach_flat_tree` validates the manifest strictly and fails
loudly (:class:`ShmAttachError`) when a segment has been unlinked out
from under it — the stale-manifest failure mode — or is smaller than the
shapes claim.

Ownership is asymmetric: the *publisher* (the fleet router) owns the
segments and must call :meth:`PublishedTree.unlink` exactly once when a
generation is retired; attachers only :meth:`TreeAttachment.close` to
unmap. CPython's ``multiprocessing.resource_tracker`` assumes
create-and-forget ownership and would unlink any segment a process
merely *attached* when that process exits (bpo-39959) — destroying the
live model plane for the whole fleet the first time one worker restarts.
:func:`_open_segment` therefore bypasses tracker registration on attach
(via ``track=False`` where available, else by masking the tracker's
``register`` hook for the duration of the open).

POSIX shared memory is backed by ``/dev/shm`` on Linux; see
``docs/serving.md`` for the platform caveat and the single-process
fallback.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.index.flat import FlatTree, absorb_rows
from repro.io.atomic import atomic_write_bytes

#: Manifest format marker + version; bumped on incompatible changes so a
#: worker from a different build refuses a manifest it cannot trust.
MANIFEST_MAGIC = "repro-shm-flattree"
MANIFEST_VERSION = 1

#: FlatTree array fields published as segments, in manifest order.
#: ``point_weights`` is optional (absent for unweighted trees).
ARRAY_FIELDS = (
    "points", "lo", "hi", "count", "start", "end",
    "left", "right", "node_weight", "point_weights",
)

#: The tree's per-node split axis and value, published beside the flat
#: arrays so an attached tree can absorb rows (optional).
_SPLIT_FIELDS = ("split_dim", "split_value")

_REQUIRED_FIELDS = tuple(f for f in ARRAY_FIELDS if f != "point_weights")

#: Serializes the resource-tracker masking in :func:`_open_segment` so
#: concurrent attaches from handler threads never race on the patch.
_TRACKER_LOCK = threading.Lock()


class ShmManifestError(ValueError):
    """A shared-memory manifest is malformed or from a foreign format."""


class ShmAttachError(RuntimeError):
    """Attaching to a published generation failed.

    The usual cause is a *stale manifest*: the publisher retired the
    generation (unlinking its segments) after the manifest was read, or
    the publishing process died without ever creating them.
    """


def _open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment WITHOUT resource-tracker tracking.

    The tracker would unlink the segment when this process exits,
    destroying it for every other attached process (bpo-39959). Python
    3.13+ exposes ``track=False``; earlier versions need the tracker's
    ``register`` hook masked for the duration of the constructor.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    with _TRACKER_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class SegmentSpec:
    """How to reinterpret one shared segment as a numpy array."""

    segment: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize

    def to_dict(self) -> dict:
        return {
            "segment": self.segment,
            "dtype": self.dtype,
            "shape": list(self.shape),
        }

    @classmethod
    def from_dict(cls, raw: object, field_name: str) -> "SegmentSpec":
        if not isinstance(raw, dict):
            raise ShmManifestError(
                f"segment spec for {field_name!r} must be an object, got {raw!r}"
            )
        try:
            segment = raw["segment"]
            dtype = raw["dtype"]
            shape = tuple(int(extent) for extent in raw["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ShmManifestError(
                f"segment spec for {field_name!r} is malformed: {exc}"
            ) from exc
        if not isinstance(segment, str) or not segment:
            raise ShmManifestError(
                f"segment spec for {field_name!r} has no segment name"
            )
        try:
            np.dtype(dtype)
        except TypeError as exc:
            raise ShmManifestError(
                f"segment spec for {field_name!r} has invalid dtype {dtype!r}"
            ) from exc
        if any(extent < 0 for extent in shape):
            raise ShmManifestError(
                f"segment spec for {field_name!r} has negative shape {shape}"
            )
        return cls(segment=segment, dtype=str(dtype), shape=shape)


@dataclass(frozen=True)
class TreeManifest:
    """Everything a process needs to attach one published generation."""

    generation: str
    segments: dict[str, SegmentSpec]
    model_sha256: str = ""
    build: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "magic": MANIFEST_MAGIC,
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "model_sha256": self.model_sha256,
            "build": self.build,
            "segments": {
                name: spec.to_dict() for name, spec in self.segments.items()
            },
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, raw: object) -> "TreeManifest":
        if not isinstance(raw, dict):
            raise ShmManifestError(f"manifest must be a JSON object, got {raw!r}")
        if raw.get("magic") != MANIFEST_MAGIC:
            raise ShmManifestError(
                f"not a shared-memory tree manifest (magic={raw.get('magic')!r})"
            )
        if raw.get("version") != MANIFEST_VERSION:
            raise ShmManifestError(
                f"manifest version {raw.get('version')!r} is not the supported "
                f"{MANIFEST_VERSION}; publisher and worker builds disagree"
            )
        generation = raw.get("generation")
        if not isinstance(generation, str) or not generation:
            raise ShmManifestError("manifest has no generation id")
        raw_segments = raw.get("segments")
        if not isinstance(raw_segments, dict):
            raise ShmManifestError("manifest has no segments table")
        segments = {
            name: SegmentSpec.from_dict(spec, name)
            for name, spec in raw_segments.items()
        }
        missing = [f for f in _REQUIRED_FIELDS if f not in segments]
        if missing:
            raise ShmManifestError(
                f"manifest is missing required arrays: {', '.join(missing)}"
            )
        unknown = [f for f in segments if f not in ARRAY_FIELDS + _SPLIT_FIELDS]
        if unknown:
            raise ShmManifestError(
                f"manifest names unknown arrays: {', '.join(unknown)}"
            )
        extras = raw.get("extras") or {}
        build = raw.get("build") or {}
        if not isinstance(extras, dict) or not isinstance(build, dict):
            raise ShmManifestError("manifest extras/build must be objects")
        return cls(
            generation=generation,
            segments=segments,
            model_sha256=str(raw.get("model_sha256") or ""),
            build=build,
            extras=extras,
        )

    def save(self, path: Path | str) -> Path:
        """Write the manifest JSON atomically (temp-then-rename)."""
        path = Path(path)
        blob = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        atomic_write_bytes(path, blob.encode("utf-8"))
        return path

    @classmethod
    def load(cls, path: Path | str) -> "TreeManifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ShmAttachError(f"no manifest file at {path}") from None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShmManifestError(
                f"manifest {path} is unreadable: {type(exc).__name__}: {exc}"
            ) from exc
        return cls.from_dict(raw)


def new_generation_id(tag: str = "tkdc") -> str:
    """A unique, shm-name-safe id for one published generation.

    Includes the publishing pid plus random bytes so concurrent fleets
    (or a fleet restarted after a crash that leaked segments) never
    collide on segment names.
    """
    return f"{tag}-{os.getpid()}-{os.urandom(4).hex()}"


class PublishedTree:
    """Owner handle for one published generation (router side).

    Holds the :class:`~multiprocessing.shared_memory.SharedMemory`
    objects alive. ``close()`` unmaps this process's view; ``unlink()``
    destroys the segments system-wide and must be called exactly once
    when the generation is retired (idempotent; missing segments are
    ignored so crash-recovery double-unlinks are safe).
    """

    def __init__(
        self,
        manifest: TreeManifest,
        segments: dict[str, shared_memory.SharedMemory],
    ) -> None:
        self.manifest = manifest
        self._segments = segments
        self._unlinked = False

    def close(self) -> None:
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass

    def unlink(self) -> None:
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self.close()


class AttachedTree:
    """Read-only, KDTree-compatible facade over attached segments.

    Provides exactly the tree surface the serving path touches —
    ``flatten()``, ``absorb()``, ``splits``, ``points``,
    ``point_weights``, ``size``, ``dim``, ``total_weight`` — so an
    attached model serves (and, as a streaming pipeline's model, absorbs
    buffered rows) through the same paths as a locally loaded one.
    Anything needing the pointer-based
    :class:`~repro.index.kdtree.KDTree` (refitting) fails with a normal
    ``AttributeError`` rather than silently wrong answers.
    """

    def __init__(
        self, flat: FlatTree, splits: tuple[np.ndarray, np.ndarray] | None = None
    ) -> None:
        self._flat = flat
        self._splits = splits

    def flatten(self) -> FlatTree:
        return self._flat

    @property
    def splits(self) -> tuple[np.ndarray, np.ndarray]:
        if self._splits is None:
            raise AttributeError("this tree was published without its splits")
        return self._splits

    def absorb(self, rows: np.ndarray, mass: float) -> FlatTree:
        """:meth:`repro.index.kdtree.KDTree.absorb` over the attached arrays."""
        return absorb_rows(self._flat, *self.splits, rows, mass)

    @property
    def points(self) -> np.ndarray:
        return self._flat.points

    @property
    def point_weights(self) -> np.ndarray | None:
        return self._flat.point_weights

    @property
    def size(self) -> int:
        return self._flat.size

    @property
    def dim(self) -> int:
        return self._flat.dim

    @property
    def total_weight(self) -> float:
        return self._flat.total_weight

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttachedTree({self._flat!r})"


class TreeAttachment:
    """Worker-side handle: the attached ``FlatTree`` plus its mappings.

    Keep this object alive as long as any array view derived from it is
    in use; ``close()`` unmaps (never unlinks). A close attempted while
    numpy views are still exported raises ``BufferError`` inside mmap —
    swallowed here, because an unmapped-late segment is a bounded leak
    while an unmapped-early one is a crash.
    """

    def __init__(
        self,
        manifest: TreeManifest,
        flat: FlatTree,
        segments: dict[str, shared_memory.SharedMemory],
        splits: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.manifest = manifest
        self.flat = flat
        self.tree = AttachedTree(flat, splits)
        self._segments = segments
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:
                pass


def publish_flat_tree(
    flat: FlatTree,
    generation: str | None = None,
    model_sha256: str = "",
    build: dict | None = None,
    extras: dict | None = None,
    splits: tuple[np.ndarray, np.ndarray] | None = None,
) -> PublishedTree:
    """Copy a ``FlatTree``'s arrays into fresh shared segments.

    One segment per array, named ``<generation>-<field>``. The single
    copy here is the last one: every attacher reads these pages
    directly. ``splits`` is the tree's ``(split_dim, split_value)``
    (:attr:`repro.index.kdtree.KDTree.splits`), which an attached tree
    needs to absorb rows.
    """
    generation = generation if generation is not None else new_generation_id()
    segments: dict[str, shared_memory.SharedMemory] = {}
    specs: dict[str, SegmentSpec] = {}
    try:
        arrays = {name: getattr(flat, name) for name in ARRAY_FIELDS}
        arrays.update(zip(_SPLIT_FIELDS, splits or (None, None)))
        for name, array in arrays.items():
            if array is None:
                continue
            array = np.ascontiguousarray(array)
            segment_name = f"{generation}-{name}"
            segment = shared_memory.SharedMemory(
                create=True, size=max(array.nbytes, 1), name=segment_name
            )
            segments[name] = segment
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[...] = array
            specs[name] = SegmentSpec(
                segment=segment_name, dtype=array.dtype.str, shape=array.shape
            )
    except BaseException:
        for segment in segments.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        raise
    manifest = TreeManifest(
        generation=generation,
        segments=specs,
        model_sha256=model_sha256,
        build=dict(build or {}),
        extras=dict(extras or {}),
    )
    return PublishedTree(manifest, segments)


def attach_flat_tree(manifest: TreeManifest | Path | str) -> TreeAttachment:
    """Reconstruct a read-only ``FlatTree`` from a published generation.

    Accepts a manifest object or a path to a manifest file. Raises
    :class:`ShmAttachError` when any named segment no longer exists
    (stale manifest / retired generation) or is smaller than its
    declared shape — never a silent short read.
    """
    if not isinstance(manifest, TreeManifest):
        manifest = TreeManifest.load(manifest)
    segments: dict[str, shared_memory.SharedMemory] = {}
    arrays: dict[str, np.ndarray | None] = {}
    try:
        for name, spec in manifest.segments.items():
            try:
                segment = _open_segment(spec.segment)
            except FileNotFoundError:
                raise ShmAttachError(
                    f"segment {spec.segment!r} for array {name!r} does not "
                    f"exist — generation {manifest.generation!r} was retired "
                    "or never published (stale manifest)"
                ) from None
            segments[name] = segment
            if segment.size < spec.nbytes:
                raise ShmAttachError(
                    f"segment {spec.segment!r} holds {segment.size} bytes but "
                    f"array {name!r} needs {spec.nbytes} — manifest and "
                    "segments are from different generations"
                )
            view = np.ndarray(spec.shape, dtype=spec.dtype, buffer=segment.buf)
            view.flags.writeable = False
            arrays[name] = view
    except BaseException:
        for segment in segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover
                pass
        raise
    flat = FlatTree(
        points=arrays["points"],
        lo=arrays["lo"],
        hi=arrays["hi"],
        count=arrays["count"],
        start=arrays["start"],
        end=arrays["end"],
        left=arrays["left"],
        right=arrays["right"],
        node_weight=arrays["node_weight"],
        point_weights=arrays.get("point_weights"),
    )
    splits = None
    if "split_dim" in arrays:
        splits = (arrays["split_dim"], arrays["split_value"])
    return TreeAttachment(manifest, flat, segments, splits)
