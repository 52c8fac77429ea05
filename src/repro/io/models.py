"""Saving and loading fitted classifiers.

A fitted :class:`~repro.core.classifier.TKDCClassifier` holds plain
numpy arrays and dataclasses, so Python's pickle serializes it
faithfully. The wrapper adds a format header with the library version so
stale files fail loudly instead of mis-deserializing after refactors,
and a sha256 integrity footer so a truncated or bit-flipped file is
rejected by checksum *before* any byte of it reaches the unpickler —
the failure mode that matters for long-running servers hot-reloading
models from disk (see :mod:`repro.serve.reload`).

File layout::

    <pickle payload> <footer magic (12 bytes)> <sha256(payload) (32 bytes)>

Legacy files without the footer still load (with a warning) because the
footer is pure trailing data — the unpickler stops at the pickle STOP
opcode, so old readers are equally unaffected by the new footer.

Security note: pickle executes code on load — only load model files you
produced yourself (the standard caveat for pickle-based model formats).
The checksum detects *corruption*, not tampering.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from pathlib import Path

import repro
from repro.core.classifier import TKDCClassifier
from repro.index.kdtree import StaleTreeLayout
from repro.io.atomic import atomic_write_bytes
from repro.obs.buildinfo import build_info

#: Format marker stored alongside the model.
_MAGIC = "repro-tkdc-model"

#: Trailing integrity-footer marker; the sha256 digest follows it.
_FOOTER_MAGIC = b"tkdc-sha256:"
_DIGEST_SIZE = hashlib.sha256().digest_size
_FOOTER_SIZE = len(_FOOTER_MAGIC) + _DIGEST_SIZE


class ModelIntegrityError(ValueError):
    """A model file failed verification before or during deserialization.

    Raised for checksum mismatches (bit rot, torn copies, truncation)
    and for byte streams that are not a complete pickle. Subclasses
    ``ValueError`` so callers treating load failures generically keep
    working; the serving layer catches it specifically to refuse a hot
    reload and keep the previous model.
    """


def save_model(path: Path | str, classifier: TKDCClassifier) -> Path:
    """Serialize a fitted classifier to ``path`` (suffix ``.tkdc``)."""
    if not classifier.is_fitted:
        raise ValueError("refusing to save an unfitted classifier")
    path = Path(path)
    if path.suffix != ".tkdc":
        path = path.with_suffix(".tkdc")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "magic": _MAGIC,
        "version": repro.__version__,
        # Full build identity (version + git describe + python) so a
        # served model is attributable to the exact tree that fit it.
        "build": build_info(),
        "classifier": classifier,
    }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    # Temp-then-rename: a save interrupted mid-pickle never corrupts an
    # existing model file at this path.
    atomic_write_bytes(path, blob + _FOOTER_MAGIC + hashlib.sha256(blob).digest())
    return path


def resolve_model_path(path: Path | str) -> Path:
    """Resolve a requested model path to the file that will be read.

    Resolution is explicit and ordered: the exact path wins when it
    exists (even if a ``.tkdc`` sibling also exists); otherwise the
    ``.tkdc``-suffixed candidate (what :func:`save_model` would have
    produced for this request) is tried; otherwise ``FileNotFoundError``
    names both candidates so the caller sees exactly what was probed.
    """
    path = Path(path)
    if path.exists():
        return path
    fallback = path.with_suffix(".tkdc")
    if fallback != path and fallback.exists():
        return fallback
    tried = str(path) if fallback == path else f"{path} (also tried {fallback})"
    raise FileNotFoundError(f"no model file at {tried}")


def _verified_payload(path: Path, data: bytes) -> bytes:
    """Strip and verify the integrity footer; returns the pickle bytes.

    Footer-less files are accepted as legacy format with a warning —
    they predate the checksum and cannot be verified.
    """
    if len(data) > _FOOTER_SIZE and data[-_FOOTER_SIZE:-_DIGEST_SIZE] == _FOOTER_MAGIC:
        blob = data[:-_FOOTER_SIZE]
        expected = data[-_DIGEST_SIZE:]
        actual = hashlib.sha256(blob).digest()
        if actual != expected:
            raise ModelIntegrityError(
                f"{path} failed its sha256 integrity check "
                f"(stored {expected.hex()[:16]}…, computed {actual.hex()[:16]}…); "
                "the file is corrupt (truncated, bit-flipped, or torn) and "
                "will not be unpickled"
            )
        return blob
    warnings.warn(
        f"{path} has no integrity footer (legacy model format); loading "
        "without checksum verification — re-save to add one",
        UserWarning,
        stacklevel=3,
    )
    return data


def load_model(path: Path | str) -> TKDCClassifier:
    """Load a classifier saved by :func:`save_model`.

    The sha256 footer and format magic are verified *before* the pickle
    payload is deserialized, so corruption surfaces as a typed
    :class:`ModelIntegrityError` rather than a raw ``UnpicklingError``
    (or worse, a silently wrong object). Raises ``ValueError`` for
    foreign files and version mismatches, ``FileNotFoundError`` when
    neither the exact path nor its ``.tkdc`` fallback exists, and
    :class:`~repro.index.kdtree.StaleTreeLayout` (a ``ValueError``) for
    a model whose tree was pickled with linked ``Node`` objects.
    """
    path = resolve_model_path(path)
    blob = _verified_payload(path, path.read_bytes())
    try:
        payload = pickle.loads(blob)
    except StaleTreeLayout as exc:
        # An intact file from before trees were built as flat arrays.
        raise StaleTreeLayout(f"{path}: {exc}") from exc
    except Exception as exc:
        # Legacy (footer-less) truncation lands here: the stream is not
        # a complete pickle. Typed, so callers can distinguish "corrupt
        # file" from "wrong kind of file".
        raise ModelIntegrityError(
            f"{path} is not a complete tKDC model pickle "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise ValueError(f"{path} is not a repro tKDC model file")
    if payload.get("version") != repro.__version__:
        raise ValueError(
            f"{path} was saved by repro {payload.get('version')}, "
            f"this is {repro.__version__}; re-fit and re-save"
        )
    classifier = payload["classifier"]
    if not isinstance(classifier, TKDCClassifier):
        raise ValueError(f"{path} does not contain a TKDCClassifier")
    return classifier
