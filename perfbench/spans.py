"""Nested wall-clock spans around the library's public functions.

The benchmark does not edit the program to trace it. Instead
:func:`install` replaces each function in :data:`LAYERS` at the name its
callers look up (a module attribute or a class attribute) with a wrapper
that records a span, and :func:`uninstall` puts the originals back.

Spans nest by call stack, one stack per thread. A span's *self* time is
its duration minus the time its child spans cover. Aggregates are keyed
by ``(root, name)``: ``root`` is the outermost span on the stack, so the
same layer (say ``core.grid.lookup``) is kept apart when the fit's
scoring pass calls it and when a classify pass does.

Some work runs on a thread other than the one that waits for it (the
daemon classifies on a watchdog thread while the handler thread blocks).
Such a span names a *logical parent*: it is filed under the parent's
root, and its duration is taken out of the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

#: (module, attribute path, span name, logical parent or None).
#: ``attribute path`` is ``"func"`` for a module-level name the callers
#: look up at call time, or ``"Class.method"`` for a method.
LAYERS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.core.classifier", "kernel_for_data", "kernels.bandwidth", None),
    ("repro.index.kdtree", "KDTree.__init__", "index.kdtree_build", None),
    ("repro.index.flat", "flatten_kdtree", "index.flatten", None),
    ("repro.core.classifier", "bootstrap_threshold_bounds",
     "core.threshold.bootstrap", None),
    ("repro.core.threshold", "bound_densities",
     "core.batch_bounds.bootstrap", None),
    ("repro.core.classifier", "bound_densities", "core.batch_bounds", None),
    ("repro.core.grid", "GridCache.__init__", "core.grid.build", None),
    ("repro.core.grid", "GridCache.density_lower_bounds",
     "core.grid.lookup", None),
    ("repro.core.classifier", "TKDCClassifier.fit", "core.classifier.fit", None),
    ("repro.core.classifier", "TKDCClassifier.classify",
     "core.classifier.classify", None),
    ("repro.core.classifier", "TKDCClassifier.classify_detailed",
     "core.classifier.detailed", None),
    ("repro.core.incremental", "IncrementalTKDC.classify_detailed",
     "core.classifier.detailed", None),
    ("repro.io.models", "save_model", "io.models.save", None),
    ("repro.serve.reload", "ModelManager.__init__", "serve.reload.load", None),
    ("repro.serve.reload", "ModelManager.classify", "serve.reload.manager",
     "serve.daemon.handle"),
    ("repro.serve.daemon", "TKDCServer.handle_classify",
     "serve.daemon.handle", None),
    ("repro.serve.daemon", "TKDCServer.handle_ingest",
     "serve.daemon.ingest", None),
    ("repro.serve.daemon", "AdmissionController.acquire_slot",
     "serve.daemon.admission_wait", None),
    ("repro.streaming.pipeline", "StreamingPipeline.serving_view",
     "streaming.pipeline.serving_view", "serve.daemon.handle"),
    ("repro.streaming.pipeline", "StreamingPipeline.ingest_batch",
     "streaming.pipeline.ingest", None),
    ("repro.streaming.wal", "WriteAheadLog.append_ingest",
     "streaming.wal.append", None),
)


class Tracer:
    """In-memory span aggregates: ``(root, name) -> [count, total_s, self_s]``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._enabled = True
        self._totals: dict[tuple[str, str], list[float]] = {}
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self) -> None:
        # A forked worker (the streaming refit) reports nothing back, and
        # the lock may have been held by a thread that does not exist in
        # the child.
        self._lock = threading.Lock()
        self._enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, key: tuple[str, str], total: float, self_s: float, calls: int = 1
    ) -> None:
        with self._lock:
            row = self._totals.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s

    def wrap(self, name: str, fn, logical_parent: str | None = None):
        """``fn`` with a span named ``name`` around every call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                root = stack[0][0]
            else:
                root = logical_parent or name
            frame = [root, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._record((root, name), elapsed, elapsed - frame[1])
                if not stack and logical_parent is not None:
                    # Runs while the parent's thread waits: not its self time.
                    self._record((root, logical_parent), 0.0, -elapsed, calls=0)

        return traced

    def snapshot(self) -> dict[str, list[float]]:
        """JSON-ready copy, keys joined as ``"root|name"``."""
        with self._lock:
            return {f"{root}|{name}": list(row) for (root, name), row in self._totals.items()}

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> list:
    """Wrap every function in :data:`LAYERS`; returns what :func:`uninstall` needs."""
    undo = []
    for module_name, path, name, parent in LAYERS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(name, original, parent))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def diff(after: dict[str, list[float]], before: dict[str, list[float]]) -> dict:
    """Aggregates accumulated between two :meth:`Tracer.snapshot` calls."""
    out = {}
    for key, row in after.items():
        base = before.get(key, [0, 0.0, 0.0])
        out[key] = [row[i] - base[i] for i in range(3)]
    return out


def self_time(spans: dict, root: str, name: str) -> float:
    return spans.get(f"{root}|{name}", [0, 0.0, 0.0])[2]


def total_time(spans: dict, root: str, name: str) -> float:
    return spans.get(f"{root}|{name}", [0, 0.0, 0.0])[1]


def count(spans: dict, root: str, name: str) -> float:
    return spans.get(f"{root}|{name}", [0, 0.0, 0.0])[0]


def root_self_sum(spans: dict, root: str) -> float:
    """Sum of every self time filed under ``root`` (equals the root's span)."""
    return sum(row[2] for key, row in spans.items() if key.split("|")[0] == root)
