"""Shared pieces of the benchmark: seeds, query boxes, percentiles, host facts."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (holds ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for model files, WAL directories and daemon logs; ignored by git.
WORK_DIR = ROOT / ".perfbench_work"


def derived_seed(seed: int, stream: int) -> int:
    """A second, independent seed drawn from ``seed`` (stable across runs)."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def box_queries(train: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Uniform draws over the training data's bounding box."""
    rng = np.random.default_rng(seed)
    return rng.uniform(train.min(axis=0), train.max(axis=0), size=(n, train.shape[1]))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


def host_facts() -> dict:
    from repro.obs.buildinfo import build_info

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "build": build_info(),
    }


def own_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values) -> float:
    return float(statistics.median(values))


#: Probe time of the bench host (2 vCPUs, numpy 2.4) at its usual speed.
#: Timings are reported as if the host ran at this speed throughout.
PROBE_REFERENCE_S = 0.030
_PROBE_ROUNDS = 150


class HostSpeed:
    """A fixed CPU task timed through a run, to take host speed out of timings.

    The bench host's speed drifts by a third over minutes (other tenants),
    which swamps any difference between two versions of the program. The
    probe does what the batch traversal's inner loop does, numpy calls on
    2048-row arrays, and runs only while the program under test is idle,
    so it measures the host and never the program. A timing taken next to
    probes of median ``p`` is scaled by ``PROBE_REFERENCE_S / p``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random((2048, 16))
        self._rows = rng.integers(0, 2048, 2048)
        self.samples: list[float] = []

    def probe(self, repeats: int = 1) -> float:
        """Median time of ``repeats`` probe runs; every run is kept in ``samples``."""
        x, rows = self._x, self._rows
        times = []
        for __ in range(repeats):
            started = time.perf_counter()
            for r in range(_PROBE_ROUNDS):
                hot = x[:, r % 16] > 0.5
                column = np.argmax(x, axis=1) % 16
                np.where(hot, np.exp(-x[rows, column]), 0.0).sum()
            times.append(time.perf_counter() - started)
        self.samples += times
        return median(times)

    @staticmethod
    def scale(probe_s: float) -> float:
        """Factor that turns a timing next to a ``probe_s`` probe into reference time."""
        return PROBE_REFERENCE_S / probe_s


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)

    def op(self, ok: bool, count: int = 1) -> None:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count

    def check(self, name: str, ok: bool) -> None:
        """Record a correctness check; a failed check is a failed operation."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        self.op(ok)
