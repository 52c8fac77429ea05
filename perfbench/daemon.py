"""Run ``repro serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/daemon.py TRACE_PREFIX serve-args...``

Each SIGUSR1 writes the span aggregates collected so far to
``TRACE_PREFIX.<k>`` (k = 0, 1, ...), atomically, so the benchmark can
difference two snapshots around its measured window. The untraced
benchmark runs start the daemon as ``python3 -m repro serve`` instead.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys
import threading
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import spans  # noqa: E402


def main(argv: list[str]) -> int:
    prefix, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    counter = itertools.count()

    def dump() -> None:
        path = f"{prefix}.{next(counter)}"
        with open(path + ".tmp", "w") as handle:
            json.dump(tracer.snapshot(), handle)
        os.replace(path + ".tmp", path)

    # The handler only starts a thread: the main thread may hold the
    # tracer's lock when the signal arrives.
    signal.signal(signal.SIGUSR1, lambda signum, frame: threading.Thread(target=dump).start())

    from repro.cli import main as repro_main

    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
