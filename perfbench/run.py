"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline-2d --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``). The line before it holds
host facts, check results, sample counts and the machine-independent
counters. The benchmark imports the library from the checkout's
``src/`` and nowhere else; without it, it fails before printing a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
# build_info() runs `git describe`; keep git from searching above the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro imported from {source}, not from this checkout's src/")


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse(argv, [w["name"] for w in spec["workloads"]])
    import_library()

    from perfbench import common, offline, serve

    facts = common.host_facts()
    if args.workload in serve.SHAPES:
        clients = serve.SHAPES[args.workload]["clients"]
        if clients > facts["nproc"]:
            print(f"refusing to run {clients} load threads on {facts['nproc']} cpus",
                  file=sys.stderr)
            return 2
        out = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        out = offline.run(args.seed, args.seconds, bool(args.trace))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    produced = out.per_layer if args.trace else out.end_to_end
    missing = [m["name"] for m in declared if m["name"] not in produced]
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": produced.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": facts,
        "checks": out.checks,
        "failed_share": out.failed / out.attempted,
        # Layers this workload does not run report 0.
        "layers_not_run": missing,
        "detail": out.detail,
    }))
    print(json.dumps({
        "correct": all(out.checks.values()),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
