#!/usr/bin/env python3
"""EnviroTrack end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload border-strip --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs one untraced and one traced unit and reports the per-layer metrics.
The full metric report goes to standard output first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed.  Trace dumps and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _use_checkout_library() -> None:
    """Import the simulator from this checkout's ``src/`` only."""
    package = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"error: {package} not found; run the benchmark from a "
                 f"full checkout of the repository")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)


def _print_report(report: dict) -> None:
    print(f"# workload {report['workload']} seed {report['seed']}")
    for name, entry in report.get("metrics", {}).items():
        value = entry["value"]
        shown = "n/a (fewer than 10 samples beyond it)" if value is None \
            else f"{value:.6g}"
        print(f"{name:>22} {shown} {entry['unit']} "
              f"({entry['better']} is better, {entry['kind']}, "
              f"n={entry['samples']})")
    print("# report " + json.dumps(report, sort_keys=True, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the self-tests")
    args = parser.parse_args(argv)
    _use_checkout_library()
    from etbench.calibrate import Calibrator
    from etbench.harness import make_workload, measure, measure_traced

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = make_workload(args.workload, args.seed, size=args.size,
                             out_dir=OUT_DIR)
    with Calibrator() as calibrator:
        if args.trace:
            report, result = measure_traced(workload, calibrator,
                                            out_dir=OUT_DIR)
        else:
            report, result = measure(workload, args.seconds, calibrator)
    _print_report(report)
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
