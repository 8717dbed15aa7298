#!/usr/bin/env python3
"""Run one workload N times and report how steady each metric is.

Each run is a separate ``perfbench/run.py`` process with its own seed
(``--seed-base``, ``--seed-base + 1``, ...).  For every metric on the
runs' last output line the tool prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the relative spread
``(q3 - q1) / median``.  A metric's bound in ``BENCHMARK.json`` must
exceed its spread, by a factor of three for a comfortable margin.

Example, from the repository root::

    python3 perfbench/steadiness.py --workload border-strip --runs 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its last-line JSON result."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread_table(results: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per metric: median, quartiles and relative spread across runs."""
    table = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median if median else 0.0,
                       "unit": results[0]["metrics"][name]["unit"]}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the table as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    results = []
    for seed in range(args.seed_base, args.seed_base + args.runs):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: a correctness check failed",
                  file=sys.stderr)
            return 1
        results.append(result)
        print(f"# seed {seed}: " + json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()}),
            file=sys.stderr, flush=True)
    table = spread_table(results)
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0
    print(f"{args.workload}: {args.runs} runs, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}")
    print(f"{'metric':>28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8}")
    for name, row in table.items():
        print(f"{name:>28} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.2%}  {row['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
