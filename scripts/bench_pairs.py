"""Alternating paired runs of the benchmark in two checkouts.

Runs `python3 perfbench/run.py --workload W --trace 0` N times in each of
two checkouts (say the parent commit and a change), as pairs: pair i runs
the parent first when i is odd and the change first when i is even, so a
drift of the host's speed does not favour one side.  Every run has
PYTHONDONTWRITEBYTECODE=1, as the benchmark's own runs do, and reads the
JSON line that `run.py` prints last.  For each end-to-end metric of
BENCHMARK.json it prints the median and the quartiles per side, the
difference of the medians, the parent's interquartile range and the number
of pairs the change won (a tie wins for neither side).

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --pairs N [--seconds S] [--seed N] [--smoke]

Exits 1 if a run fails or reports "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _end_to_end() -> List[Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def _run(checkout: str, args: argparse.Namespace) -> Dict:
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", args.workload, "--trace", "0"]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        sys.stderr.write(run.stdout + run.stderr)
        raise SystemExit(f"bench_pairs: the run in {checkout} failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--smoke", action="store_true",
                        help="pass --smoke to run.py: one tiny job per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sides = {"parent": args.parent, "change": args.change}
    results: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            results[side].append(_run(sides[side], args))
        print(f"pair {i} ({order[0]} first): " + "; ".join(
            f"{side} wall_s {results[side][-1]['wall_s']:.4f}"
            for side in ("parent", "change")), flush=True)

    print(f"\nworkload {args.workload}, {args.pairs} pairs: "
          "median [q1, q3] per side")
    print(f"{'metric':12} {'parent':>28} {'change':>28} {'diff':>9} "
          f"{'parent IQR':>10} {'change won':>10}")
    for metric in _end_to_end():
        name = metric["name"]
        lower = metric["better"] == "lower"
        parent = [r[name] for r in results["parent"]]
        change = [r[name] for r in results["change"]]
        (p1, p2, p3), (c1, c2, c3) = _quartiles(parent), _quartiles(change)
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        print(f"{name:12} {f'{p2:.4f} [{p1:.4f}, {p3:.4f}]':>28} "
              f"{f'{c2:.4f} [{c1:.4f}, {c3:.4f}]':>28} {c2 - p2:>+9.4f} "
              f"{p3 - p1:>10.4f} {f'{won}/{args.pairs}':>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
