"""Run the invariant suite across a slice of the group library.

Writes one JSON document per group plus a summary table to stdout.  The
default slice covers every library group of order at most 12, matching the
range where the degree-0 presentation is checked against the Burnside rank.

Usage: python3 scripts/run_suite.py [--max-order N] [--seed S] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from f1gtheory.cli import main as cli_main
from f1gtheory.groups import build_group, library_names


def run(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    names = [n for n in library_names()
             if build_group(name=n).order <= args.max_order]
    failures = []
    for name in names:
        target = args.out / f"{name}.json"
        t0 = time.time()
        with target.open("w", encoding="utf-8") as fh:
            stdout = sys.stdout
            sys.stdout = fh
            try:
                code = cli_main(["suite", "--group", name,
                                 "--seed", str(args.seed),
                                 "--format", "json"])
            finally:
                sys.stdout = stdout
        blob = json.loads(target.read_text(encoding="utf-8"))
        status = blob["status"]
        if code != 0 or status != "pass":
            failures.append(name)
        print(f"{name:<5} order {blob['order']:>2}  {status:<5} "
              f"({time.time() - t0:.2f}s)  -> {target}")
    if failures:
        print(f"failed: {', '.join(failures)}")
        return 1
    print(f"all {len(names)} groups pass")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--out", type=Path, default=Path("suite_reports"))
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
