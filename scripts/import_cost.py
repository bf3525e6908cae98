"""The fixed cost of one `f1g` process: interpreter start, imports, the command.

Runs one CLI command N times as fresh processes, from a copy of the package
without bytecode caches and with PYTHONDONTWRITEBYTECODE=1, so every run
compiles the package's source as a run in a fresh checkout does.  Prints
the median wall time of `python -c pass`, of `python -c "import
f1gtheory.cli"` and of `python -m f1gtheory.cli <command>`; then every
`f1gtheory` module the command loads, with its source lines and its median
self time under `-X importtime`, and the totals.

Usage: python3 scripts/import_cost.py [--runs N] [command ...]
       (the command defaults to `marks --group C1`)
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "f1gtheory")
DEFAULT_COMMAND = ["marks", "--group", "C1"]
# runs the command like `-m f1gtheory.cli`, but imports cli as a module, so
# -X importtime reports it too
RUN_MAIN = "import sys, f1gtheory.cli; sys.exit(f1gtheory.cli.main(sys.argv[1:]))"


def _wall(argv: List[str], env: Dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _import_self_times(argv: List[str], env: Dict[str, str]) -> Dict[str, int]:
    """Self time in microseconds of each f1gtheory module, from -X importtime."""
    run = subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    times = {}
    for line in run.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "f1gtheory" or name.startswith("f1gtheory."):
            times[name] = int(self_us)
    return times


def _source_lines(copy: str, module: str) -> int:
    parts = module.split(".")[1:] or ["__init__"]
    with open(os.path.join(copy, "f1gtheory", *parts) + ".py", encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def run(runs: int, command: List[str]) -> int:
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(PACKAGE, os.path.join(copy, "f1gtheory"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
        py = sys.executable
        walls: Dict[str, List[float]] = {"pass": [], "import": [], "command": []}
        selfs: Dict[str, List[int]] = {}
        for _ in range(runs):
            walls["pass"].append(_wall([py, "-c", "pass"], env))
            walls["import"].append(_wall([py, "-c", "import f1gtheory.cli"], env))
            walls["command"].append(_wall([py, "-m", "f1gtheory.cli", *command], env))
            times = _import_self_times([py, "-X", "importtime", "-c", RUN_MAIN,
                                        *command], env)
            for name, us in times.items():
                selfs.setdefault(name, []).append(us)
        lines = {name: _source_lines(copy, name) for name in selfs}

    print(f"command: {' '.join(command)}  (median of {runs} per row)")
    for label, key in (("python -c pass", "pass"),
                       ("import f1gtheory.cli", "import"),
                       (f"f1g {' '.join(command)}", "command")):
        print(f"  {label:<40} {1000 * statistics.median(walls[key]):8.1f} ms")
    print()
    print(f"  {'module':<28} {'lines':>6} {'self ms':>9}")
    total_ms = 0.0
    for name in sorted(selfs):
        ms = statistics.median(selfs[name]) / 1000
        total_ms += ms
        print(f"  {name:<28} {lines[name]:>6} {ms:9.2f}")
    print(f"  {'total':<28} {sum(lines.values()):>6} {total_ms:9.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20,
                        help="processes of each kind (default 20)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the f1g command (default: marks --group C1)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    return run(args.runs, args.command or DEFAULT_COMMAND)


if __name__ == "__main__":
    sys.exit(main())
