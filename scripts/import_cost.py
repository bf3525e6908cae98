"""The fixed cost of one `f1g` process: interpreter start, imports, the command.

Runs one CLI command N times as fresh processes, from a copy of the package
without bytecode caches and with PYTHONDONTWRITEBYTECODE=1, so every run
compiles the package's source as a run in a fresh checkout does.  Prints
the median wall time of `python -c pass`, of `python -c "import
f1gtheory.cli"` and of `python -m f1gtheory.cli <command>`; then every
`f1gtheory` module whose source the command runs, with its source lines and
its median self time, and the totals; then every other module that the
package or the command imports itself and that `python -c pass` does not
load, with its median cumulative time (its own import and every import it
starts), and their total.

A layer bound with `f1gtheory._layer` runs on first attribute access, not
in an import, so `-X importtime` does not see it.  The package's self times
are therefore read from a timer around every module's source run instead:
the run's time less the time of the imports and module runs it starts.
The other modules' times are `-X importtime`'s.

Usage: python3 scripts/import_cost.py [--runs N] [command ...]
       (the command defaults to `marks --group C1`)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "f1gtheory")
DEFAULT_COMMAND = ["marks", "--group", "C1"]
# Runs the command like `-m f1gtheory.cli`, but imports cli as a module, so
# it is timed too.  Every import statement and every source module run is a
# span; a package module's self time is its run less its child spans.  The
# self times go to stderr after MARKER as JSON.
MARKER = "import-cost-self-s:"
RUN_MAIN = f"""
import builtins, sys, time
from _frozen_importlib_external import SourceFileLoader

selfs, child = {{}}, [0.0]

def spanned(fn, name_of):
    def run(*args, **kwargs):
        child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            inner = child.pop()
            child[-1] += took
            name = name_of(*args)
            if name == "f1gtheory" or name.startswith("f1gtheory."):
                selfs[name] = selfs.get(name, 0.0) + took - inner
    return run

builtins.__import__ = spanned(builtins.__import__, lambda *args: "")
SourceFileLoader.exec_module = spanned(SourceFileLoader.exec_module,
                                       lambda loader, module: module.__name__)
import f1gtheory.cli
status = f1gtheory.cli.main(sys.argv[1:])
import json
print({MARKER!r} + json.dumps(selfs), file=sys.stderr)
sys.exit(status)
"""


def _wall(argv: List[str], env: Dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _import_times(argv: List[str], env: Dict[str, str]
                  ) -> Tuple[List[Tuple[str, int, int, str]], Dict[str, float]]:
    """(name, self us, cumulative us, importer) per import that -X importtime
    reports, the importer being "" for an import at the top level; and the
    self seconds that RUN_MAIN reports, empty for another program."""
    run = subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    rows = []
    selfs: Dict[str, float] = {}
    for line in run.stderr.splitlines():
        if line.startswith(MARKER):
            selfs = json.loads(line[len(MARKER):])
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, field = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        name = field.strip()
        rows.append((name, int(self_us), int(cumulative_us),
                     (len(field) - len(field.lstrip()) - 1) // 2))
    # an import is reported after the imports it starts, one level deeper
    out = []
    pending: List[Tuple[int, str]] = []
    for name, self_us, cumulative_us, level in reversed(rows):
        while pending and pending[-1][0] >= level:
            pending.pop()
        out.append((name, self_us, cumulative_us, pending[-1][1] if pending else ""))
        pending.append((level, name))
    return out, selfs


def _in_package(name: str) -> bool:
    return name == "f1gtheory" or name.startswith("f1gtheory.")


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
        selfs: Dict[str, List[float]] = {}
        others: Dict[str, List[int]] = {}
        for _ in range(runs):
            walls["pass"].append(_wall([py, "-c", "pass"], env))
            walls["import"].append(_wall([py, "-c", "import f1gtheory.cli"], env))
            walls["command"].append(_wall([py, "-m", "f1gtheory.cli", *command], env))
            startup = {row[0] for row in _import_times([py, "-X", "importtime", "-c",
                                                        "pass"], env)[0]}
            rows, run_selfs = _import_times(
                [py, "-X", "importtime", "-c", RUN_MAIN, *command], env)
            for name, self_s in run_selfs.items():
                selfs.setdefault(name, []).append(self_s)
            for name, self_us, cumulative_us, importer in rows:
                if (not _in_package(name) and name not in startup
                        and (not importer or _in_package(importer))):
                    others.setdefault(name, []).append(cumulative_us)
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
        ms = 1000 * statistics.median(selfs[name])
        total_ms += ms
        print(f"  {name:<28} {lines[name]:>6} {ms:9.2f}")
    print(f"  {'total':<28} {sum(lines.values()):>6} {total_ms:9.2f}")
    print()
    print(f"  {'other module':<28} {'cumulative ms':>16}")
    total_ms = 0.0
    for name in sorted(others):
        ms = statistics.median(others[name]) / 1000
        total_ms += ms
        print(f"  {name:<28} {ms:16.2f}")
    print(f"  {'total':<28} {total_ms:16.2f}")
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
