"""Objects built through `_derived` pass the validating constructors.

The library trusts the groups, subgroups, monoids, modules and homs it
derives from validated ones and builds them without `__post_init__`.  Here
`_derived` is swapped for the class constructor, which validates every
such object; the CLI must then print the same bytes as the trusting run.
Each run is a fresh process, so no cache carries objects across runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import f1gtheory

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(f1gtheory.__file__)))

VALIDATING_RUN = """
import sys
import f1gtheory.cli
from f1gtheory import groups

trusted = groups._derived
calls = [0]

def validating(cls, *values):
    calls[0] += 1
    return cls(*values)

for name, module in list(sys.modules.items()):
    if name.startswith("f1gtheory") and getattr(module, "_derived", None) is trusted:
        module._derived = validating
try:
    status = f1gtheory.cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write(f"\\nvalidated derived objects: {calls[0]}\\n")
sys.exit(status)
"""


NILPOTENT_JSON = "<nilpotent monoid JSON>"


def _run(argv, validating):
    env = dict(os.environ, PYTHONPATH=SRC)
    prefix = ["-c", VALIDATING_RUN] if validating else ["-m", "f1gtheory.cli"]
    return subprocess.run([sys.executable, *prefix, *argv], cwd=ROOT,
                          capture_output=True, env=env, timeout=600)


@pytest.mark.parametrize("argv", [
    ["suite", "--group", "S3"],
    ["suite", "--group", "Q8"],
    ["suite", "--group", "D4"],
    ["marks", "--generators", "(1 2 3 4);(1 2);(5 6)", "--degree", "6"],
    ["mackey-check", "--group", "D6"],
    ["g0", "--monoid-json", "perfbench/monoid3.json", "--bound", "6"],
    ["g0", "--monoid-json", NILPOTENT_JSON, "--bound", "6"],
], ids=["suite-S3", "suite-Q8", "suite-D4", "marks-S4xC2", "mackey-D6",
        "g0-monoid3", "g0-nilpotent"])
def test_validating_derived_objects_keeps_stdout(argv, tmp_path):
    # the nilpotent monoid has non-split inclusions, so the search backtracks
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps({"size": 3, "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 0]]}))
    argv = [str(path) if a == NILPOTENT_JSON else a for a in argv]
    trusting = _run(argv, validating=False)
    checked = _run(argv, validating=True)
    assert trusting.returncode == 0, trusting.stderr
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout == trusting.stdout
    count = int(checked.stderr.decode().rsplit("validated derived objects: ", 1)[1])
    assert count > 0
