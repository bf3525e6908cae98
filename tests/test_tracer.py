"""The per-layer tracer of the benchmark still reads the library it wraps.

`perfbench/tracer.py` wraps every public function of the layer modules and
reads the row count and first row of each call into the SNF entry points.
Each job here must print the CLI's own stdout under the tracer and exit 0;
the general-monoid `g0` and the `wh0` job must leave an
`snf.cokernel_invariants` span in the trace line on stderr, and both `g0`
jobs a `gtheory.g0_presentation` span, whose hook counts the generators and
relations.  The CLI binds its layers to run on first use and compiles each
command's module after parsing, and the jobs together read every such
binding through the tracer's wrappers.
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
MARKER = "perfbench-trace:"


def _run(prefix, argv):
    return subprocess.run([sys.executable, *prefix, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))


def _traced_stderr(argv):
    """Run argv plainly and under the tracer; both exit 0 with one stdout."""
    plain = _run(["-m", "f1gtheory.cli"], argv)
    traced = _run([os.path.join("perfbench", "tracer.py")], argv)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    return traced.stderr


def _trace(argv):
    """The one trace line of a traced run, with its span names as a set."""
    lines = [line for line in _traced_stderr(argv).splitlines()
             if line.startswith(MARKER)]
    assert len(lines) == 1
    trace = json.loads(lines[0][len(MARKER):])
    return trace, {trace["names"][span[0]] for span in trace["spans"]}


@pytest.mark.parametrize("argv", [
    ["g0", "--monoid-json", "perfbench/monoid3.json", "--bound", "6"],
    ["wh0", "--group", "D12"],
], ids=["g0-monoid3", "wh0-d12"])
def test_tracer_keeps_stdout_and_traces_the_snf(argv):
    _, spans = _trace(argv)
    assert "snf.cokernel_invariants" in spans


@pytest.mark.parametrize("argv", [
    ["g0", "--group", "D6"],
    ["g0", "--monoid-json", "perfbench/monoid3.json", "--bound", "6"],
], ids=["g0-d6", "g0-monoid3"])
def test_tracer_traces_the_presentation(argv):
    trace, spans = _trace(argv)
    assert "gtheory.g0_presentation" in spans
    assert trace["counters"]["gtheory.generators"] > 0
    assert trace["counters"]["gtheory.relations"] > 0


@pytest.mark.parametrize("argv", [
    ["marks", "--group", "S4"],
    ["lambda", "--group", "S4", "--element", "[1,-1,2,0,0,0,0,0,-2,1,0]", "--k", "5"],
    ["mackey-check", "--group", "D12"],
    ["lambda-verify", "--group", "C5", "--l-cap", "3"],
    ["g1", "--group", "D12"],
], ids=["marks-s4", "lambda-s4-virtual", "mackey-check-d12", "lambda-verify-c5",
        "g1-d12"])
def test_tracer_keeps_stdout_of_each_layer(argv):
    _traced_stderr(argv)
