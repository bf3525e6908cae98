"""Smoke tests of the scripts under `scripts/`, each run as a process."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import f1gtheory
from f1gtheory.groups import build_group, library_names

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(f1gtheory.__file__)))


@pytest.mark.parametrize("argv,rows", [
    # (bound, generators, free rank, torsion) per row
    (["--monoid-json", "perfbench/monoid3.json", "--max-bound", "3"],
     [("1", "1", "0", "-"), ("2", "3", "2", "-"), ("3", "7", "2", "-")]),
    (["--group", "S3", "--max-bound", "4"],
     [("1", "1", "0", "-"), ("2", "2", "1", "-"), ("3", "4", "2", "-"),
      ("4", "7", "3", "-")]),
], ids=["monoid3", "S3"])
def test_g0_convergence_rows(argv, rows):
    run = subprocess.run(
        [sys.executable, os.path.join("scripts", "g0_convergence.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[1].split()[:2] == ["bound", "generators"]
    got = [tuple(line.split()[i] for i in (0, 1, 3, 4)) for line in lines[2:]]
    assert got == rows


def test_lambda_report_smoke():
    run = subprocess.run(
        [sys.executable, os.path.join("scripts", "lambda_report.py"),
         "--max-order", "4", "--trials", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split()[:2] == ["group", "order"]
    names = [n for n in library_names() if build_group(name=n).order <= 4]
    assert [line.split()[0] for line in lines[1:-1]] == names
    assert lines[-1].startswith("guaranteed families all hold")


def test_run_suite_smoke(tmp_path):
    run = subprocess.run(
        [sys.executable, os.path.join("scripts", "run_suite.py"),
         "--max-order", "3", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == 5
    assert all(json.loads(path.read_text())["status"] == "pass" for path in reports)
    assert run.stdout.splitlines()[-1] == "all 5 groups pass"


def test_import_cost_lists_the_loaded_modules():
    run = subprocess.run(
        [sys.executable, os.path.join("scripts", "import_cost.py"), "--runs", "1",
         "marks", "--group", "C1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    walls, package, others = run.stdout.split("\n\n")
    lines = walls.splitlines()
    assert lines[0] == "command: marks --group C1  (median of 1 per row)"
    assert [line.split()[-1] for line in lines[1:4]] == ["ms"] * 3
    # the package's modules: name, source lines, self ms
    lines = package.splitlines()
    assert lines[0].split() == ["module", "lines", "self", "ms"]
    modules = {line.split()[0]: int(line.split()[1]) for line in lines[1:-1]}
    assert {"f1gtheory", "f1gtheory.cli", "f1gtheory.groups"} <= set(modules)
    assert "f1gtheory.constructions" not in modules
    assert lines[-1].split()[:2] == ["total", str(sum(modules.values()))]
    # the other modules the package loads beyond `python -c pass`: name,
    # cumulative ms
    lines = others.splitlines()
    assert lines[0].split() == ["other", "module", "cumulative", "ms"]
    cumulative = {line.split()[0]: float(line.split()[1]) for line in lines[1:-1]}
    assert "argparse" in cumulative
    assert not {"dataclasses", "inspect"} & set(cumulative)
    assert not [name for name in cumulative if name.startswith("f1gtheory")]
    assert lines[-1].split()[0] == "total"
    assert float(lines[-1].split()[1]) == pytest.approx(sum(cumulative.values()),
                                                        abs=0.01 * len(cumulative))


def test_bench_pairs_smoke(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for side in ("parent", "change"):
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(ROOT, part), tmp_path / side / part,
                            ignore=ignore)
    run = subprocess.run(
        [sys.executable, os.path.join("scripts", "bench_pairs.py"),
         str(tmp_path / "parent"), str(tmp_path / "change"),
         "--workload", "structure", "--pairs", "1", "--seconds", "0.1",
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("pair 1 (parent first): parent wall_s ")
    assert lines[2] == "workload structure, 1 pairs: median [q1, q3] per side"
    names = [line.split()[0] for line in lines[4:]]
    assert names == ["wall_s", "max_job_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert all(line.split()[-1] in ("0/1", "1/1") for line in lines[4:])
