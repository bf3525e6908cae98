"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

The smoke runs use one tiny job per workload (`--smoke`), so the whole file
takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        # The summary table names every metric with its unit as well.
        assert any(line.split()[:1] == [name] and line.split()[-1] == metric["unit"]
                   for line in proc.stdout.splitlines()), name


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "structure", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    trace = {
        "names": ["cli.main", "groups.closure_of", "snf.xgcd",
                  "groups.FiniteGroup", "groups.FiniteGroup.validate"],
        # [name id, start, end, parent]
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1],
                  [3, 5.0, 9.0, 0], [4, 6.0, 8.0, 3]],
        "counters": {"snf.rows": 3, "snf.cols": 2},
    }
    out = tracer.summarize(trace)
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["groups.self_s"] == pytest.approx(6.0)
    assert out["snf.self_s"] == pytest.approx(1.0)
    assert out["groups.calls"] == 2 and out["snf.calls"] == 1
    assert out["groups.built"] == 1
    assert out["groups.validate_s"] == pytest.approx(2.0)
    assert out["snf.rows"] == 3 and out["snf.cols"] == 2


def test_summarize_rejects_spans_that_do_not_nest():
    trace = {"names": ["cli.main", "groups.closure_of"],
             "spans": [[0, 0.0, 2.0, -1], [1, 1.0, 3.0, 0]], "counters": {}}
    with pytest.raises(ValueError):
        tracer.summarize(trace)


def test_checker_rejects_wrong_output():
    seed = workloads.DEFAULT_SEED + 1
    jobs = workloads.jobs_for("lambda", seed, smoke=True)
    checker = workloads.Checker(seed, jobs)
    job = jobs[0]
    good = json.dumps(checker.expected[job.name], separators=(",", ":")) + "\n"
    assert checker.problem(job, 0, good.encode()) is None
    bad = list(checker.expected[job.name])
    bad[0] += 1
    assert checker.problem(job, 0, json.dumps(bad).encode()) is not None
    assert checker.problem(job, 1, good.encode()) is not None
    marks = workloads.jobs_for("structure", seed, smoke=True)[0]
    assert checker.problem(marks, 0, b"table of marks\n") is not None


def test_reference_work_prints_its_checksum():
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(reference.EXPECTED)
