"""End-to-end benchmark of the f1g CLI.

    python3 perfbench/run.py --workload structure --seed 1729 --seconds 35 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its `src/`.  Load is a closed loop with one
client: every job is a fresh `python -m f1gtheory.cli ...` process, as a user
runs the CLI, so each starts with cold module-level caches, and the next job
starts only when the previous one has ended.

--trace 0 repeats passes over the workload's job list for about --seconds
(at least one pass).  The host is shared, and how fast it runs Python
drifts by 1.6x and more within minutes, far more than a program change
worth catching.  So the fixed work of reference.py runs before the first
pass and after every job, and the time metrics are reference-speed seconds:
a measured time multiplied by REFERENCE_S / (the mean time of the run's
reference runs).  A change to the program moves them; the host's drift
mostly does not.  It reports:

  wall_s       one pass over the job list: the sum over jobs of each job's
               mean wall time over the passes, scaled
  max_job_s    the slowest job: the largest of those scaled means
  cpu_s        user+sys CPU seconds of the job processes (wait4 rusage),
               summed the same way, scaled by the reference's CPU time
  peak_rss_mb  highest ru_maxrss of any job process of a pass, median over
               passes (not scaled)
  setup_s      median wall time of the trivial job `marks --group C1`, run
               four times before every pass, scaled by the median reference
               time: interpreter start, import and argparse, the fixed cost
               of every CLI call

The raw, unscaled times are printed above the result line.

--trace 1 runs one untraced pass and one traced pass (tracer.py), checks
that each traced job printed the same stdout as its untraced run, and
reports the per-layer numbers of the traced pass, summed over its jobs
(snf.rows/snf.cols: the largest matrix), plus trace.overhead_s.

Every job's exit status and stdout are checked (workloads.py).  A job that
exits with another status, times out, hits the address-space limit or
prints wrong output counts as failed.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --smoke runs one tiny
job per workload instead of the real list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import selectors
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import reference
import tracer
import workloads
from workloads import SETUP_JOB, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES_PER_PASS = 4
JOB_TIMEOUT_S = 60.0
# Every run ends well inside 180 s: no pass starts that would end after
# PASS_DEADLINE_S, and no job may run past HARD_DEADLINE_S.
PASS_DEADLINE_S = 140.0
HARD_DEADLINE_S = 165.0
ADDRESS_SPACE_LIMIT = 2 << 30
# Time metrics are seconds on a machine on which reference.py takes this long
# (about its time on the 2-vCPU Xeon VM the benchmark was tuned on).
REFERENCE_S = 0.25
REFERENCE_JOB = Job("reference-work", ("perfbench/reference.py",), "checksum")

END_TO_END_UNITS = {"wall_s": "s", "max_job_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class JobRun:
    job: Job
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: Optional[str] = None


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


class Runner:
    """Starts job processes one at a time and checks what they print."""

    def __init__(self, checker: workloads.Checker, started: float) -> None:
        self.checker = checker
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.runs: List[JobRun] = []

    def command(self, job: Job, traced: bool = False) -> List[str]:
        entry = [str(HERE / "tracer.py")] if traced else ["-m", "f1gtheory.cli"]
        return [sys.executable, *entry, *job.args]

    def run(self, job: Job, traced: bool = False) -> JobRun:
        run = self._spawn(job, self.command(job, traced), self._timeout())
        if run.problem is None:
            run.problem = self.checker.problem(job, run.returncode, run.stdout)
        self.runs.append(run)
        return run

    def reference(self) -> JobRun:
        """One run of reference.py's fixed work; checked like a job."""
        run = self._spawn(REFERENCE_JOB,
                          [sys.executable, str(HERE / "reference.py")],
                          self._timeout())
        if run.problem is None and (
                run.returncode != 0
                or run.stdout.strip() != str(reference.EXPECTED).encode()):
            run.problem = "reference work failed or printed a wrong checksum"
        self.runs.append(run)
        return run

    def _timeout(self) -> float:
        return max(0.0, min(JOB_TIMEOUT_S,
                            self.started + HARD_DEADLINE_S - time.perf_counter()))

    def _spawn(self, job: Job, argv: List[str], timeout: float) -> JobRun:
        out, err = bytearray(), bytearray()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, preexec_fn=_limit_child)
        try:
            timed_out = _drain(proc, out, err, start + timeout)
        except BaseException:
            proc.kill()
            raise
        finally:
            # wait4 reaps the child and gives its own rusage; the Popen
            # object is told the status so that it never waits again.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        run = JobRun(job, proc.returncode, bytes(out), bytes(err), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if timed_out:
            run.problem = f"timed out after {timeout:.0f} s"
        elif b"MemoryError" in run.stderr:
            run.problem = "hit the address-space limit"
        return run


def _drain(proc: subprocess.Popen, out: bytearray, err: bytearray,
           deadline: float) -> bool:
    """Read both pipes to EOF; kill the process and return True at the deadline."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                return True
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    key.data.extend(chunk)
                else:
                    sel.unregister(key.fileobj)
    return False


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():  # never let git search parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "f1gtheory").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _print_environment(args, jobs: List[Job]) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} smoke={args.smoke}")
    print(f"python {platform.python_version()} ({sys.executable}); "
          f"nproc {len(os.sched_getaffinity(0))}; "
          f"commit {_git_commit() or 'unknown (not a git checkout)'}; "
          f"src sha256 {_source_digest()}")
    print("jobs (run from the repo root):")
    for job in [SETUP_JOB] + jobs:
        print(f"  {job.name}: PYTHONPATH=src python3 -m f1gtheory.cli "
              f"{shlex.join(job.args)}")
    print(f"  {REFERENCE_JOB.name} (before the first pass and after every job): "
          f"python3 {REFERENCE_JOB.args[0]}")
    sys.stdout.flush()


def _failure_lines(runs: List[JobRun]) -> None:
    for run in runs:
        if run.problem is not None:
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {run.job.name}: {run.problem} {tail}")


def timed_run(runner: Runner, jobs: List[Job], seconds: float) -> Dict:
    runner.run(SETUP_JOB)  # warm the file cache and bytecode; not timed
    setup: List[JobRun] = []
    passes: List[List[JobRun]] = []
    references = [runner.reference()]
    begin = time.perf_counter()
    last_round = 0.0
    while True:
        # Start another round (setup samples, then one pass) if the run then
        # ends nearer to --seconds than it would without it, so a run lasts
        # about --seconds in whole rounds however fast the machine is at
        # the moment.
        now = time.perf_counter()
        if passes and (now + last_round / 2 > begin + seconds
                       or now + last_round > runner.started + PASS_DEADLINE_S):
            break
        setup += [runner.run(SETUP_JOB) for _ in range(SETUP_SAMPLES_PER_PASS)]
        references.append(runner.reference())
        runs = []
        for job in jobs:
            runs.append(runner.run(job))
            references.append(runner.reference())
        last_round = time.perf_counter() - now
        if passes:
            for run, first in zip(runs, passes[0]):
                if run.problem is None and run.stdout != first.stdout:
                    run.problem = "stdout differs from the first pass"
        passes.append(runs)
    # A run holds only a few passes of each job, and the mean of so few is
    # steadier than their median; setup_s has many samples and is a median.
    ref_wall = statistics.fmean(r.wall_s for r in references)
    ref_cpu = statistics.fmean(r.cpu_s for r in references)
    job_wall = [statistics.fmean(p[i].wall_s for p in passes) * REFERENCE_S / ref_wall
                for i in range(len(jobs))]
    job_cpu = [statistics.fmean(p[i].cpu_s for p in passes) * REFERENCE_S / ref_cpu
               for i in range(len(jobs))]
    metrics = {
        "wall_s": sum(job_wall),
        "max_job_s": max(job_wall),
        "cpu_s": sum(job_cpu),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in p)
                                         for p in passes),
        "setup_s": statistics.median(r.wall_s for r in setup) * REFERENCE_S
                   / statistics.median(r.wall_s for r in references),
    }
    print(f"{len(passes)} passes, {len(setup)} setup samples (raw median "
          f"{statistics.median(r.wall_s for r in setup):.4f} s), "
          f"{len(references)} reference runs (wall s: mean {ref_wall:.4f}, "
          f"min {min(r.wall_s for r in references):.4f}, "
          f"max {max(r.wall_s for r in references):.4f})")
    print("raw wall s per pass: " + "; ".join(
        f"{job.name} " + " ".join(f"{p[i].wall_s:.4f}" for p in passes)
        for i, job in enumerate(jobs)))
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def traced_run(runner: Runner, jobs: List[Job]) -> Dict:
    runner.run(SETUP_JOB)
    plain = [runner.run(job) for job in jobs]
    traced = [runner.run(job, traced=True) for job in jobs]
    totals: Dict[str, float] = {}
    overhead = 0.0
    print("traced jobs: wall_s = layer self times + untraced remainder "
          "(interpreter start, tracer set-up)")
    for untraced, run in zip(plain, traced):
        overhead += run.wall_s - untraced.wall_s
        summary = _trace_summary(run)
        if run.problem is None and run.stdout != untraced.stdout:
            run.problem = "traced stdout differs from untraced stdout"
        if summary is None:
            continue
        # snf.rows/snf.cols describe the largest matrix; the rest add up.
        largest = (summary["snf.rows"] * summary["snf.cols"]
                   > totals.get("snf.rows", 0) * totals.get("snf.cols", 0))
        for key, value in summary.items():
            if key in ("snf.rows", "snf.cols"):
                if largest:
                    totals[key] = value
            else:
                totals[key] = totals.get(key, 0) + value
    totals["trace.overhead_s"] = overhead
    return {name: {"value": totals.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def _trace_summary(run: JobRun) -> Optional[Dict[str, float]]:
    """Per-layer numbers of one traced job; marks the job failed if absent."""
    lines = [line for line in run.stderr.decode(errors="replace").splitlines()
             if line.startswith(tracer.MARKER)]
    if not lines:
        run.problem = run.problem or "tracer wrote no spans"
        return None
    trace = json.loads(lines[-1][len(tracer.MARKER):])
    try:
        summary = tracer.summarize(trace)
    except ValueError as exc:
        run.problem = str(exc)
        return None
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    remainder = run.wall_s - self_total
    # Self times partition the in-process traced interval, which lies
    # inside the wall time the parent measured.
    if not self_total <= trace["in_process_s"] <= run.wall_s:
        run.problem = run.problem or "layer self times do not add up"
    top = sorted(((v, k[:-len(".self_s")]) for k, v in summary.items()
                  if k.endswith(".self_s")), reverse=True)[:4]
    print(f"  {run.job.name}: wall {run.wall_s:.3f} = self {self_total:.3f} "
          f"+ remainder {remainder:.3f}; "
          + ", ".join(f"{layer} {v:.3f} ({v / run.wall_s:.0%})" for v, layer in top))
    return summary


# The per-layer metric names are the keys tracer.summarize produces.
PER_LAYER_UNITS = {
    name: "s" if name.endswith("_s") else "count"
    for name in [*tracer.summarize({"names": [], "spans": [], "counters": {}}),
                 "trace.overhead_s"]
}


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny job per workload, for testing the harness")
    args = parser.parse_args(argv)
    if not (SRC / "f1gtheory" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'f1gtheory'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    jobs = workloads.jobs_for(args.workload, args.seed, smoke=args.smoke)
    _print_environment(args, jobs)
    runner = Runner(workloads.Checker(args.seed, jobs), started)
    if args.trace:
        metrics = traced_run(runner, jobs)
    else:
        metrics = timed_run(runner, jobs, args.seconds)
    failed = sum(run.problem is not None for run in runner.runs)
    attempted = len(runner.runs)
    _failure_lines(runner.runs)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          "processes, reference runs included)")
    for name, metric in metrics.items():
        print(f"  {name:24} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
