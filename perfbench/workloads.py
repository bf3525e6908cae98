"""Job lists of the three benchmark workloads and the checks on their output.

A job is one `python -m f1gtheory.cli ...` command.  Groups, lambda degrees
and size bounds are fixed, because they set the size of the work; the
workload seed only picks the `--seed` of the randomized jobs and the
coefficients of the virtual lambda element.

Output checks, in order of strength:

- deterministic jobs, and every job at DEFAULT_SEED: the SHA-256 of stdout
  equals the reference recorded in references.json;
- the seeded virtual lambda job: the printed vector equals the addition
  identity lambda^k(p) = sum_i lambda^i(x) * lambda^(k-i)(n), computed through
  library calls with n the regular-class part of p and x = p - n;
- the other seeded jobs: an `overall: pass` line.

All jobs must exit 0.  Regenerate the references (only when CLI output is
meant to change) with `python3 perfbench/workloads.py` from the repo root.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1729
WORKLOADS = ("structure", "lambda", "presentations")

REFERENCE = "reference"        # stdout hash fixed at every seed
OVERALL_PASS = "overall-pass"  # seeded; reference only at DEFAULT_SEED
LAMBDA_IDENTITY = "lambda-identity"


@dataclass(frozen=True)
class Job:
    name: str
    args: Tuple[str, ...]
    check: str
    # For LAMBDA_IDENTITY jobs: group name, element coefficients and k.
    lambda_input: Optional[Tuple[str, Tuple[int, ...], int]] = None


# `marks --group C1` pays only interpreter start, `import f1gtheory` and
# argparse: the fixed cost of every CLI call, reported as setup_s.
SETUP_JOB = Job("setup-marks-c1", ("marks", "--group", "C1"), REFERENCE)

MONOID_JSON = "perfbench/monoid3.json"


def _lambda_job(name: str, group: str, k: int, seed: int) -> Job:
    coeffs = virtual_element(group, seed)
    element = json.dumps(list(coeffs), separators=(",", ":"))
    return Job(name, ("lambda", "--group", group, "--element", element,
                      "--k", str(k)),
               LAMBDA_IDENTITY, (group, coeffs, k))


def jobs_for(workload: str, seed: int, smoke: bool = False) -> List[Job]:
    """The job list of one pass of a workload."""
    s = str(seed)
    if smoke:
        return {
            "structure": [Job("smoke-marks-s3", ("marks", "--group", "S3"),
                              REFERENCE)],
            "lambda": [_lambda_job("smoke-lambda-s3-virtual-k3", "S3", 3, seed)],
            "presentations": [Job("smoke-g0-s3", ("g0", "--group", "S3"),
                                  REFERENCE)],
        }[workload]
    if workload == "structure":
        return [
            Job("marks-s4xc2", ("marks", "--generators", "(1 2 3 4);(1 2);(5 6)",
                                "--degree", "6"), REFERENCE),
            Job("marks-c2x5", ("marks", "--generators",
                               "(1 2);(3 4);(5 6);(7 8);(9 10)",
                               "--degree", "10"), REFERENCE),
            Job("mackey-check-d12", ("mackey-check", "--group", "D12",
                                     "--seed", s), OVERALL_PASS),
        ]
    if workload == "lambda":
        return [
            Job("lambda-s4-regular-k6",
                ("lambda", "--group", "S4", "--element",
                 "[1,0,0,0,0,0,0,0,0,0,0]", "--k", "6"), REFERENCE),
            _lambda_job("lambda-s4-virtual-k5", "S4", 5, seed),
            Job("lambda-verify-c5", ("lambda-verify", "--group", "C5",
                                     "--l-cap", "3", "--seed", s),
                OVERALL_PASS),
        ]
    if workload == "presentations":
        return [
            Job("g0-d6", ("g0", "--group", "D6"), REFERENCE),
            Job("g0-monoid3", ("g0", "--monoid-json", MONOID_JSON,
                               "--bound", "6"), REFERENCE),
            Job("g1-d12", ("g1", "--group", "D12"), REFERENCE),
            Job("wh0-d12", ("wh0", "--group", "D12"), REFERENCE),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _ring(group: str):
    from f1gtheory.burnside import build_burnside
    from f1gtheory.groups import build_group
    return build_burnside(build_group(name=group))


def virtual_element(group: str, seed: int) -> Tuple[int, ...]:
    """A seeded virtual element whose support includes the regular class.

    The regular class (index 0) always has coefficient 1, so every seed
    walks the same subsets of G/1 and costs about the same; the other
    coefficients are drawn from -2..2 with at least one negative.
    """
    ring = _ring(group)
    if ring.classification.representatives[0].order != 1:
        raise ValueError("class 0 is expected to be the trivial subgroup")
    rng = random.Random(f"{group}:{seed}")
    rest = [rng.randint(-2, 2) for _ in range(ring.rank - 1)]
    if min(rest) >= 0:
        rest[rng.randrange(len(rest))] = -1
    return (1,) + tuple(rest)


def lambda_by_addition(group: str, coeffs: Tuple[int, ...], k: int) -> List[int]:
    """lambda^k(p) as sum_i lambda^i(x) * lambda^(k-i)(n), n = the G/1 part of p.

    n is effective, so its operations walk subsets of an explicit G-set;
    x has no regular part.  This is independent of the series the CLI uses
    for p as a whole.
    """
    from f1gtheory.lambda_ops import lambda_k
    ring = _ring(group)
    p = ring.element(coeffs)
    n = ring.element((coeffs[0],) + (0,) * (ring.rank - 1))
    x = p - n
    total = ring.zero()
    for i in range(k + 1):
        total = total + ring.mul(lambda_k(ring, x, i), lambda_k(ring, n, k - i))
    return list(total.coeffs)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Decides whether one job's exit status and stdout are correct."""

    def __init__(self, seed: int, jobs: List[Job]) -> None:
        self.seed = seed
        self.references: Dict[str, str] = json.loads(REFERENCES.read_text())["sha256"]
        # Computed once per run, outside every timed region.
        self.expected: Dict[str, List[int]] = {
            job.name: lambda_by_addition(*job.lambda_input)
            for job in jobs if job.check == LAMBDA_IDENTITY
        }

    def problem(self, job: Job, returncode: int, stdout: bytes) -> Optional[str]:
        """None if the output is correct, else a one-line reason."""
        if returncode != 0:
            return f"exit status {returncode}"
        if job.check == REFERENCE or self.seed == DEFAULT_SEED:
            ref = self.references.get(job.name)
            if ref is None:
                return "no reference output recorded"
            if digest(stdout) != ref:
                return "stdout differs from the reference"
            if job.check == REFERENCE:
                return None
        if job.check == OVERALL_PASS:
            if b"\noverall: pass\n" not in b"\n" + stdout:
                return "no 'overall: pass' line"
            return None
        try:
            printed = json.loads(stdout)
        except ValueError:
            return "stdout is not a JSON vector"
        if printed != self.expected[job.name]:
            return "lambda value fails the addition identity"
        return None


def _record_references(root: Path) -> None:
    import subprocess
    env_path = str(root / "src")
    sys.path.insert(0, env_path)
    jobs = [SETUP_JOB]
    for workload in WORKLOADS:
        jobs += jobs_for(workload, DEFAULT_SEED)
        jobs += jobs_for(workload, DEFAULT_SEED, smoke=True)
    sha = {}
    for job in jobs:
        proc = subprocess.run(
            [sys.executable, "-m", "f1gtheory.cli", *job.args],
            cwd=root, env={"PYTHONPATH": env_path, "PATH": ""},
            capture_output=True, check=True)
        sha[job.name] = digest(proc.stdout)
        print(f"{job.name}: {len(proc.stdout)} bytes", file=sys.stderr)
    REFERENCES.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "sha256": sha}, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record_references(HERE.parent)
