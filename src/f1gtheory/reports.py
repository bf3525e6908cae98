"""Uniform pass/fail reporting for property checks."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .records import _Record


class CheckReport(_Record):
    """Outcome of one named check over many instances.

    Failures carry JSON-ready dicts describing the counterexample; an empty
    list means every instance passed.  `record` takes the counterexample as
    a callable, so passing instances never build theirs.  Unlike the other
    records a report is mutable, and therefore unhashable.
    """

    _fields = ("check", "instances", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, check: str, instances: int = 0,
                 failures: Optional[List[Dict]] = None) -> None:
        self.check = check
        self.instances = instances
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, counterexample: Callable[[], Dict]) -> None:
        self.instances += 1
        if not ok:
            self.failures.append(counterexample())

    def to_json(self) -> Dict:
        out = {
            "check": self.check,
            "instances": self.instances,
            "status": "pass" if self.passed else "fail",
            "failures": self.failures,
        }
        return out

    def summary_line(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)})"
        return f"{self.check}: {self.instances} instances, {status}"
