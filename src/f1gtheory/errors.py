"""Shared exception types, and the one place a resource limit refuses."""

import math
import sys
from typing import Iterable


class ResourceLimitError(ValueError):
    """An enumeration or closure exceeded one of the module constants that cap it."""


class InternalCheckError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


def charge(name: str, count: int, cap: int, what: str) -> None:
    """Refuse work whose `count` of `what` passes the limit `name` = `cap`.

    Every resource limit is charged here, before the work it bounds; the
    count may be a lower bound of that work.
    """
    if count > cap:
        raise ResourceLimitError(f"{what} reaches {count}, past {name} = {cap}")


def charge_printable(what: str, growing: Iterable[int], over: int = 1) -> None:
    """Refuse an answer with a number too long for Python's integer-string limit.

    `growing` never decreases and ends at most `over` times the answer's
    longest number (a bound on its marks for lambda of a virtual class), so
    it is read until it reaches 10^limit * over.  The digits of
    v = value // over are those of 2^(v.bit_length() - 1) or one more.
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        stop, value = 10 ** limit * over, 0
        for value in growing:
            if value >= stop:
                break
        v = value // over
        d = int((v.bit_length() - 1) * math.log10(2)) + 1
        charge("sys.get_int_max_str_digits()", d + (v >= 10 ** d), limit, what)
