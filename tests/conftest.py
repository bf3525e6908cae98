from __future__ import annotations

import pytest

from f1gtheory.burnside import build_burnside
from f1gtheory.groups import build_group


# the order-48 and order-64 rungs, by permutation generators
RUNGS = {
    "S4xC2": (["(1 2 3 4)", "(1 2)", "(5 6)"], 6),
    "D4xC2^3": (["(1 2 3 4)", "(1 3)", "(5 6)", "(7 8)", "(9 10)"], 10),
}


def group_of(name):
    """A library group, or a rung by its key in RUNGS."""
    if name in RUNGS:
        generators, degree = RUNGS[name]
        return build_group(generators=generators, degree=degree)
    return build_group(name=name)


def ring_of(name):
    return build_burnside(build_group(name=name))


@pytest.fixture
def c2_ring():
    return ring_of("C2")


@pytest.fixture
def s3_ring():
    return ring_of("S3")
