"""Seeded random Burnside ring elements for the randomized checks.

Everything here is deterministic given a random.Random instance.
"""

from __future__ import annotations

import random

from .burnside import BurnsideElement, BurnsideRing, linear_dimension

__all__ = ["random_effective", "random_element"]


def random_effective(ring: BurnsideRing, rng: random.Random,
                     max_support: int = 2, max_coeff: int = 2,
                     max_size: int = 12) -> BurnsideElement:
    """An effective element whose realization has at most max_size points."""
    for _ in range(64):
        support = rng.sample(range(ring.rank), min(max_support, ring.rank))
        coeffs = [0] * ring.rank
        for i in support:
            coeffs[i] = rng.randint(0, max_coeff)
        x = ring.element(coeffs)
        if linear_dimension(x) <= max_size:
            return x
    return ring.zero()


def random_element(ring: BurnsideRing, rng: random.Random,
                   max_size: int = 12) -> BurnsideElement:
    """A virtual element: difference of two bounded effective elements."""
    return (random_effective(ring, rng, max_size=max_size)
            - random_effective(ring, rng, max_size=max_size))
