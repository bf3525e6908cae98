"""Seeded random Burnside ring elements for the randomized checks.

Everything here is deterministic given a random.Random instance.
"""

from __future__ import annotations

import random

from .burnside import BurnsideElement, BurnsideRing, linear_dimension

__all__ = ["random_effective", "random_element"]


def random_effective(ring: BurnsideRing, rng: random.Random,
                     max_size: int = 12) -> BurnsideElement:
    """An effective element on <= 2 classes, coefficients <= 2, on <= max_size points."""
    for _ in range(64):
        support = rng.sample(range(ring.rank), min(2, ring.rank))
        coeffs = [0] * ring.rank
        for i in support:
            coeffs[i] = rng.randint(0, 2)
        x = ring.element(coeffs)
        if linear_dimension(x) <= max_size:
            return x
    return ring.zero()


def random_element(ring: BurnsideRing, rng: random.Random) -> BurnsideElement:
    """A virtual element: difference of two effective elements on <= 12 points."""
    return random_effective(ring, rng) - random_effective(ring, rng)
